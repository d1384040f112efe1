#include "workloads.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <utility>

#include "common/logging.h"
#include "common/rng.h"
#include "workload/generator.h"

namespace perfbench {

using entangled::Database;
using entangled::GeneratorOptions;
using entangled::GraphTopology;
using entangled::Rng;
using entangled::WorkloadEvent;
using entangled::WorkloadGenerator;

namespace {

uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + salt;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

bool IsWordChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// Renames one generated query text into ring slot `slot`: the query
/// name gains a `k<slot>` prefix and every answer tag `G<g>M<m>` becomes
/// `K<slot>G<g>M<m>`, so texts of different slots never unify.  Tags
/// are the only tokens of that shape (database constants are quoted
/// lowercase, relation names are `A<n>`, `P<n>` or `R<n>`).
std::string Relabel(const std::string& text, size_t slot) {
  const std::string label = std::to_string(slot);
  std::string out = "k" + label;
  out.reserve(text.size() + 64);
  for (size_t i = 0; i < text.size(); ++i) {
    if (text[i] == 'G' && (i == 0 || !IsWordChar(text[i - 1]))) {
      size_t j = i + 1;
      while (j < text.size() && std::isdigit(static_cast<unsigned char>(text[j]))) ++j;
      if (j > i + 1 && j < text.size() && text[j] == 'M') {
        out += "K" + label;
      }
    }
    out += text[i];
  }
  return out;
}

/// The query texts of one generated chunk, in the generator's order.
std::vector<std::string> ChunkTexts(const GeneratorOptions& options) {
  std::vector<std::string> texts;
  for (const WorkloadEvent& event : WorkloadGenerator(options).Generate().events) {
    texts.insert(texts.end(), event.texts.begin(), event.texts.end());
  }
  return texts;
}

/// Moves every answer relation `A<n>` of `text` to `<letter><n>`.
/// Answer relations are the only tokens that are `A`, digits and an
/// opening parenthesis (body relations are `R<n>`).
std::string RenameAnswerRelations(const std::string& text, char letter) {
  std::string out = text;
  for (size_t i = 0; i < out.size(); ++i) {
    if (out[i] != 'A' || (i > 0 && IsWordChar(out[i - 1]))) continue;
    size_t j = i + 1;
    while (j < out.size() && std::isdigit(static_cast<unsigned char>(out[j]))) ++j;
    if (j > i + 1 && j < out.size() && out[j] == '(') out[i] = letter;
  }
  return out;
}

/// Generated chunks replayed over `slots` ring slots, slot r taking
/// chunk r % chunks.size().  Slot r relabels its chunk's symbols,
/// shuffles its texts and deals them into a fresh arrival skeleton
/// (single submits, batches, cancels and flushes at the generator's
/// rates), so the slots share the database but neither their arrival
/// order nor their batching; a seed's cost then averages over all
/// slots.  Submitting steps go round-robin over `sessions`.
std::vector<Step> ChunkRing(const std::vector<std::vector<std::string>>& chunks,
                            const GeneratorOptions& options, size_t slots,
                            size_t sessions, uint64_t seed) {
  std::vector<Step> ring;
  size_t next_session = 0;
  for (size_t slot = 0; slot < slots; ++slot) {
    Rng rng(Mix(seed, 0x5107 + slot));
    std::vector<std::string> dealt = chunks[slot % chunks.size()];
    rng.Shuffle(&dealt);
    size_t next = 0;
    while (next < dealt.size()) {
      Step step;
      const size_t remaining = dealt.size() - next;
      size_t size = 1;
      if (remaining >= 2 && rng.NextBool(options.batch_rate)) {
        size = std::min(remaining, size_t{2} + static_cast<size_t>(rng.NextBounded(
                                                    options.max_batch - 1)));
      }
      step.kind = size == 1 ? Step::Kind::kSubmit : Step::Kind::kBatch;
      for (size_t i = 0; i < size; ++i) {
        step.texts.push_back(Relabel(dealt[next++], slot));
      }
      step.session = next_session++ % sessions;
      ring.push_back(std::move(step));
      if (rng.NextBool(options.cancel_rate)) {
        Step cancel;
        cancel.kind = Step::Kind::kCancel;
        cancel.cancel_rank = static_cast<size_t>(rng.NextBounded(1024));
        ring.push_back(std::move(cancel));
      }
      if (rng.NextBool(options.flush_rate)) ring.push_back(Step{});
    }
    ring.push_back(Step{});  // each slot ends with a flush, like a chunk
  }
  return ring;
}

size_t CountTexts(const std::vector<Step>& steps) {
  size_t n = 0;
  for (const Step& step : steps) n += step.texts.size();
  return n;
}

// ---- social_stream ---------------------------------------------------------

constexpr size_t kStreamChunk = 1024;  // query texts per ring slot
constexpr size_t kRingSlots = 8;
/// Body relations of the generated database.  Each seed draws their
/// arities and rows afresh; a dozen of them average that draw out, so
/// the seed changes which queries arrive more than how costly they are.
constexpr size_t kBodyRelations = 12;

void MakeSocialStream(uint64_t seed, Workload* w) {
  GeneratorOptions g;
  g.seed = Mix(seed, 1);
  g.topology = GraphTopology::kErdosRenyi;
  g.min_group = 2;
  g.max_group = 5;
  g.num_queries = kStreamChunk;
  g.num_relations = kBodyRelations;
  g.batch_rate = 0.25;
  g.cancel_rate = 0.1;
  g.flush_rate = 0.05;
  w->build_db = [g](Database* db) {
    ENTANGLED_CHECK(WorkloadGenerator(g).BuildDatabase(db).ok());
  };
  w->sessions = 16;
  w->evaluate_every = 1;
  w->patience = 512;
  w->ring = ChunkRing({ChunkTexts(g)}, g, kRingSlots, w->sessions, seed);
  const size_t ring_steps = w->ring.size();
  w->snapshot_every = 2048;
  w->warmup_steps = ring_steps;
  w->check_steps = 15000;
  w->tail_steps = 2 * ring_steps;
  w->summary = "ring=" + std::to_string(CountTexts(w->ring)) +
               " texts/" + std::to_string(ring_steps) +
               " steps, erdos_renyi groups 2-5, 16 sessions, "
               "evaluate_every=1, patience=512, 1 thread";
}

// ---- merge_backlog ---------------------------------------------------------

constexpr size_t kBacklog = 5000;
constexpr size_t kPartitions = 16;

GeneratorOptions MergeStreamOptions(uint64_t seed) {
  GeneratorOptions g;
  g.seed = Mix(seed, 3);
  g.topology = GraphTopology::kChain;
  g.min_group = 2;
  g.max_group = 5;
  g.num_queries = kStreamChunk;
  g.num_relations = kBodyRelations;
  g.bridge_storm = 8;
  g.relation_partitions = kPartitions;
  g.batch_rate = 0.25;
  g.cancel_rate = 0.1;
  g.flush_rate = 0.05;
  return g;
}

void MakeMergeBacklog(uint64_t seed, double scale, Workload* w) {
  GeneratorOptions g = MergeStreamOptions(seed);
  // Shrunk chunks let a short oracle replay reach an odd slot; 128 texts
  // a slot keep the ring (1024 texts) longer than the patience.
  g.num_queries = std::max<size_t>(
      128, static_cast<size_t>(std::lround(kStreamChunk * scale)));
  w->build_db = [g](Database* db) {
    ENTANGLED_CHECK(WorkloadGenerator(g).BuildDatabase(db).ok());
  };
  // The backlog shares the stream's seed (so its body atoms have the
  // database's arities) and answer relations (so it shares routing
  // footprints), but its own symbols and a never-grounding body, so it
  // can never coordinate.
  GeneratorOptions b = g;
  b.symbol_prefix = "Bk";
  b.stuck_body_rate = 1.0;
  b.head_only_var_rate = 0;
  b.num_queries =
      std::max<size_t>(64, static_cast<size_t>(std::lround(kBacklog * scale)));
  for (const WorkloadEvent& event : WorkloadGenerator(b).Generate().events) {
    w->backlog.insert(w->backlog.end(), event.texts.begin(), event.texts.end());
  }
  w->sessions = 16;
  w->evaluate_every = 4;
  w->patience = 512;
  // Even slots coordinate through the backlog's answer relations, which
  // the backlog keeps in one relation group for good: their queries
  // land in the backlog's shard.  Odd slots take the same chunk with
  // one answer relation per group, renamed to P<n>, which no backlog
  // query names: their groups form through bridge-storm merges, drain
  // and are garbage-collected, so the timed window keeps merging.
  GeneratorOptions own = g;
  own.relation_partitions = 0;
  std::vector<std::string> private_texts;
  for (const std::string& text : ChunkTexts(own)) {
    private_texts.push_back(RenameAnswerRelations(text, 'P'));
  }
  w->ring = ChunkRing({ChunkTexts(g), private_texts}, g, kRingSlots,
                      w->sessions, seed);
  const size_t ring_steps = w->ring.size();
  w->snapshot_every = 4096;
  w->warmup_steps = ring_steps / 2;
  w->check_steps = 8000;
  w->tail_steps = ring_steps / 2;
  w->summary = "backlog=" + std::to_string(w->backlog.size()) +
               " resident, ring=" + std::to_string(CountTexts(w->ring)) +
               " texts/" + std::to_string(ring_steps) +
               " steps, chain groups 2-5, bridge_storm=8, half the slots in " +
               std::to_string(kPartitions) +
               " answer relations shared with the backlog, half in one "
               "private relation per group, 16 sessions, evaluate_every=4, "
               "patience=512, 1 thread";
}

}  // namespace

bool MakeWorkload(const std::string& name, uint64_t seed, double scale,
                  Workload* out) {
  *out = Workload{};
  out->name = name;
  if (name == "social_stream") {
    MakeSocialStream(seed, out);
  } else if (name == "merge_backlog") {
    MakeMergeBacklog(seed, scale, out);
  } else {
    return false;
  }
  return true;
}

}  // namespace perfbench
