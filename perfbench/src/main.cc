// End-to-end benchmark driver: one closed-loop client replays a
// workload (perfbench/src/workloads.h) through the production stack
//
//   SessionManager -> DurableCoordinationService (fsync every_flush)
//     -> ShardedCoordinationEngine
//
// and prints the end-to-end metrics (--trace 0) or the per-layer
// metrics (--trace 1) as the last line of stdout, in the JSON shape
// perfbench/run.py documents.  Every run checks its outputs: each
// delivery passes Definition-1 validation, the delivery digest and WAL
// counts at a fixed checkpoint agree across the run's segments (and
// across the traced and untraced passes), and recovery restores the
// exact pre-crash pending set.
//
// --oracle-check replays a reduced run through the stack and through
// the from-scratch engine (EngineOptions::incremental = false, no
// sessions, no durability) and requires byte-identical delivery
// streams.

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/session.h"
#include "common/interner.h"
#include "common/logging.h"
#include "core/parser.h"
#include "core/validator.h"
#include "storage/durable_service.h"
#include "storage/snapshot.h"
#include "system/engine.h"
#include "system/sharded_engine.h"
#include "tracing.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using entangled::ClientSession;
using entangled::CoordinationEngine;
using entangled::Database;
using entangled::Delivery;
using entangled::DurableCoordinationService;
using entangled::QueryId;
using entangled::SessionManager;
using entangled::ShardedCoordinationEngine;

double Seconds(int64_t nanos) { return static_cast<double>(nanos) * 1e-9; }

[[noreturn]] void Fail(const std::string& message) {
  std::cerr << "perfbench: " << message << "\n";
  std::exit(1);
}

// ---------------------------------------------------------------------------
// Targets: what the client drives.  The stack target goes through the
// sessions; the oracle target is one from-scratch engine.
// ---------------------------------------------------------------------------

class Target {
 public:
  virtual ~Target() = default;
  /// Admitted ids (empty on rejection).
  virtual std::vector<QueryId> Submit(size_t session,
                                      const std::vector<std::string>& texts) = 0;
  virtual bool Cancel(QueryId id) = 0;
  virtual void Flush() = 0;
  virtual void SetEvaluateEvery(size_t n) = 0;
  virtual size_t NumPending() const = 0;
  virtual void Snapshot() {}
};

/// Everything one run owns, declared so destruction runs top-down
/// (sessions first, facts last).
struct Stack {
  Database db;
  std::unique_ptr<ShardedCoordinationEngine> engine;
  std::unique_ptr<TimingService> lower;  // traced runs only
  std::unique_ptr<DurableCoordinationService> durable;
  std::unique_ptr<TimingService> upper;  // traced runs only
  std::unique_ptr<SessionManager> manager;
  std::vector<ClientSession*> sessions;
};

/// Wires engine -> durable -> sessions over `stack->db`, which must
/// already hold the facts.  `clock` non-null inserts the two timing
/// decorators.  Returns the durable service's Create status.
entangled::Status WireStack(Stack* stack, const Workload& w,
                            const std::string& dir, SpanClock* clock) {
  entangled::ShardedEngineOptions options;
  options.engine.evaluate_every = w.evaluate_every;
  options.shard_threads = 1;  // the client's thread does all the work
  stack->engine =
      std::make_unique<ShardedCoordinationEngine>(&stack->db, options);
  entangled::CoordinationService* below = stack->engine.get();
  if (clock != nullptr) {
    stack->lower = std::make_unique<TimingService>(below, clock, Layer::kSystem,
                                                   Layer::kStorage);
    below = stack->lower.get();
  }
  entangled::DurabilityOptions durability;
  durability.dir = dir;
  durability.fsync = entangled::FsyncPolicy::kEveryFlush;
  durability.initial_evaluate_every = w.evaluate_every;
  auto durable =
      DurableCoordinationService::Create(below, &stack->db, durability);
  if (!durable.ok()) return durable.status();
  stack->durable = std::move(*durable);
  entangled::CoordinationService* above = stack->durable.get();
  if (clock != nullptr) {
    stack->upper = std::make_unique<TimingService>(above, clock,
                                                   Layer::kStorage, Layer::kApi);
    above = stack->upper.get();
  }
  stack->manager = std::make_unique<SessionManager>(above);
  for (size_t s = 0; s < w.sessions; ++s) {
    entangled::SessionOptions session_options;
    session_options.label = "c" + std::to_string(s);
    stack->sessions.push_back(stack->manager->Open(session_options));
  }
  return entangled::Status::OK();
}

class StackTarget : public Target {
 public:
  StackTarget(Stack* stack, SpanClock* clock) : stack_(stack), clock_(clock) {}

  std::vector<QueryId> Submit(size_t session,
                              const std::vector<std::string>& texts) override {
    ClientSession* s = stack_->sessions[session];
    if (texts.size() == 1) {
      entangled::SubmitOutcome outcome;
      {
        Span span(clock_, Layer::kApi);
        outcome = s->Submit(texts.front());
      }
      if (!outcome.ok()) return {};
      return {outcome.id};
    }
    entangled::BatchOutcome outcome;
    {
      Span span(clock_, Layer::kApi);
      outcome = s->SubmitBatch(texts);
    }
    if (!outcome.ok()) return {};
    return outcome.ids;
  }
  bool Cancel(QueryId id) override {
    const entangled::SessionId owner = stack_->manager->OwnerOf(id);
    if (owner < 0) return false;
    Span span(clock_, Layer::kApi);
    return stack_->sessions[static_cast<size_t>(owner)]->Cancel(id);
  }
  void Flush() override {
    Span span(clock_, Layer::kApi);
    stack_->manager->Flush();
  }
  void SetEvaluateEvery(size_t n) override {
    Span span(clock_, Layer::kApi);
    stack_->manager->set_evaluate_every(n);
  }
  size_t NumPending() const override { return stack_->manager->num_pending(); }
  void Snapshot() override {
    const int64_t start = NowNanos();
    entangled::Status status;
    {
      Span span(clock_, Layer::kStorage);
      status = stack_->durable->SnapshotNow();
    }
    if (!status.ok()) Fail("SnapshotNow failed: " + status.ToString());
    snapshot_ns += NowNanos() - start;
    ++snapshots;
  }

  int64_t snapshot_ns = 0;
  uint64_t snapshots = 0;

 private:
  Stack* stack_;
  SpanClock* clock_;
};

class OracleTarget : public Target {
 public:
  OracleTarget(const Database* db, size_t evaluate_every) {
    entangled::EngineOptions options;
    options.incremental = false;
    options.evaluate_every = evaluate_every;
    engine = std::make_unique<CoordinationEngine>(db, options);
  }
  std::vector<QueryId> Submit(size_t,
                              const std::vector<std::string>& texts) override {
    if (texts.size() == 1) {
      auto id = engine->Submit(texts.front());
      if (!id.ok()) return {};
      return {*id};
    }
    auto ids = engine->SubmitBatch(texts);
    if (!ids.ok()) return {};
    return *ids;
  }
  bool Cancel(QueryId id) override { return engine->Cancel(id); }
  void Flush() override { engine->Flush(); }
  void SetEvaluateEvery(size_t n) override { engine->set_evaluate_every(n); }
  size_t NumPending() const override { return engine->num_pending(); }

  std::unique_ptr<CoordinationEngine> engine;
};

// ---------------------------------------------------------------------------
// The closed-loop client.
// ---------------------------------------------------------------------------

class Client {
 public:
  Client(const Workload& w, Target* target) : w_(w), target_(target) {}

  /// Service delivery hook (push, called inside the service).
  void OnDelivery(std::shared_ptr<const Delivery> delivery) {
    if (delivered_any_ && delivery->sequence <= last_sequence_) return;
    delivered_any_ = true;
    last_sequence_ = delivery->sequence;
    arrived_.push_back({NetNow(), std::move(delivery)});
  }

  /// Admits the resident backlog with evaluation off, then flushes once.
  void Preload() {
    if (w_.backlog.empty()) return;
    target_->SetEvaluateEvery(0);
    constexpr size_t kBatch = 256;
    for (size_t i = 0; i < w_.backlog.size(); i += kBatch) {
      const size_t end = std::min(w_.backlog.size(), i + kBatch);
      std::vector<std::string> batch(w_.backlog.begin() + i,
                                     w_.backlog.begin() + end);
      const auto ids = target_->Submit((i / kBatch) % w_.sessions, batch);
      if (ids.size() != batch.size()) Fail("backlog batch rejected");
    }
    target_->Flush();
    target_->SetEvaluateEvery(w_.evaluate_every);
    AfterCall(0, {});
    if (target_->NumPending() != w_.backlog.size()) {
      Fail("backlog coordinated: " + std::to_string(target_->NumPending()) +
           " of " + std::to_string(w_.backlog.size()) + " still pending");
    }
  }

  /// Executes the next ring step.
  void Step() {
    const perfbench::Step& step = w_.ring[position_ % w_.ring.size()];
    ++position_;
    const int64_t start = NetNow();
    switch (step.kind) {
      case Step::Kind::kSubmit:
      case Step::Kind::kBatch: {
        ++attempted_;
        std::vector<QueryId> ids = target_->Submit(step.session, step.texts);
        if (ids.size() != step.texts.size()) ++failed_;
        texts_ += ids.size();
        for (const std::string& text : step.texts) text_bytes_ += text.size();
        if (parse_log_ != nullptr) {
          for (const std::string& text : step.texts) parse_log_->push_back(&text);
        }
        AfterCall(start, ids);
        break;
      }
      case Step::Kind::kCancel: {
        if (!stream_pending_.empty()) {
          auto it = stream_pending_.begin();
          std::advance(it, static_cast<long>(step.cancel_rank %
                                             stream_pending_.size()));
          CancelOne(*it);
        }
        break;
      }
      case Step::Kind::kFlush: {
        ++attempted_;
        target_->Flush();
        AfterCall(start, {});
        break;
      }
    }
    if (w_.snapshot_every > 0 && snapshots_on_ &&
        position_ % w_.snapshot_every == 0) {
      target_->Snapshot();
    }
  }

  // ---- measurement controls ----
  void set_record_latency(bool on) { record_latency_ = on; }
  void set_snapshots(bool on) { snapshots_on_ = on; }
  void set_parse_log(std::vector<const std::string*>* log) { parse_log_ = log; }
  /// Non-null: every delivery is kept (oracle comparison).
  void set_transcript(std::vector<std::string>* out) { transcript_ = out; }
  /// Non-null: every delivery is validated against Definition 1
  /// outside the timed window (the time is excluded via paused_ns()).
  void set_validator(const Database* db, const ShardedCoordinationEngine* e) {
    validate_db_ = db;
    validate_engine_ = e;
  }

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  uint64_t texts() const { return texts_; }
  uint64_t text_bytes() const { return text_bytes_; }
  uint64_t deliveries() const { return deliveries_; }
  uint64_t digest() const { return digest_; }
  uint64_t validated() const { return validated_; }
  int64_t paused_ns() const { return paused_ns_; }
  size_t position() const { return position_; }
  std::vector<double>* latencies_ms() { return &latencies_ms_; }

 private:
  struct Arrival {
    int64_t at;  ///< NetNow() when the delivery reached its session
    std::shared_ptr<const Delivery> delivery;
  };

  /// The client's clock net of validation pauses, so no latency sample
  /// includes time spent checking earlier deliveries.
  int64_t NetNow() const { return NowNanos() - paused_ns_; }

  void CancelOne(QueryId id) {
    ++attempted_;
    const int64_t start = NetNow();
    if (!target_->Cancel(id)) ++failed_;
    stream_pending_.erase(id);
    AfterCall(start, {});
  }

  /// Post-call bookkeeping: registers the call's admitted ids, then
  /// settles the deliveries the call produced, then applies patience.
  void AfterCall(int64_t start, const std::vector<QueryId>& ids) {
    for (QueryId id : ids) {
      const size_t slot = static_cast<size_t>(id);
      if (call_start_.size() <= slot) call_start_.resize(slot + 1, -1);
      call_start_[slot] = start;
      stream_pending_.insert(id);
      ++arrivals_;
      if (w_.patience > 0) patience_.push_back({id, arrivals_});
    }
    std::vector<Arrival> arrived;
    arrived.swap(arrived_);
    for (const Arrival& a : arrived) Settle(a);
    while (!patience_.empty() &&
           patience_.front().second + w_.patience <= arrivals_) {
      const QueryId id = patience_.front().first;
      patience_.pop_front();
      if (stream_pending_.count(id) > 0) CancelOne(id);
    }
  }

  void Settle(const Arrival& a);

  const Workload& w_;
  Target* target_;
  size_t position_ = 0;
  std::set<QueryId> stream_pending_;  ///< ring-submitted, still pending
  std::deque<std::pair<QueryId, uint64_t>> patience_;
  uint64_t arrivals_ = 0;
  std::vector<int64_t> call_start_;  ///< per id: NetNow() at its submit
  std::vector<Arrival> arrived_;     ///< deliveries of the current call
  bool delivered_any_ = false;
  uint64_t last_sequence_ = 0;

  bool record_latency_ = false;
  bool snapshots_on_ = true;
  std::vector<const std::string*>* parse_log_ = nullptr;
  std::vector<std::string>* transcript_ = nullptr;
  const Database* validate_db_ = nullptr;
  const ShardedCoordinationEngine* validate_engine_ = nullptr;

  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t texts_ = 0;
  uint64_t text_bytes_ = 0;
  uint64_t deliveries_ = 0;
  uint64_t validated_ = 0;
  uint64_t digest_ = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  int64_t paused_ns_ = 0;
  std::vector<double> latencies_ms_;
};

void Client::Settle(const Arrival& a) {
  const Delivery& d = *a.delivery;
  ++deliveries_;
  auto mix = [this](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      digest_ ^= (v >> (8 * i)) & 0xff;
      digest_ *= 0x100000001b3ULL;
    }
  };
  mix(d.sequence);
  QueryId last = -1;
  for (const entangled::DeliveredQuery& q : d.queries) {
    mix(static_cast<uint64_t>(q.id));
    last = std::max(last, q.id);
    stream_pending_.erase(q.id);
  }
  if (record_latency_ && last >= 0 &&
      static_cast<size_t>(last) < call_start_.size() &&
      call_start_[static_cast<size_t>(last)] >= 0) {
    latencies_ms_.push_back(
        static_cast<double>(a.at - call_start_[static_cast<size_t>(last)]) *
        1e-6);
  }
  if (transcript_ != nullptr) {
    transcript_->push_back("#" + std::to_string(d.sequence) + "\n" +
                           d.ToString());
  }
  if (validate_engine_ != nullptr) {
    const int64_t start = NowNanos();
    entangled::Status valid = entangled::ValidateSolution(
        *validate_db_, validate_engine_->queries(),
        entangled::SolutionFromDelivery(d));
    if (!valid.ok()) {
      Fail("delivery #" + std::to_string(d.sequence) +
           " fails Definition 1: " + valid.ToString());
    }
    ++validated_;
    paused_ns_ += NowNanos() - start;
  }
}

/// Routes every session's pushed events into the client, and drains
/// the pull queues so buffered events never accumulate.
void ConnectSessions(Stack* stack, Client* client) {
  for (ClientSession* session : stack->sessions) {
    session->set_event_callback([client](const entangled::SessionEvent& e) {
      client->OnDelivery(e.delivery);
    });
  }
}

uint64_t DrainEvents(Stack* stack) {
  uint64_t events = 0;
  for (ClientSession* session : stack->sessions) {
    if (session->num_buffered_events() > 0) {
      events += session->PollEvents().size();
    }
  }
  return events;
}

// ---------------------------------------------------------------------------
// Runs.
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string workdir = ".bench_build/perfbench/work";
  bool oracle_check = false;
  double scale = 1.0;
  size_t steps = 0;  ///< oracle check: ring steps replayed
};

void ResetDir(const std::string& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir);
}

/// One live stack and the client driving it.
struct Rig {
  std::unique_ptr<Stack> stack;
  std::unique_ptr<StackTarget> target;
  std::unique_ptr<Client> client;
  SpanClock* clock = nullptr;
  uint64_t events_routed = 0;

  /// One ring step, then the pull-side drain of every session's queue.
  void Step() {
    client->Step();
    Span span(clock, Layer::kApi);
    events_routed += DrainEvents(stack.get());
  }
  /// Drops the client first and the stack (the crash) last.
  void Reset() {
    client.reset();
    target.reset();
    stack.reset();
    clock = nullptr;
  }
};

/// One set-up: facts, Create (genesis snapshot), sessions, backlog,
/// warm-up.  Returns its wall time.
double SetUp(const Workload& w, const std::string& dir, SpanClock* clock,
             Rig* out) {
  out->Reset();
  ResetDir(dir);
  const int64_t start = NowNanos();
  out->clock = clock;
  out->stack = std::make_unique<Stack>();
  w.build_db(&out->stack->db);
  entangled::Status wired =
      WireStack(out->stack.get(), w, dir, clock);
  if (!wired.ok()) Fail("stack set-up failed: " + wired.ToString());
  out->target = std::make_unique<StackTarget>(out->stack.get(), clock);
  out->client = std::make_unique<Client>(w, out->target.get());
  ConnectSessions(out->stack.get(), out->client.get());
  out->client->set_validator(&out->stack->db, out->stack->engine.get());
  out->client->Preload();
  for (size_t i = 0; i < w.warmup_steps; ++i) out->Step();
  return Seconds(NowNanos() - start);
}

struct Checkpoint {
  uint64_t digest = 0;
  uint64_t deliveries = 0;
  uint64_t wal_records = 0;
  uint64_t wal_bytes = 0;
  size_t at_step = 0;
};

/// One sub-window of the timed window.
struct Slice {
  double seconds = 0;
  uint64_t texts = 0;
  size_t lat_begin = 0, lat_end = 0;  ///< its latency samples
};

struct Window {
  double seconds = 0;  ///< net of validation pauses
  uint64_t texts = 0;
  uint64_t text_bytes = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Checkpoint check;
  double rss_mb = 0;  ///< peak RSS when the checkpoint was reached
  std::vector<Slice> slices;
};

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// The measured time is split into kSegments segments, each on a
/// freshly set-up stack (so per-query state the service retains grows
/// the same way in every run, however fast the host), and each segment
/// into one-second sub-windows whose medians the metrics report, so a
/// short burst of host noise moves no number.
constexpr int kSegments = 5;

/// Timed recoveries per segment, each from its own copy of the crash
/// directory.
constexpr int kRecoveries = 3;

/// Latency samples a sub-window needs before it may close: its p99
/// then has at least ten samples beyond it.
constexpr size_t kMinSliceSamples = 1000;

/// One timed segment: steps until `seconds` have elapsed (net of
/// validation) and the checkpoint is reached, cut into `slices`
/// sub-windows of at least kMinSliceSamples latencies each.  `on_step`
/// runs after every step.
template <typename OnStep>
Window Measure(const Workload& w, Rig* s, double seconds, int slices,
               OnStep on_step) {
  Client* c = s->client.get();
  Window win;
  const uint64_t texts0 = c->texts(), bytes0 = c->text_bytes(),
                 attempted0 = c->attempted(), failed0 = c->failed();
  const int64_t paused0 = c->paused_ns();
  const size_t check_at = c->position() + w.check_steps;
  const int64_t budget = static_cast<int64_t>(seconds * 1e9);
  c->set_record_latency(true);
  const int64_t start = NowNanos();
  int64_t net = 0, slice_start = 0;
  uint64_t slice_texts = c->texts();
  size_t slice_lat = c->latencies_ms()->size();
  bool checked = false;
  while (true) {
    s->Step();
    on_step();
    if (!checked && c->position() == check_at) {
      const entangled::WalStats wal = s->stack->durable->wal_stats();
      win.check = {c->digest(), c->deliveries(), wal.appended_records,
                   wal.bytes, w.check_steps};
      win.rss_mb = PeakRssMb();
      checked = true;
    }
    net = NowNanos() - start - (c->paused_ns() - paused0);
    const int64_t edge =
        budget * static_cast<int64_t>(win.slices.size() + 1) / slices;
    if (net >= edge &&
        c->latencies_ms()->size() - slice_lat >= kMinSliceSamples) {
      Slice slice;
      slice.seconds = Seconds(net - slice_start);
      slice.texts = c->texts() - slice_texts;
      slice.lat_begin = slice_lat;
      slice.lat_end = c->latencies_ms()->size();
      win.slices.push_back(slice);
      slice_start = net;
      slice_texts = c->texts();
      slice_lat = slice.lat_end;
      if (checked && net >= budget) break;
    }
  }
  c->set_record_latency(false);
  win.seconds = Seconds(net);
  win.texts = c->texts() - texts0;
  win.text_bytes = c->text_bytes() - bytes0;
  win.attempted = c->attempted() - attempted0;
  win.failed = c->failed() - failed0;
  return win;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile of the raw samples.
double Percentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  rank = std::max<size_t>(1, std::min(rank, v.size()));
  return v[rank - 1];
}

/// State captured right before the crash, to compare recovery against.
struct PreCrash {
  std::vector<QueryId> pending;
  std::map<entangled::SessionId, std::vector<QueryId>> per_session;
};

PreCrash Capture(Stack* stack) {
  PreCrash pre;
  pre.pending = stack->manager->PendingQueries();
  for (ClientSession* session : stack->sessions) {
    pre.per_session[session->id()] = session->PendingQueries();
  }
  return pre;
}

/// After the window: SnapshotNow, an untimed replay tail, then a crash
/// (the stack is dropped without shutdown).  Returns the crash state.
PreCrash RunTailAndCrash(const Workload& w, Rig* s) {
  s->target->Snapshot();
  s->client->set_snapshots(false);
  for (size_t i = 0; i < w.tail_steps; ++i) s->Step();
  PreCrash pre = Capture(s->stack.get());
  s->Reset();
  return pre;
}

struct RecoveryTimes {
  double total_s = 0;
  double read_state_s = 0;
  double rebuild_db_s = 0;
  double recover_s = 0;
  uint64_t replayed_events = 0;
  uint64_t recovered_pending = 0;
};

/// fsync(2)s `path` (a file or a directory); false on failure.
bool SyncPath(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

/// Copies the crash directory to `dir` and makes the copy durable, so
/// the timed recovery never pays for flushing the copy's dirty pages.
void CopyDurably(const std::string& from, const std::string& dir) {
  fs::remove_all(dir);
  fs::copy(from, dir, fs::copy_options::recursive);
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    if (!SyncPath(entry.path().string())) Fail("fsync " + entry.path().string());
  }
  if (!SyncPath(dir)) Fail("fsync " + dir);
}

/// Recovers a copy of the crash directory into a fresh stack and checks
/// it against the pre-crash state.
RecoveryTimes Recover(const Workload& w, const std::string& crash_dir,
                      const std::string& dir, const PreCrash& pre) {
  CopyDurably(crash_dir, dir);
  RecoveryTimes t;
  const int64_t t0 = NowNanos();
  auto state = entangled::ReadDurableState(dir);
  if (!state.ok()) Fail("ReadDurableState: " + state.status().ToString());
  const int64_t t1 = NowNanos();
  auto stack = std::make_unique<Stack>();
  entangled::Status built =
      entangled::BuildDatabaseFromSnapshot(state->snapshot, &stack->db);
  if (!built.ok()) Fail("BuildDatabaseFromSnapshot: " + built.ToString());
  const int64_t t2 = NowNanos();
  entangled::Status wired = WireStack(stack.get(), w, dir, nullptr);
  if (!wired.ok()) Fail("recovery Create: " + wired.ToString());
  entangled::Status recovered =
      stack->durable->Recover(std::move(*state), stack->manager.get());
  if (!recovered.ok()) Fail("Recover: " + recovered.ToString());
  const int64_t t3 = NowNanos();
  t.total_s = Seconds(t3 - t0);
  t.read_state_s = Seconds(t1 - t0);
  t.rebuild_db_s = Seconds(t2 - t1);
  t.recover_s = Seconds(t3 - t2);
  const entangled::RecoveryReport& report = stack->durable->recovery_report();
  if (report.anomalies != 0 || report.corruption_detected) {
    Fail("recovery report not clean: " + report.ToString());
  }
  t.replayed_events = report.replayed_events;
  t.recovered_pending = report.recovered_pending;
  const PreCrash post = Capture(stack.get());
  if (post.pending != pre.pending) {
    Fail("recovered pending set (" + std::to_string(post.pending.size()) +
         ") differs from the pre-crash set (" +
         std::to_string(pre.pending.size()) + ")");
  }
  if (post.per_session != pre.per_session) {
    Fail("recovered session ownership differs from the pre-crash state");
  }
  stack.reset();
  fs::remove_all(dir);
  return t;
}

/// Fixed CPU-bound calibration kernel: a dependent xorshift chain whose
/// length never changes, so its time tracks host speed and jitter.
/// `*result` receives the chain's end value (printed, so it is computed).
double CalibrationSeconds(uint64_t* result) {
  const int64_t start = NowNanos();
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (int i = 0; i < 50'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  *result = x;
  return Seconds(NowNanos() - start);
}

std::string ReadFirstLine(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string GitSha() {
  const std::string head = ReadFirstLine(".git/HEAD");
  if (head.rfind("ref: ", 0) == 0) {
    const std::string sha = ReadFirstLine(".git/" + head.substr(5));
    return sha.empty() ? "unknown" : sha;
  }
  return head.empty() ? "none (not a git checkout)" : head;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

void PrintHost() {
  uint64_t result = 0;
  const double calibration_s = CalibrationSeconds(&result);
  std::cout << "host {\"nproc\": " << std::thread::hardware_concurrency()
            << ", \"cpu\": \"" << JsonEscape(CpuModel())
            << "\", \"git_sha\": \"" << JsonEscape(GitSha())
            << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
            << "\", \"calibration_s\": " << calibration_s
            << ", \"calibration_result\": " << result << "}\n";
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? ", " : "") << "\"" << metrics[i].name
        << "\": {\"value\": " << metrics[i].value << ", \"unit\": \""
        << metrics[i].unit << "\"}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

void PrintCheck(const std::string& pass, const Checkpoint& c) {
  std::cout << "check " << pass << " digest=" << std::hex << c.digest
            << std::dec << " deliveries=" << c.deliveries
            << " wal_records=" << c.wal_records << " wal_bytes=" << c.wal_bytes
            << " at_step=" << c.at_step << "\n";
}

// ---- --trace 0 -------------------------------------------------------------

/// Seconds of one segment and its number of one-second sub-windows.
double SegmentSeconds(const Options& o) { return o.seconds / kSegments; }
int SegmentSlices(const Options& o) {
  return std::max(1, static_cast<int>(std::lround(SegmentSeconds(o))));
}

/// The median sub-window throughput of a segment.
double MedianQps(const Window& win) {
  std::vector<double> qps;
  for (const Slice& slice : win.slices) {
    qps.push_back(static_cast<double>(slice.texts) / slice.seconds);
  }
  return Median(qps);
}

int RunEndToEnd(const Options& o, const Workload& w) {
  const std::string dir = o.workdir + "/live";
  std::vector<double> setups, slice_qps, slice_p50, slice_p99, segment_p99,
      recoveries;
  uint64_t attempted = 0, failed = 0, texts = 0, samples = 0, validated = 0;
  double window_s = 0, rss_mb = 0;
  size_t pending_at_crash = 0;
  std::ostringstream recovery_phases;
  Checkpoint first;
  Rig s;
  for (int segment = 0; segment < kSegments; ++segment) {
    setups.push_back(SetUp(w, dir, nullptr, &s));
    const Window win =
        Measure(w, &s, SegmentSeconds(o), SegmentSlices(o), [] {});
    PrintCheck("segment" + std::to_string(segment), win.check);
    if (segment == 0) {
      first = win.check;
      rss_mb = win.rss_mb;
    } else if (win.check.digest != first.digest ||
               win.check.wal_records != first.wal_records ||
               win.check.wal_bytes != first.wal_bytes) {
      Fail("segments of one seed diverge at the checkpoint");
    }
    attempted += win.attempted;
    failed += win.failed;
    texts += win.texts;
    window_s += win.seconds;
    validated += s.client->validated();
    // Every metric of the window is a median over all sub-windows, so a
    // burst of host noise shorter than half the run moves none of them.
    const std::vector<double>& lat = *s.client->latencies_ms();
    for (const Slice& slice : win.slices) {
      const std::vector<double> part(lat.begin() + slice.lat_begin,
                                     lat.begin() + slice.lat_end);
      slice_qps.push_back(static_cast<double>(slice.texts) / slice.seconds);
      slice_p50.push_back(Percentile(part, 0.50));
      slice_p99.push_back(Percentile(part, 0.99));
    }
    samples += lat.size();
    segment_p99.push_back(Percentile(lat, 0.99));
    // Every segment ends in a crash and timed recoveries from untouched
    // copies of the crash directory, so the recoveries sample host noise
    // across the whole run too.
    const PreCrash pre = RunTailAndCrash(w, &s);
    pending_at_crash = pre.pending.size();
    for (int r = 0; r < kRecoveries; ++r) {
      const RecoveryTimes t = Recover(w, dir, o.workdir + "/recovered", pre);
      recoveries.push_back(t.total_s);
      recovery_phases << t.read_state_s << "/" << t.rebuild_db_s << "/"
                      << t.recover_s << ",";
    }
  }
  fs::remove_all(dir);
  const double failed_share =
      static_cast<double>(failed) / static_cast<double>(attempted);
  std::cout << "summary workload=" << w.name << " seed=" << o.seed
            << " window_s=" << window_s << " texts=" << texts
            << " latency_samples=" << samples << " validated=" << validated
            << " pending_at_crash=" << pending_at_crash
            << " failed_share=" << failed_share << "\n";
  std::cout << "detail segment_p99=";
  for (double x : segment_p99) std::cout << x << ",";
  std::cout << " setups=";
  for (double x : setups) std::cout << x << ",";
  std::cout << " recoveries=";
  for (double x : recoveries) std::cout << x << ",";
  std::cout << " recovery_phases=" << recovery_phases.str();
  std::cout << " slices_qps=";
  for (double q : slice_qps) std::cout << static_cast<int>(q) << ",";
  std::cout << "\n";
  PrintResult(true, attempted, failed,
              {{"throughput_qps", Median(slice_qps), "1/s"},
               {"delivery_p50_ms", Median(slice_p50), "ms"},
               {"delivery_p99_ms", Median(slice_p99), "ms"},
               {"recovery_s", Median(recoveries), "s"},
               {"setup_s", Median(setups), "s"},
               {"peak_rss_mb", rss_mb, "MB"},
               {"ok_share", 1.0 - failed_share, "share"}});
  return 0;
}

// ---- --trace 1 -------------------------------------------------------------

int RunTraced(const Options& o, const Workload& w) {
  const std::string dir = o.workdir + "/live";
  // Untraced pass: the reference for transparency and overhead.  The
  // first set-up is discarded: it warms the process (allocator, global
  // symbol interner), so the untraced and the traced segment both run
  // in a warm process.  Each pass is a single segment of a fifth of
  // --seconds, so trace.overhead_ratio compares one segment with one.
  Rig plain;
  SetUp(w, dir, nullptr, &plain);
  SetUp(w, dir, nullptr, &plain);
  const Window base =
      Measure(w, &plain, SegmentSeconds(o), SegmentSlices(o), [] {});
  PrintCheck("untraced", base.check);
  plain.Reset();

  SpanClock clock;
  Rig s;
  SetUp(w, dir, &clock, &s);
  Stack* st = s.stack.get();
  const entangled::EngineStats e0 = st->engine->StatsSnapshot();
  const entangled::ShardedStats h0 = st->engine->sharded_stats();
  const uint64_t q0 = st->db.stats().conjunctive_queries;
  const uint64_t r0 = st->db.stats().rows_matched;
  const entangled::WalStats wal0 = st->durable->wal_stats();
  const uint64_t events0 = s.events_routed;
  clock.Reset();
  st->upper->ResetTotals();
  st->lower->ResetTotals();
  s.target->snapshot_ns = 0;
  s.target->snapshots = 0;
  std::vector<const std::string*> parsed;
  s.client->set_parse_log(&parsed);
  size_t live_shards_max = 0;
  const Window win =
      Measure(w, &s, SegmentSeconds(o), SegmentSlices(o), [&] {
        live_shards_max =
            std::max(live_shards_max, st->engine->num_live_shards());
      });
  s.client->set_parse_log(nullptr);
  PrintCheck("traced", win.check);
  const bool transparent = win.check.digest == base.check.digest &&
                           win.check.deliveries == base.check.deliveries &&
                           win.check.wal_records == base.check.wal_records &&
                           win.check.wal_bytes == base.check.wal_bytes;
  if (!transparent) Fail("traced and untraced runs diverge at the checkpoint");

  const entangled::EngineStats e1 = st->engine->StatsSnapshot();
  const entangled::ShardedStats h1 = st->engine->sharded_stats();
  const uint64_t q1 = st->db.stats().conjunctive_queries;
  const uint64_t r1 = st->db.stats().rows_matched;
  const entangled::WalStats wal1 = st->durable->wal_stats();
  const EntryTotals up = st->upper->totals();
  const EntryTotals low = st->lower->totals();
  const double api_self = Seconds(clock.self_ns(Layer::kApi));
  const double storage_self = Seconds(clock.self_ns(Layer::kStorage));
  const double system_self = Seconds(clock.self_ns(Layer::kSystem));
  const double snapshot_s = Seconds(s.target->snapshot_ns);
  const uint64_t snapshots = s.target->snapshots;
  const uint64_t events_routed = s.events_routed - events0;
  const uint64_t interned = entangled::GlobalValueInterner().size();

  // core: the public parser over exactly the texts the window admitted.
  const int64_t p0 = NowNanos();
  {
    entangled::QuerySet scratch;
    for (const std::string* text : parsed) {
      if (!entangled::ParseQuery(*text, &scratch).ok()) Fail("parse failed");
    }
  }
  const double parse_s = Seconds(NowNanos() - p0);

  const PreCrash pre = RunTailAndCrash(w, &s);
  const RecoveryTimes rec = Recover(w, dir, o.workdir + "/recovered", pre);
  fs::remove_all(dir);

  const uint64_t sets = e1.coordinating_sets - e0.coordinating_sets;
  const uint64_t evaluations = e1.evaluations - e0.evaluations;
  const double eval_busy =
      Seconds(static_cast<int64_t>(e1.eval_latency.total_ns() -
                                   e0.eval_latency.total_ns()));
  const double flush_s = Seconds(low.flush_ns);
  const uint64_t migrated = h1.queries_migrated - h0.queries_migrated;
  const uint64_t retained = h1.queries_retained - h0.queries_retained;
  const uint64_t db_queries = q1 - q0;
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  auto count = [](uint64_t v) { return static_cast<double>(v); };
  std::cout << "summary workload=" << w.name << " seed=" << o.seed
            << " traced_qps=" << MedianQps(win)
            << " untraced_qps=" << MedianQps(base)
            << " api_calls=" << up.calls << "\n";
  PrintResult(
      true, win.attempted, win.failed,
      {{"api.self_s", api_self, "s"},
       {"api.route_s", Seconds(up.callback_ns), "s"},
       {"api.calls", count(win.attempted), "count"},
       {"api.events_routed", count(events_routed), "count"},
       {"api.rejected", count(win.failed), "count"},
       {"storage.self_s", storage_self, "s"},
       {"storage.wal_records", count(wal1.appended_records - wal0.appended_records), "count"},
       {"storage.wal_bytes_per_text_byte",
        ratio(count(wal1.bytes - wal0.bytes), count(win.text_bytes)), "ratio"},
       {"storage.fsyncs", count(wal1.fsyncs - wal0.fsyncs), "count"},
       {"storage.snapshots", count(snapshots), "count"},
       {"storage.snapshot_s", snapshot_s, "s"},
       {"storage.read_state_s", rec.read_state_s, "s"},
       {"storage.rebuild_db_s", rec.rebuild_db_s, "s"},
       {"storage.recover_s", rec.recover_s, "s"},
       {"storage.replayed_events", count(rec.replayed_events), "count"},
       {"storage.recovered_pending", count(rec.recovered_pending), "count"},
       {"system.self_s", system_self, "s"},
       {"system.submit_s", Seconds(low.submit_ns), "s"},
       {"system.flush_s", flush_s, "s"},
       {"system.cancel_s", Seconds(low.cancel_ns), "s"},
       {"system.evaluations", count(evaluations), "count"},
       {"system.evaluations_avoided",
        count(e1.evaluations_avoided - e0.evaluations_avoided), "count"},
       {"system.useful_eval_ratio", ratio(count(sets), count(evaluations)), "ratio"},
       {"system.group_merges", count(h1.group_merges - h0.group_merges), "count"},
       {"system.queries_migrated", count(migrated), "count"},
       {"system.migrated_ratio", ratio(count(migrated), count(migrated + retained)), "ratio"},
       {"system.shards_created", count(h1.shards_created - h0.shards_created), "count"},
       {"system.shards_gced", count(h1.shards_gced - h0.shards_gced), "count"},
       {"system.live_shards_max", count(live_shards_max), "count"},
       {"algo.eval_busy_s", eval_busy, "s"},
       {"algo.eval_count",
        count(e1.eval_latency.count() - e0.eval_latency.count()), "count"},
       {"algo.memo_hits", count(e1.eval_cache_hits - e0.eval_cache_hits), "count"},
       {"algo.parallel_efficiency", ratio(eval_busy, flush_s), "ratio"},
       {"db.conjunctive_queries", count(db_queries), "count"},
       {"db.rows_matched", count(r1 - r0), "count"},
       {"db.queries_per_set", ratio(count(db_queries), count(sets)), "ratio"},
       {"core.parse_s", parse_s, "s"},
       {"common.interned_symbols", count(interned), "count"},
       {"trace.overhead_ratio", ratio(MedianQps(win), MedianQps(base)), "ratio"}});
  return 0;
}

// ---- --oracle-check --------------------------------------------------------

int RunOracleCheck(const Options& o, const Workload& w) {
  const size_t steps = o.steps > 0 ? o.steps : w.ring.size();
  const std::string dir = o.workdir + "/oracle";
  std::vector<std::string> stack_log, oracle_log;
  {
    Rig s;
    ResetDir(dir);
    s.stack = std::make_unique<Stack>();
    w.build_db(&s.stack->db);
    entangled::Status wired = WireStack(s.stack.get(), w, dir, nullptr);
    if (!wired.ok()) Fail(wired.ToString());
    s.target = std::make_unique<StackTarget>(s.stack.get(), nullptr);
    s.client = std::make_unique<Client>(w, s.target.get());
    ConnectSessions(s.stack.get(), s.client.get());
    s.client->set_validator(&s.stack->db, s.stack->engine.get());
    s.client->set_transcript(&stack_log);
    s.client->Preload();
    for (size_t i = 0; i < steps; ++i) s.Step();
    if (s.client->failed() != 0) Fail("stack run had failed operations");
  }
  fs::remove_all(dir);
  {
    Database db;
    w.build_db(&db);
    OracleTarget target(&db, w.evaluate_every);
    Client client(w, &target);
    target.engine->set_delivery_callback([&client](const Delivery& d) {
      client.OnDelivery(std::make_shared<const Delivery>(d));
    });
    client.set_transcript(&oracle_log);
    client.Preload();
    for (size_t i = 0; i < steps; ++i) client.Step();
    if (client.failed() != 0) Fail("oracle run had failed operations");
  }
  if (stack_log.empty()) Fail("no deliveries to compare");
  for (size_t i = 0; i < std::max(stack_log.size(), oracle_log.size()); ++i) {
    if (i >= stack_log.size() || i >= oracle_log.size() ||
        stack_log[i] != oracle_log[i]) {
      std::cerr << "first divergence at delivery " << i << "\nstack:\n"
                << (i < stack_log.size() ? stack_log[i] : "<none>")
                << "\noracle:\n"
                << (i < oracle_log.size() ? oracle_log[i] : "<none>") << "\n";
      Fail("stack and oracle delivery streams differ");
    }
  }
  std::cout << "oracle-check " << w.name << " seed=" << o.seed
            << " steps=" << steps << " deliveries=" << stack_log.size()
            << " identical\n";
  return 0;
}

Options ParseArgs(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--oracle-check") {
      o.oracle_check = true;
      continue;
    }
    if (i + 1 >= argc) Fail("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      o.seconds = std::stod(value);
    } else if (flag == "--trace") {
      o.trace = std::stoi(value);
    } else if (flag == "--workdir") {
      o.workdir = value;
    } else if (flag == "--scale") {
      o.scale = std::stod(value);
    } else if (flag == "--steps") {
      o.steps = std::stoul(value);

    } else {
      Fail("unknown flag " + flag);
    }
  }
  if (o.seconds <= 0 || o.scale <= 0 || o.scale > 1 ||
      (o.trace != 0 && o.trace != 1)) {
    Fail("bad --seconds/--scale/--trace");
  }
  return o;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options o = ParseArgs(argc, argv);
  Workload w;
  if (!MakeWorkload(o.workload, o.seed, o.scale, &w)) {
    Fail("unknown workload '" + o.workload + "'");
  }
  std::cout << "workload " << w.name << ": " << w.summary << "\n";
  if (o.oracle_check) return RunOracleCheck(o, w);
  PrintHost();
  const int rc = o.trace == 1 ? RunTraced(o, w) : RunEndToEnd(o, w);
  std::filesystem::remove_all(o.workdir);
  return rc;
}
