// The benchmark's two workloads, each a deterministic function of the
// seed: a fact database, an optional resident backlog, and a ring of
// steps the driver cycles through for as long as it measures.
//
// Every ring is built so that cycling it is indistinguishable from an
// endless fresh stream: a query text reappears only after every query
// that carried its symbols has been delivered or cancelled, so the
// service's pending state, and with it the cost per step, stays
// stationary however long a run lasts.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "db/database.h"

namespace perfbench {

struct Step {
  enum class Kind : uint8_t { kSubmit, kBatch, kCancel, kFlush };
  Kind kind = Kind::kFlush;
  std::vector<std::string> texts;  ///< kSubmit: one text; kBatch: several
  size_t session = 0;              ///< submitting session
  size_t cancel_rank = 0;          ///< kCancel: rank among stream-pending
};

struct Workload {
  std::string name;
  std::function<void(entangled::Database*)> build_db;
  size_t sessions = 1;
  size_t evaluate_every = 1;
  /// A session cancels its query once this many further query texts
  /// have arrived and it is still pending (0 = no patience).
  size_t patience = 0;
  /// SnapshotNow() after every this many steps (0 = never).
  size_t snapshot_every = 0;
  /// Resident texts admitted during set-up, in batches, with automatic
  /// evaluation off, then flushed once.
  std::vector<std::string> backlog;
  std::vector<Step> ring;
  size_t warmup_steps = 0;  ///< untimed prefix, part of set-up
  size_t check_steps = 0;   ///< timed steps covered by the digest check
  size_t tail_steps = 0;    ///< untimed steps between snapshot and crash
  /// Human-readable size summary printed with every run.
  std::string summary;
};

/// Builds workload `name` from `seed`.  `scale` in (0, 1] shrinks
/// merge_backlog's resident backlog and ring chunks (the self-test runs
/// the from-scratch oracle, which is quadratic in pending queries).
/// Returns false on an unknown name.
bool MakeWorkload(const std::string& name, uint64_t seed, double scale,
                  Workload* out);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
