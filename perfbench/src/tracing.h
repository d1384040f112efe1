// Layer tracing from outside the program: a span stack that turns
// nested, timed calls into per-layer self time, and a transparent
// CoordinationService decorator that opens a span around every call it
// forwards and around every delivery it passes back up.
//
// The traced stack is
//
//   driver -> SessionManager -> TimingService(storage) ->
//     DurableCoordinationService -> TimingService(system) ->
//     ShardedCoordinationEngine
//
// so a span of layer L covers the time spent below the decorator that
// opened it, and a delivery callback span re-enters the layer above.
// A layer's self time is its spans' durations minus the time their
// child spans cover.

#ifndef PERFBENCH_TRACING_H_
#define PERFBENCH_TRACING_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "system/engine.h"

namespace perfbench {

inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class Layer : uint8_t { kApi, kStorage, kSystem };
inline constexpr size_t kNumLayers = 3;

/// Self-time accounting over nested spans (single-threaded, like the
/// session API it observes).
class SpanClock {
 public:
  void Enter(Layer layer) { stack_.push_back({layer, NowNanos(), 0}); }

  /// Closes the innermost span; returns its duration.
  int64_t Exit() {
    const Frame frame = stack_.back();
    stack_.pop_back();
    const int64_t duration = NowNanos() - frame.start;
    self_ns_[static_cast<size_t>(frame.layer)] += duration - frame.child_ns;
    if (!stack_.empty()) stack_.back().child_ns += duration;
    return duration;
  }

  int64_t self_ns(Layer layer) const {
    return self_ns_[static_cast<size_t>(layer)];
  }
  void Reset() { self_ns_ = {}; }

 private:
  struct Frame {
    Layer layer;
    int64_t start;
    int64_t child_ns;
  };
  std::vector<Frame> stack_;
  std::array<int64_t, kNumLayers> self_ns_{};
};

/// RAII span on a SpanClock; a null clock (untraced runs) records
/// nothing.
class Span {
 public:
  Span(SpanClock* clock, Layer layer) : clock_(clock) {
    if (clock_ != nullptr) clock_->Enter(layer);
  }
  ~Span() {
    if (clock_ != nullptr) clock_->Exit();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanClock* clock_;
};

/// Per-entry-point totals of one TimingService: time below the
/// decorator excluding the delivery callbacks that ran inside it.
struct EntryTotals {
  int64_t submit_ns = 0;
  int64_t cancel_ns = 0;
  int64_t flush_ns = 0;
  int64_t other_ns = 0;    ///< reads, cadence, tags, counters
  int64_t callback_ns = 0; ///< delivery callbacks passed upward
  uint64_t calls = 0;
};

/// Transparent decorator: forwards all 17 CoordinationService virtuals
/// to `inner` unchanged, timing each under `below` and each upward
/// delivery under `above`.
class TimingService : public entangled::CoordinationService {
 public:
  TimingService(entangled::CoordinationService* inner, SpanClock* clock,
                Layer below, Layer above)
      : inner_(inner), clock_(clock), below_(below), above_(above) {}

  void set_delivery_callback(DeliveryCallback callback) override {
    Timed t(this, &totals_.other_ns);
    inner_->set_delivery_callback(
        [this, callback = std::move(callback)](const entangled::Delivery& d) {
          const int64_t start = NowNanos();
          {
            Span span(clock_, above_);
            if (callback) callback(d);
          }
          totals_.callback_ns += NowNanos() - start;
        });
  }
  void set_evaluate_every(size_t evaluate_every) override {
    Timed t(this, &totals_.other_ns);
    inner_->set_evaluate_every(evaluate_every);
  }
  entangled::Result<entangled::QueryId> Submit(
      const std::string& query_text) override {
    Timed t(this, &totals_.submit_ns);
    return inner_->Submit(query_text);
  }
  entangled::Result<std::vector<entangled::QueryId>> SubmitBatch(
      const std::vector<std::string>& query_texts) override {
    Timed t(this, &totals_.submit_ns);
    return inner_->SubmitBatch(query_texts);
  }
  bool Cancel(entangled::QueryId id) override {
    Timed t(this, &totals_.cancel_ns);
    return inner_->Cancel(id);
  }
  size_t Flush() override {
    Timed t(this, &totals_.flush_ns);
    return inner_->Flush();
  }
  std::vector<entangled::QueryId> PendingQueries() const override {
    Timed t(this, &totals_.other_ns);
    return inner_->PendingQueries();
  }
  bool IsPending(entangled::QueryId id) const override {
    Timed t(this, &totals_.other_ns);
    return inner_->IsPending(id);
  }
  size_t num_pending() const override {
    Timed t(this, &totals_.other_ns);
    return inner_->num_pending();
  }
  std::vector<entangled::QueryId> ComponentOf(
      entangled::QueryId id) const override {
    Timed t(this, &totals_.other_ns);
    return inner_->ComponentOf(id);
  }
  bool AdmitsDeferred() const override {
    Timed t(this, &totals_.other_ns);
    return inner_->AdmitsDeferred();
  }
  entangled::EngineStats StatsSnapshot() const override {
    Timed t(this, &totals_.other_ns);
    return inner_->StatsSnapshot();
  }
  size_t IntakeDepth() const override {
    Timed t(this, &totals_.other_ns);
    return inner_->IntakeDepth();
  }
  entangled::ServiceGauges GaugesSnapshot() const override {
    Timed t(this, &totals_.other_ns);
    return inner_->GaugesSnapshot();
  }
  void RestoreCadencePhase(size_t phase) override {
    Timed t(this, &totals_.other_ns);
    inner_->RestoreCadencePhase(phase);
  }
  void set_session_tag(int64_t tag) override {
    Timed t(this, &totals_.other_ns);
    inner_->set_session_tag(tag);
  }
  void AppendCounters(std::vector<std::pair<std::string, uint64_t>>* counters)
      const override {
    Timed t(this, &totals_.other_ns);
    inner_->AppendCounters(counters);
  }

  const EntryTotals& totals() const { return totals_; }
  void ResetTotals() { totals_ = EntryTotals{}; }

 private:
  /// One forwarded call: a span of the layer below, and its duration
  /// minus the upward callbacks it triggered added to `*sink`.
  class Timed {
   public:
    Timed(const TimingService* owner, int64_t* sink)
        : owner_(owner),
          sink_(sink),
          callback_before_(owner->totals_.callback_ns),
          start_(NowNanos()) {
      owner_->clock_->Enter(owner_->below_);
      ++owner_->totals_.calls;
    }
    ~Timed() {
      owner_->clock_->Exit();
      *sink_ += NowNanos() - start_ -
                (owner_->totals_.callback_ns - callback_before_);
    }
    Timed(const Timed&) = delete;
    Timed& operator=(const Timed&) = delete;

   private:
    const TimingService* owner_;
    int64_t* sink_;
    int64_t callback_before_;
    int64_t start_;
  };

  entangled::CoordinationService* inner_;
  SpanClock* clock_;
  Layer below_;
  Layer above_;
  mutable EntryTotals totals_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACING_H_
