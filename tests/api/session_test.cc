// Coverage for the session front door (api/session.h): typed submit
// outcomes, per-session ownership and cancellation, cross-session
// delivery routing, push-vs-poll stream equality, session teardown, and
// the same behaviour over the sharded engine.

#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/session.h"
#include "common/metrics.h"
#include "system/engine.h"
#include "system/sharded_engine.h"
#include "workload/social_data.h"

namespace entangled {
namespace {

uint64_t Counter(const MetricsSnapshot& snap, const std::string& name) {
  for (const auto& [key, value] : snap.counters) {
    if (key == name) return value;
  }
  ADD_FAILURE() << "no counter named " << name;
  return 0;
}

const LatencyHistogram& Histogram(const MetricsSnapshot& snap,
                                  const std::string& name) {
  for (const auto& [key, hist] : snap.latency) {
    if (key == name) return hist;
  }
  static const LatencyHistogram kEmpty;
  ADD_FAILURE() << "no histogram named " << name;
  return kEmpty;
}

class SessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(InstallSocialTable(&db_, "Users", 32).ok());
  }

  static std::string PairA(const std::string& rel) {
    return "a_" + rel + ": { " + rel + "(Bob, x) } " + rel +
           "(Alice, x) :- Users(x, 'user3').";
  }
  static std::string PairB(const std::string& rel) {
    return "b_" + rel + ": { " + rel + "(Alice, y) } " + rel +
           "(Bob, y) :- Users(y, 'user3').";
  }
  static std::string Stuck(const std::string& tag) {
    return "s_" + tag + ": { S(Never" + tag + ", x) } S(" + tag +
           ", x) :- Users(x, 'user7').";
  }

  Database db_;
};

// ---------------------------------------------------------------------------
// Typed outcomes
// ---------------------------------------------------------------------------

TEST_F(SessionTest, TypedRejectionReasons) {
  CoordinationEngine engine(&db_);
  SessionManager manager(&engine);
  ClientSession* session = manager.Open();

  // Parse error.
  SubmitOutcome bad = session->Submit("not a query");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.reason, RejectReason::kParseError);
  EXPECT_FALSE(bad.message.empty());
  EXPECT_STREQ(RejectReasonName(bad.reason), "parse_error");

  // Duplicate heads: R(A, x) and R(A, y) book the same answer slot.
  SubmitOutcome dup = session->Submit(
      "dup: { } R(A, x), R(A, y) :- Users(x, 'user1'), Users(y, 'user1').");
  EXPECT_EQ(dup.reason, RejectReason::kDuplicateHead);

  // Self-unsafe: the postcondition R(p, q) unifies with both own heads
  // (which are not unifiable with each other — A vs B).
  SubmitOutcome unsafe = session->Submit(
      "selfunsafe: { R(p, q) } R(A, x), R(B, y) :- Users(x, 'user1'), "
      "Users(y, 'user1').");
  EXPECT_EQ(unsafe.reason, RejectReason::kUnsafe);

  // Nothing defective was admitted.
  EXPECT_EQ(manager.StatsSnapshot().submitted, 0u);
  EXPECT_EQ(session->num_pending(), 0u);
}

TEST_F(SessionTest, BatchOutcomeNamesTheOffendingText) {
  CoordinationEngine engine(&db_);
  SessionManager manager(&engine);
  ClientSession* session = manager.Open();

  BatchOutcome outcome = session->SubmitBatch(
      {PairA("P"), "garbage in the middle", PairB("P")});
  EXPECT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.reason, RejectReason::kParseError);
  EXPECT_EQ(outcome.rejected_index, 1u);
  // All-or-nothing: nothing from the batch landed.
  EXPECT_EQ(manager.num_pending(), 0u);
  EXPECT_EQ(session->num_pending(), 0u);

  BatchOutcome good = session->SubmitBatch({PairA("P"), PairB("P")});
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.ids.size(), 2u);
  // The pair coordinated inside the batch flush: one event, no pending.
  EXPECT_EQ(session->num_buffered_events(), 1u);
  EXPECT_EQ(session->num_pending(), 0u);
}

TEST_F(SessionTest, ClosedSessionRejectsSubmissions) {
  CoordinationEngine engine(&db_);
  SessionManager manager(&engine);
  ClientSession* session = manager.Open();
  ASSERT_TRUE(session->Submit(Stuck("T0")).ok());
  ASSERT_EQ(manager.num_pending(), 1u);

  session->Close();
  EXPECT_FALSE(session->open());
  // Teardown bulk-cancelled the pending query, in the engine too.
  EXPECT_EQ(manager.num_pending(), 0u);
  EXPECT_EQ(manager.StatsSnapshot().cancelled, 1u);

  SubmitOutcome rejected = session->Submit(Stuck("T1"));
  EXPECT_EQ(rejected.reason, RejectReason::kSessionClosed);
  EXPECT_EQ(session->SubmitBatch({Stuck("T1")}).reason,
            RejectReason::kSessionClosed);
  EXPECT_EQ(manager.num_open_sessions(), 0u);
  EXPECT_FALSE(manager.Close(session->id()));  // already closed
}

// ---------------------------------------------------------------------------
// Ownership & routing
// ---------------------------------------------------------------------------

TEST_F(SessionTest, CoordinatingSetSpanningSessionsNotifiesEveryOwner) {
  EngineOptions options;
  options.evaluate_every = 0;
  CoordinationEngine engine(&db_, options);
  SessionManager manager(&engine);
  ClientSession* alice = manager.Open({/*label=*/"alice"});
  ClientSession* bob = manager.Open({/*label=*/"bob"});

  SubmitOutcome a = alice->Submit(PairA("P"));
  SubmitOutcome b = bob->Submit(PairB("P"));
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(manager.OwnerOf(a.id), alice->id());
  EXPECT_EQ(manager.OwnerOf(b.id), bob->id());

  EXPECT_EQ(manager.Flush(), 1u);
  std::vector<SessionEvent> alice_events = alice->PollEvents();
  std::vector<SessionEvent> bob_events = bob->PollEvents();
  ASSERT_EQ(alice_events.size(), 1u);
  ASSERT_EQ(bob_events.size(), 1u);
  // Both observe the same self-contained event...
  EXPECT_EQ(alice_events[0].delivery->QueryIds(),
            (std::vector<QueryId>{a.id, b.id}));
  EXPECT_EQ(alice_events[0].delivery->sequence,
            bob_events[0].delivery->sequence);
  // ...each with its own slice.
  EXPECT_EQ(alice_events[0].own_queries, (std::vector<QueryId>{a.id}));
  EXPECT_EQ(bob_events[0].own_queries, (std::vector<QueryId>{b.id}));
  // Ownership survives retirement (operator introspection).
  EXPECT_EQ(manager.OwnerOf(a.id), alice->id());
}

TEST_F(SessionTest, CancelIsOwnershipScoped) {
  CoordinationEngine engine(&db_);
  SessionManager manager(&engine);
  ClientSession* alice = manager.Open();
  ClientSession* bob = manager.Open();
  SubmitOutcome stuck = alice->Submit(Stuck("T0"));
  ASSERT_TRUE(stuck.ok());

  EXPECT_FALSE(bob->Cancel(stuck.id));   // not bob's query
  EXPECT_TRUE(manager.service()->IsPending(stuck.id));
  EXPECT_TRUE(alice->Cancel(stuck.id));  // the owner may withdraw
  EXPECT_FALSE(manager.service()->IsPending(stuck.id));
  EXPECT_FALSE(alice->Cancel(stuck.id));  // no longer pending
}

TEST_F(SessionTest, ImmediateDeliveryDuringSubmitIsRoutedToSubmitter) {
  CoordinationEngine engine(&db_);  // evaluate_every = 1
  SessionManager manager(&engine);
  ClientSession* session = manager.Open();
  // The loner coordinates *inside* Submit — before the session even
  // learns the id — and must still land in this session's stream.
  SubmitOutcome solo = session->Submit("solo: { } K(w) :- Users(w, 'user5').");
  ASSERT_TRUE(solo.ok());
  EXPECT_EQ(session->num_pending(), 0u);
  std::vector<SessionEvent> events = session->PollEvents();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].own_queries, (std::vector<QueryId>{solo.id}));
  EXPECT_EQ(manager.OwnerOf(solo.id), session->id());
}

// ---------------------------------------------------------------------------
// Push vs pull
// ---------------------------------------------------------------------------

TEST_F(SessionTest, PushStreamEqualsPollDrain) {
  EngineOptions options;
  options.evaluate_every = 0;
  CoordinationEngine engine(&db_, options);
  SessionManager manager(&engine);
  ClientSession* session = manager.Open();
  std::vector<uint64_t> pushed;
  session->set_event_callback([&](const SessionEvent& event) {
    pushed.push_back(event.delivery->sequence);
  });

  ASSERT_TRUE(session->Submit(PairA("P")).ok());
  ASSERT_TRUE(session->Submit(PairB("P")).ok());
  ASSERT_TRUE(session->Submit("solo: { } K(w) :- Users(w, 'user5').").ok());
  EXPECT_EQ(manager.Flush(), 2u);

  std::vector<SessionEvent> polled = session->PollEvents();
  ASSERT_EQ(polled.size(), pushed.size());
  for (size_t i = 0; i < polled.size(); ++i) {
    EXPECT_EQ(polled[i].delivery->sequence, pushed[i]);
  }
  // The drain consumed the buffer.
  EXPECT_TRUE(session->PollEvents().empty());
  EXPECT_EQ(session->deliveries(), 2u);
}

// ---------------------------------------------------------------------------
// Sessions over the sharded front door
// ---------------------------------------------------------------------------

TEST_F(SessionTest, WorksUnchangedOverShardedEngine) {
  ShardedEngineOptions options;
  options.engine.evaluate_every = 0;
  ShardedCoordinationEngine engine(&db_, options);
  SessionManager manager(&engine);
  ClientSession* alice = manager.Open();
  ClientSession* bob = manager.Open();

  // Two pairs in footprint-disjoint relations: distinct shards, both
  // sessions entangled with each other in both.
  SubmitOutcome p1 = alice->Submit(PairA("P"));
  SubmitOutcome p2 = bob->Submit(PairB("P"));
  SubmitOutcome q1 = bob->Submit(PairA("Q"));
  SubmitOutcome q2 = alice->Submit(PairB("Q"));
  ASSERT_TRUE(p1.ok() && p2.ok() && q1.ok() && q2.ok());
  EXPECT_EQ(manager.Flush(), 2u);

  std::vector<SessionEvent> alice_events = alice->PollEvents();
  std::vector<SessionEvent> bob_events = bob->PollEvents();
  ASSERT_EQ(alice_events.size(), 2u);
  ASSERT_EQ(bob_events.size(), 2u);
  // Cross-shard deliveries arrive merged by global schedule key, so
  // both sessions observe the same order: P's set first.
  EXPECT_EQ(alice_events[0].delivery->QueryIds(),
            (std::vector<QueryId>{p1.id, p2.id}));
  EXPECT_EQ(alice_events[1].delivery->QueryIds(),
            (std::vector<QueryId>{q1.id, q2.id}));
  EXPECT_EQ(alice_events[0].own_queries, (std::vector<QueryId>{p1.id}));
  EXPECT_EQ(alice_events[1].own_queries, (std::vector<QueryId>{q2.id}));
  EXPECT_EQ(bob_events[0].own_queries, (std::vector<QueryId>{p2.id}));

  // Session teardown bulk-cancels across shards.
  SubmitOutcome s0 = alice->Submit(Stuck("T0"));
  SubmitOutcome s1 = alice->Submit("s_U: { U(NeverU, x) } U(TU, x) :- "
                                   "Users(x, 'user7').");
  ASSERT_TRUE(s0.ok() && s1.ok());
  ASSERT_EQ(manager.num_pending(), 2u);
  manager.Close(alice->id());
  EXPECT_EQ(manager.num_pending(), 0u);
  EXPECT_EQ(manager.StatsSnapshot().cancelled, 2u);
}

// ---------------------------------------------------------------------------
// Admission quotas
// ---------------------------------------------------------------------------

TEST_F(SessionTest, PendingQuotaBouncesTyped) {
  CoordinationEngine engine(&db_);
  SessionManager manager(&engine);
  SessionOptions quota;
  quota.max_pending = 2;
  ClientSession* session = manager.Open(quota);

  SubmitOutcome first = session->Submit(Stuck("T0"));
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(session->Submit(Stuck("T1")).ok());
  SubmitOutcome third = session->Submit(Stuck("T2"));
  EXPECT_EQ(third.reason, RejectReason::kQuotaPending);
  EXPECT_FALSE(third.message.empty());
  // The bounce happened before the service saw the text.
  EXPECT_EQ(manager.StatsSnapshot().submitted, 2u);

  // Quotas are per-session: another tenant is unaffected.
  ClientSession* other = manager.Open();
  EXPECT_TRUE(other->Submit(Stuck("T3")).ok());

  // A batch is all-or-nothing against the quota: one free slot does not
  // admit a batch of two, but still admits a single.
  ASSERT_TRUE(session->Cancel(first.id));
  EXPECT_EQ(session->SubmitBatch({Stuck("T4"), Stuck("T5")}).reason,
            RejectReason::kQuotaPending);
  EXPECT_EQ(session->num_pending(), 1u);
  EXPECT_TRUE(session->Submit(Stuck("T6")).ok());
}

TEST_F(SessionTest, RateQuotaIsATokenBucketOnTheInjectedClock) {
  uint64_t now = 0;
  ManagerOptions manager_options;
  manager_options.clock_nanos = [&now] { return now; };
  CoordinationEngine engine(&db_);
  SessionManager manager(&engine, manager_options);
  SessionOptions quota;
  quota.max_queries_per_sec = 2.0;  // burst = 2 tokens
  ClientSession* session = manager.Open(quota);

  // The bucket primes full: the burst passes, then the bucket is dry.
  ASSERT_TRUE(session->Submit(Stuck("T0")).ok());
  ASSERT_TRUE(session->Submit(Stuck("T1")).ok());
  SubmitOutcome dry = session->Submit(Stuck("T2"));
  EXPECT_EQ(dry.reason, RejectReason::kQuotaRate);

  now += 250'000'000;  // 0.25 s at 2/s = half a token: still short
  EXPECT_EQ(session->Submit(Stuck("T2")).reason, RejectReason::kQuotaRate);
  now += 250'000'000;  // a full token has now accrued
  ASSERT_TRUE(session->Submit(Stuck("T2")).ok());

  // Tokens are spent only on accepted submissions: a rejected text
  // leaves the budget intact for the next valid one.
  now += 500'000'000;  // one token
  EXPECT_EQ(session->Submit("not a query").reason, RejectReason::kParseError);
  ASSERT_TRUE(session->Submit(Stuck("T3")).ok());

  // A batch costs one token per member, all-or-nothing.
  now += 500'000'000;  // one token: a batch of two must wait
  EXPECT_EQ(session->SubmitBatch({Stuck("T4"), Stuck("T5")}).reason,
            RejectReason::kQuotaRate);
  now += 500'000'000;  // two tokens (the burst cap)
  EXPECT_TRUE(session->SubmitBatch({Stuck("T4"), Stuck("T5")}).ok());
}

TEST_F(SessionTest, FootprintQuotaBoundsBodyWidth) {
  CoordinationEngine engine(&db_);
  SessionManager manager(&engine);
  SessionOptions quota;
  quota.max_body_atoms = 1;
  ClientSession* session = manager.Open(quota);

  const std::string wide =
      "wide: { } R(x, y) :- Users(x, 'user1'), Users(y, 'user2').";
  ASSERT_TRUE(session->Submit(Stuck("T0")).ok());  // one body atom: fits
  SubmitOutcome bounced = session->Submit(wide);
  EXPECT_EQ(bounced.reason, RejectReason::kQuotaFootprint);
  EXPECT_FALSE(bounced.message.empty());

  // In a batch the offending position is named and nothing lands.
  BatchOutcome batch = session->SubmitBatch({Stuck("T1"), wide});
  EXPECT_EQ(batch.reason, RejectReason::kQuotaFootprint);
  EXPECT_EQ(batch.rejected_index, 1u);
  EXPECT_EQ(session->num_pending(), 1u);
}

TEST_F(SessionTest, GlobalPendingCeilingSpansSessions) {
  ManagerOptions manager_options;
  manager_options.global_pending_ceiling = 2;
  CoordinationEngine engine(&db_);
  SessionManager manager(&engine, manager_options);
  ClientSession* alice = manager.Open();
  ClientSession* bob = manager.Open();

  SubmitOutcome first = alice->Submit(Stuck("T0"));
  SubmitOutcome second = alice->Submit(Stuck("T1"));
  ASSERT_TRUE(first.ok() && second.ok());
  // Bob has no per-session quota, but the manager-wide ceiling is hit.
  EXPECT_EQ(bob->Submit(Stuck("T2")).reason, RejectReason::kQuotaPending);

  // Cancellation frees global capacity.
  ASSERT_TRUE(alice->Cancel(first.id));
  SubmitOutcome third = bob->Submit(Stuck("T2"));
  ASSERT_TRUE(third.ok());

  // Delivery frees capacity too: with the ceiling clear, a pair that
  // coordinates inside Submit occupies its slots only until delivery.
  ASSERT_TRUE(alice->Cancel(second.id));
  ASSERT_TRUE(bob->Cancel(third.id));
  ASSERT_TRUE(alice->Submit(PairA("P")).ok());
  ASSERT_TRUE(alice->Submit(PairB("P")).ok());  // coordinates; slots free
  EXPECT_EQ(manager.num_pending(), 0u);
  EXPECT_TRUE(alice->Submit(Stuck("T3")).ok());
  EXPECT_TRUE(bob->Submit(Stuck("T4")).ok());
}

// ---------------------------------------------------------------------------
// Overload shedding
// ---------------------------------------------------------------------------

TEST_F(SessionTest, SheddingEngagesAtHighWaterAndRecoversAtLowWater) {
  ManagerOptions manager_options;
  manager_options.shed_high_water = 4;  // low water defaults to 2
  CoordinationEngine engine(&db_);
  SessionManager manager(&engine, manager_options);
  ClientSession* session = manager.Open();

  std::vector<QueryId> ids;
  for (int i = 0; i < 4; ++i) {
    SubmitOutcome outcome = session->Submit(Stuck("T" + std::to_string(i)));
    ASSERT_TRUE(outcome.ok()) << outcome.message;
    ids.push_back(outcome.id);
  }
  EXPECT_FALSE(manager.shedding());

  // The fifth submission finds pending at the high-water mark: shed.
  SubmitOutcome shed = session->Submit(Stuck("T4"));
  EXPECT_EQ(shed.reason, RejectReason::kOverloaded);
  EXPECT_TRUE(manager.shedding());

  // Hysteresis: one cancel is not recovery (3 > low water 2)...
  ASSERT_TRUE(session->Cancel(ids[0]));
  EXPECT_EQ(session->Submit(Stuck("T4")).reason, RejectReason::kOverloaded);
  // ...but draining to the low-water mark is.
  ASSERT_TRUE(session->Cancel(ids[1]));
  SubmitOutcome recovered = session->Submit(Stuck("T4"));
  EXPECT_TRUE(recovered.ok()) << recovered.message;
  EXPECT_FALSE(manager.shedding());

  MetricsSnapshot snap = manager.Metrics();
  EXPECT_EQ(Counter(snap, "shed.transitions"), 1u);
  EXPECT_EQ(Counter(snap, "reject.overloaded"), 2u);
  EXPECT_EQ(Counter(snap, "shed.events"), 2u);
  EXPECT_EQ(Counter(snap, "shed.active"), 0u);
}

// ---------------------------------------------------------------------------
// Pending-count tiling under deferred intake (regression)
// ---------------------------------------------------------------------------

TEST_F(SessionTest, DeferredIntakePendingTilesAcrossMidCallDelivery) {
  EngineOptions options;
  options.intake_capacity = 2;
  options.evaluate_every = 1;
  CoordinationEngine engine(&db_, options);
  ASSERT_TRUE(engine.AdmitsDeferred());
  SessionManager manager(&engine);
  ClientSession* session = manager.Open();

  // Two queued (validated-but-undrained) submissions count as pending
  // immediately — on the session and in the passive service gauges.
  SubmitOutcome a = session->Submit(PairA("P"));
  SubmitOutcome b = session->Submit(PairB("P"));
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(session->num_pending(), 2u);
  EXPECT_EQ(engine.GaugesSnapshot().pending, 2u);
  EXPECT_EQ(engine.GaugesSnapshot().intake_depth, 2u);

  // The third submission lands on a full ring: the service drains
  // inline and the queued pair coordinates *during this call*.  The
  // session view must shed the delivered ids and keep only the new one.
  SubmitOutcome c = session->Submit(Stuck("T0"));
  ASSERT_TRUE(c.ok());
  EXPECT_FALSE(session->HasPending(a.id));
  EXPECT_FALSE(session->HasPending(b.id));
  EXPECT_TRUE(session->HasPending(c.id));
  EXPECT_EQ(session->num_buffered_events(), 1u);
  // Tiling: the manager (service) count equals the session sum.
  EXPECT_EQ(manager.num_pending(), session->num_pending());
  EXPECT_EQ(session->PendingQueries(), (std::vector<QueryId>{c.id}));

  // Same shape through SubmitBatch: the batch's pushes overflow the
  // ring mid-call (delivering the earlier queued pair) and the batch's
  // own ids register cleanly afterwards.
  SubmitOutcome d = session->Submit(PairA("Q"));
  SubmitOutcome e = session->Submit(PairB("Q"));
  ASSERT_TRUE(d.ok() && e.ok());
  BatchOutcome batch = session->SubmitBatch({Stuck("T1"), Stuck("T2")});
  ASSERT_TRUE(batch.ok());
  EXPECT_FALSE(session->HasPending(d.id));
  EXPECT_FALSE(session->HasPending(e.id));
  EXPECT_TRUE(session->HasPending(batch.ids[0]));
  EXPECT_TRUE(session->HasPending(batch.ids[1]));
  EXPECT_EQ(session->num_pending(), 3u);  // T0, T1, T2
  // Passive gauges tile before any drain is forced...
  EXPECT_EQ(engine.GaugesSnapshot().pending, 3u);
  // ...and the read-boundary count agrees after the drain.
  EXPECT_EQ(manager.num_pending(), 3u);
  EXPECT_EQ(manager.num_pending(), session->num_pending());
}

// ---------------------------------------------------------------------------
// PollEvents after Close
// ---------------------------------------------------------------------------

TEST_F(SessionTest, BufferedEventsDrainExactlyOnceAfterClose) {
  CoordinationEngine engine(&db_);  // evaluate_every = 1
  SessionManager manager(&engine);
  ClientSession* session = manager.Open();
  SubmitOutcome a = session->Submit(PairA("P"));
  SubmitOutcome b = session->Submit(PairB("P"));
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(session->Submit(Stuck("T0")).ok());  // pending at close
  ASSERT_EQ(session->num_buffered_events(), 1u);

  session->Close();
  EXPECT_FALSE(session->open());
  EXPECT_EQ(manager.num_pending(), 0u);  // the stuck query was cancelled

  // The delivery buffered before Close drains exactly once.
  std::vector<SessionEvent> events = session->PollEvents();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].own_queries, (std::vector<QueryId>{a.id, b.id}));
  EXPECT_TRUE(session->PollEvents().empty());
  EXPECT_EQ(session->num_buffered_events(), 0u);
}

TEST_F(SessionTest, BufferedEventsDrainExactlyOnceAfterCloseSharded) {
  ShardedEngineOptions options;
  options.engine.evaluate_every = 0;
  ShardedCoordinationEngine engine(&db_, options);
  SessionManager manager(&engine);
  ClientSession* session = manager.Open();
  SubmitOutcome a = session->Submit(PairA("P"));
  SubmitOutcome b = session->Submit(PairB("P"));
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(manager.Flush(), 1u);
  ASSERT_TRUE(session->Submit(Stuck("T0")).ok());
  ASSERT_EQ(session->num_buffered_events(), 1u);

  session->Close();
  EXPECT_FALSE(session->open());
  EXPECT_EQ(manager.num_pending(), 0u);

  std::vector<SessionEvent> events = session->PollEvents();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].own_queries, (std::vector<QueryId>{a.id, b.id}));
  EXPECT_TRUE(session->PollEvents().empty());
}

// ---------------------------------------------------------------------------
// RejectReason round-trip
// ---------------------------------------------------------------------------

TEST(RejectReasonTest, EveryReasonHasAUniqueNonNullName) {
  EXPECT_EQ(kNumRejectReasons, 10u);
  std::set<std::string> names;
  for (RejectReason reason : kAllRejectReasons) {
    const char* name = RejectReasonName(reason);
    ASSERT_NE(name, nullptr);
    ASSERT_FALSE(std::string(name).empty());
    EXPECT_TRUE(names.insert(name).second)
        << "duplicate RejectReason name: " << name;
  }
  EXPECT_EQ(names.size(), kNumRejectReasons);
}

// ---------------------------------------------------------------------------
// Metrics snapshot
// ---------------------------------------------------------------------------

TEST_F(SessionTest, MetricsSnapshotCountsEveryBounceAndCall) {
  CoordinationEngine engine(&db_);
  SessionManager manager(&engine);
  SessionOptions quota;
  quota.max_pending = 1;
  ClientSession* session = manager.Open(quota);

  SubmitOutcome first = session->Submit(Stuck("T0"));
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(session->Submit(Stuck("T1")).reason, RejectReason::kQuotaPending);
  ASSERT_TRUE(session->Cancel(first.id));
  EXPECT_EQ(session->Submit("not a query").reason, RejectReason::kParseError);
  // The pair would not fit under the quota'd session's max_pending=1, so
  // it rides through an unconstrained sibling session.
  ClientSession* roomy = manager.Open();
  ASSERT_TRUE(roomy->SubmitBatch({PairA("P"), PairB("P")}).ok());
  session->PollEvents();
  manager.Flush();

  MetricsSnapshot snap = manager.Metrics();
  EXPECT_EQ(Counter(snap, "reject.quota_pending"), 1u);
  EXPECT_EQ(Counter(snap, "reject.parse_error"), 1u);
  EXPECT_EQ(Counter(snap, "reject.none"), 0u);
  EXPECT_EQ(Counter(snap, "reject.overloaded"), 0u);
  EXPECT_EQ(Counter(snap, "engine.submitted"), 3u);  // T0 + the pair
  EXPECT_EQ(Counter(snap, "engine.cancelled"), 1u);
  EXPECT_EQ(Counter(snap, "sessions.opened"), 2u);
  EXPECT_EQ(Counter(snap, "sessions.open"), 2u);
  EXPECT_EQ(Counter(snap, "shed.active"), 0u);

  // Per-entry-point histograms count calls, including rejected ones.
  EXPECT_EQ(Histogram(snap, "submit").count(), 3u);
  EXPECT_EQ(Histogram(snap, "submit_batch").count(), 1u);
  EXPECT_EQ(Histogram(snap, "cancel").count(), 1u);
  EXPECT_EQ(Histogram(snap, "flush").count(), 1u);
  EXPECT_EQ(Histogram(snap, "poll_events").count(), 1u);
  // The engine's evaluation histogram rides along: one sample per
  // component evaluation the engine counted.
  EXPECT_EQ(Histogram(snap, "eval").count(),
            Counter(snap, "engine.evaluations"));
  EXPECT_GT(Histogram(snap, "eval").count(), 0u);

  // Everything outside the timing fields is deterministic: a second
  // snapshot of the same state repeats the counters and gauges exactly.
  MetricsSnapshot again = manager.Metrics();
  EXPECT_EQ(snap.counters, again.counters);
  EXPECT_EQ(snap.gauges.pending, again.gauges.pending);
  EXPECT_EQ(snap.gauges.live_shards, again.gauges.live_shards);

  // The document serializes with all three sections.
  const std::string json = snap.ToJson();
  EXPECT_NE(json.find("\"counters\":{"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\":{"), std::string::npos);
  EXPECT_NE(json.find("\"latency\":{"), std::string::npos);
  EXPECT_NE(json.find("\"reject.quota_pending\":1"), std::string::npos);
}

TEST_F(SessionTest, MetricsSnapshotCarriesPerShardGauges) {
  ShardedEngineOptions options;
  options.engine.evaluate_every = 0;
  ShardedCoordinationEngine engine(&db_, options);
  SessionManager manager(&engine);
  ClientSession* session = manager.Open();
  ASSERT_TRUE(session->Submit(PairA("P")).ok());
  ASSERT_TRUE(session->Submit(PairB("P")).ok());
  // Two stuck queries in disjoint answer relations: each keeps its own
  // shard alive after the delivered pair's shard is garbage-collected.
  ASSERT_TRUE(session->Submit(Stuck("T0")).ok());
  ASSERT_TRUE(
      session->Submit("s_R: { R(NeverR, x) } R(Tr, x) :- Users(x, 'user7').")
          .ok());
  manager.Flush();

  MetricsSnapshot snap = manager.Metrics();
  EXPECT_EQ(snap.gauges.live_shards, snap.gauges.shards.size());
  EXPECT_EQ(snap.gauges.shards.size(), 2u);  // S-footprint and R-footprint
  uint64_t shard_pending = 0;
  for (const ShardGauge& shard : snap.gauges.shards) {
    shard_pending += shard.pending;
  }
  EXPECT_EQ(shard_pending, snap.gauges.pending);
  EXPECT_EQ(snap.gauges.pending, 2u);  // only the stuck queries survive
}

}  // namespace
}  // namespace entangled
