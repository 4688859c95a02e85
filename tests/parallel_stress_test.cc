// Stress tier for the worker pool's synchronization hot path: sense-epoch
// barrier, spin-then-park wake-ups, adaptive window batching, idle-lane
// elision with caller adoption.
//
// Everything here runs the 16-node golden workload: the pool's grain
// heuristic routes the 4/8-node workloads of the base equivalence tier down
// the serial fast path (correct — a release/arrival round trip costs more
// than those windows hold), so 16 nodes is the smallest shape where helpers
// are genuinely released and the cross-thread machinery actually runs. Each
// test asserts the mechanism it stresses ENGAGED (win_releases, win_parks,
// win_serial_windows from the host counters) before asserting equivalence —
// a heuristic drift that silently serialized these runs would otherwise turn
// the whole tier vacuous.
//
// Plus the second planted bug: a helper that consumes a window release
// without draining (a stale sense flag, check/bughook.h) keeps every
// simulated result intact — same events at the same virtual times, one
// window later in host time — and is caught ONLY by the trace digest, whose
// boundary stamping order shifts. That is the narrowest observable the
// equivalence tier owns, and this proves it has teeth.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "check/bughook.h"
#include "runtime/machine.h"
#include "golden_workload.h"

namespace presto {
namespace {

using runtime::ProtocolKind;
using testutil::run_micro_workload;
using testutil::WorkloadResult;

constexpr sim::Time kWindow = sim::microseconds(30);  // = cm5 wire latency
constexpr int kNodes = 16;
constexpr int kRounds = 4;

WorkloadResult run_serial(ProtocolKind kind) {
  return run_micro_workload(kind, kNodes, kRounds,
                            sim::Backend::kFiber, /*block_size=*/32,
                            /*traced=*/true, trace::kCatAll, kWindow);
}

WorkloadResult run_pool(ProtocolKind kind, int workers, int batch) {
  return run_micro_workload(kind, kNodes, kRounds,
                            sim::Backend::kParallel, /*block_size=*/32,
                            /*traced=*/true, trace::kCatAll, kWindow, workers,
                            batch);
}

void expect_equivalent(const WorkloadResult& a, const WorkloadResult& b) {
  ASSERT_EQ(a.counters.size(), b.counters.size());
  for (std::size_t n = 0; n < a.counters.size(); ++n) {
    SCOPED_TRACE("node " + std::to_string(n));
    EXPECT_EQ(a.counters[n].finish, b.counters[n].finish);
    EXPECT_EQ(a.counters[n].msgs_sent, b.counters[n].msgs_sent);
    EXPECT_EQ(a.counters[n].read_faults, b.counters[n].read_faults);
    EXPECT_EQ(a.counters[n].write_faults, b.counters[n].write_faults);
  }
  EXPECT_EQ(a.msgs, b.msgs);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.exec, b.exec);
  EXPECT_EQ(a.mem_hash, b.mem_hash);
  ASSERT_TRUE(a.traced);
  ASSERT_TRUE(b.traced);
  EXPECT_EQ(a.trace_digest.events, b.trace_digest.events);
  EXPECT_EQ(a.trace_digest, b.trace_digest);
}

struct ScopedBugHook {
  explicit ScopedBugHook(const char* name) : name_(name) {
    check::set_bug_hook(name, true);
  }
  ~ScopedBugHook() { check::set_bug_hook(name_, false); }
  const char* name_;
};

// ---- Elision / adoption engagement ------------------------------------------
// At 16 nodes the rotating-writer workload leaves most lanes idle in writer
// phases and all lanes busy in read phases, so one run crosses the full
// spectrum: serial-fast-path windows, released windows, and adopted drains
// of unreleased helpers' lanes — all bit-identical to the serial canon.

TEST(ParallelElision, MixedPathWindowsStayByteIdentical) {
  const WorkloadResult serial = run_serial(ProtocolKind::kPredictive);
  for (int workers : {2, 5, 8}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    const WorkloadResult par =
        run_pool(ProtocolKind::kPredictive, workers, /*batch=*/0);
    // The mechanisms under test must actually engage.
    EXPECT_GT(par.host.win_releases, 0u) << "pool never released a helper; "
                                            "this test has gone vacuous";
    EXPECT_GT(par.host.win_serial_windows, 0u);
    EXPECT_GT(par.host.win_adopted_drains, 0u);
    expect_equivalent(serial, par);
  }
}

// ---- Adaptive batching sweep ------------------------------------------------
// The batch cap only changes HOW helpers are woken (spin streaks vs parks),
// never what is simulated: every (workers, batch) cell must land on the
// serial canon's digest. batch=1 is the park-heavy extreme (a helper may
// spin-acquire at most one consecutive release before it must park), batch=8
// the spin-friendly one, batch=0 uncapped.

TEST(ParallelBatching, BatchCapSweepStaysByteIdentical) {
  // Predictive, not stache: the presend machinery is what keeps 16-node
  // windows heavy enough to release helpers (stache windows at this scale
  // fall under the release grain and serialize — correctly, but vacuously
  // for this sweep).
  const WorkloadResult serial = run_serial(ProtocolKind::kPredictive);
  for (int workers : {2, 7}) {
    for (int batch : {1, 2, 8}) {
      SCOPED_TRACE("workers=" + std::to_string(workers) + " batch=" +
                   std::to_string(batch));
      const WorkloadResult par =
          run_pool(ProtocolKind::kPredictive, workers, batch);
      EXPECT_GT(par.host.win_releases, 0u);
      expect_equivalent(serial, par);
    }
  }
}

// ---- Park/unpark stress -----------------------------------------------------
// Oversubscription (8 workers on however few CPUs the host has) plus
// batch=1 forces the futex path: after each helper's first spin-acquired
// release, every further wake-up goes through epoch.wait()/notify_one(). The
// rotating writer keeps lane load imbalanced, so release sets differ window
// to window — exactly the wake/sleep churn the barrier must survive without
// deadlock, lost wake-ups, or result drift.

TEST(ParallelParkStress, OversubscribedBatchOneParksAndMatches) {
  const WorkloadResult serial = run_serial(ProtocolKind::kPredictive);
  const WorkloadResult par =
      run_pool(ProtocolKind::kPredictive, /*workers=*/8, /*batch=*/1);
  EXPECT_GT(par.host.win_releases, 0u);
  // batch=1 with repeated releases forces parks (a helper's second
  // consecutive release may not be spin-acquired).
  EXPECT_GT(par.host.win_parks, 0u) << "batch=1 never parked a helper; the "
                                       "spin cap is not being enforced";
  expect_equivalent(serial, par);
}

// ---- Planted bug: stale sense flag ------------------------------------------
// The first released helper consumes its epoch bump but skips the drain, as
// if a stale sense flag told it the window was already complete. Every
// simulated observable survives — the skipped lanes drain one window later
// at unchanged virtual times, so counters, messages, exec time, and memory
// all match. Only the trace's boundary stamping order shifts: the skipped
// lanes' events are sequenced one boundary late. If the digest ever stops
// catching this, the equivalence tier has lost its sharpest check.

TEST(ParallelPlantedBug, StaleSenseFlagIsCaughtByTraceDigest) {
  const WorkloadResult good = run_serial(ProtocolKind::kPredictive);
  WorkloadResult bad;
  {
    ScopedBugHook hook("stale-sense-flag");
    bad = run_pool(ProtocolKind::kPredictive, /*workers=*/2, /*batch=*/0);
  }
  // The bug only fires when a helper is actually released.
  ASSERT_GT(bad.host.win_releases, 0u);
  // Simulated results are intact...
  EXPECT_EQ(good.msgs, bad.msgs);
  EXPECT_EQ(good.exec, bad.exec);
  EXPECT_EQ(good.mem_hash, bad.mem_hash);
  EXPECT_EQ(good.trace_digest.events, bad.trace_digest.events);
  // ...but the canonical stream's stamping order is not.
  EXPECT_NE(good.trace_digest.hash, bad.trace_digest.hash);
  // With the hook cleared the same configuration matches again, pinning the
  // divergence on the planted bug alone.
  const WorkloadResult clean =
      run_pool(ProtocolKind::kPredictive, /*workers=*/2, /*batch=*/0);
  expect_equivalent(good, clean);
}

}  // namespace
}  // namespace presto
