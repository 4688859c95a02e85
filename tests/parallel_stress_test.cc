// Stress tier for the worker pool's synchronization hot path: sense-epoch
// barrier, spin-then-park wake-ups, and time-based escalation of windows
// from the caller alone to the caller plus helpers claiming lanes from one
// shared cursor.
//
// Most of it runs the 16-node golden workload, whose windows are a mix:
// many short enough to stay on the caller, some long enough to release
// helpers. Each test asserts the mechanism it stresses ENGAGED (win_releases,
// win_parks, win_serial_windows from the host counters) before asserting
// equivalence — a drift that silently serialized these runs would otherwise
// turn the whole tier vacuous.
//
// The compute workload is the opposite extreme: every processor resumes into
// a long host-side compute burst, so nearly every window escalates and
// helpers really drain lanes concurrently, while requests queue at busy
// Stache homes and ccached flushes merge at several homes at once. Under
// TSan (CI's tsan job runs this label) it is the case that sees any protocol
// state shared between lanes.
//
// Plus the second planted bug: a helper that claims a lane but arrives
// without draining it (a stale sense flag, check/bughook.h) keeps every
// simulated result intact — same events at the same virtual times, one
// window later in host time — and is caught ONLY by the trace digest, whose
// boundary stamping order shifts. That is the narrowest observable the
// equivalence tier owns, and this proves it has teeth.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "check/bughook.h"
#include "net/network.h"
#include "runtime/machine.h"
#include "sim/parallel.h"
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

WorkloadResult run_pool(ProtocolKind kind, int workers) {
  return run_micro_workload(kind, kNodes, kRounds,
                            sim::Backend::kParallel, /*block_size=*/32,
                            /*traced=*/true, trace::kCatAll, kWindow, workers);
}

// ---- Compute workloads ------------------------------------------------------
// Host work that simulated time does not see: a dependent xorshift chain the
// compiler cannot fold, about 2 ns an iteration on current x86 cores, in
// registers (so sanitizers barely slow it). A processor burning it keeps its
// lane busy for that long in whatever window it resumed in.

std::uint64_t burn(std::uint64_t x, int iters) {
  for (int i = 0; i < iters; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

runtime::MachineConfig compute_machine(int nodes, sim::Backend backend,
                                       int workers) {
  runtime::MachineConfig cfg = runtime::MachineConfig::cm5_blizzard(nodes, 32);
  cfg.backend = backend;
  cfg.trace.enabled = true;
  cfg.window = kWindow;
  cfg.workers = workers;
  return cfg;
}

// 16 nodes under ccached, 12 steps. Each step every node burns ~100 us, then
// writes its word of a block that four nodes write in the same step (so the
// block's home is busy recalling and later requests queue), and adds into a
// reduction word homed at yet another node; every third step flushes the
// reduction log, so merges land at several homes at once.
WorkloadResult run_compute(sim::Backend backend, int workers) {
  const runtime::MachineConfig cfg =
      compute_machine(kNodes, backend, workers);
  runtime::System sys(cfg, ProtocolKind::kCCached);
  auto& space = sys.space();
  const std::uint32_t page = cfg.mem.page_size;
  const auto region = static_cast<std::size_t>(kNodes) * page;
  const auto round_robin = [](mem::PageId p) {
    return static_cast<int>(p) % kNodes;
  };
  const mem::Addr hot = space.alloc(region, round_robin);
  const mem::Addr sums = space.alloc(region, round_robin);
  space.set_commutative(sums, region);

  sys.run([&](runtime::NodeCtx& c) {
    const auto n = static_cast<mem::Addr>(c.id());
    std::uint64_t x = 0x9e3779b97f4a7c15ULL * (n + 1);
    for (mem::Addr k = 0; k < 12; ++k) {
      x = burn(x, 50000);
      c.charge(sim::microseconds(10));
      const mem::Addr home = (k + n / 4) % kNodes;
      c.write<std::uint64_t>(hot + home * page + k * 32 + (n % 4) * 8, x);
      const mem::Addr sum_home = (k + n) % kNodes;
      c.cc_add(sums + sum_home * page + n * 8,
               static_cast<std::int64_t>(x & 0xffff));
      if (k % 3 == 2) c.cc_flush();
    }
    c.barrier();
  });
  return testutil::collect_result(sys);
}

// 16 nodes under Stache. The first window holds all the work: every node
// burns ~5 ms before a barrier, so even a helper that shares a CPU with the
// caller is scheduled, and claims a lane, long before the caller could claim
// all sixteen. Then each node passes its result to its neighbour.
WorkloadResult run_burst(sim::Backend backend, int workers) {
  const runtime::MachineConfig cfg =
      compute_machine(kNodes, backend, workers);
  runtime::System sys(cfg, ProtocolKind::kStache);
  auto& space = sys.space();
  const mem::Addr words = space.alloc(
      static_cast<std::size_t>(kNodes) * cfg.mem.page_size,
      [](mem::PageId p) { return static_cast<int>(p) % kNodes; });

  sys.run([&](runtime::NodeCtx& c) {
    const auto n = static_cast<mem::Addr>(c.id());
    const std::uint64_t x = burn(0x9e3779b97f4a7c15ULL * (n + 1), 2500000);
    c.barrier();
    const mem::Addr next = (n + 1) % kNodes;
    c.write<std::uint64_t>(words + next * cfg.mem.page_size, x);
    c.barrier();
    volatile std::uint64_t v =
        c.read<std::uint64_t>(words + n * cfg.mem.page_size);
    (void)v;
  });
  return testutil::collect_result(sys);
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

// ---- Escalation engagement --------------------------------------------------
// At 16 nodes the rotating-writer workload leaves most lanes idle in writer
// phases and all lanes busy in read phases, so one run crosses the full
// spectrum: windows that stay on the caller, and windows that escalate and
// have the caller claim lanes alongside the helpers — all bit-identical to
// the serial canon.

TEST(ParallelElision, MixedPathWindowsStayByteIdentical) {
  // Predictive, not stache: the presend machinery is what keeps 16-node
  // windows long enough to release helpers (stache windows at this scale
  // mostly finish before the escalation time — correctly, but vacuously for
  // this test).
  const WorkloadResult serial = run_serial(ProtocolKind::kPredictive);
  for (int workers : {2, 5, 7, 8}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    const WorkloadResult par = run_pool(ProtocolKind::kPredictive, workers);
    // The mechanisms under test must actually engage.
    EXPECT_GT(par.host.win_releases, 0u) << "pool never released a helper; "
                                            "this test has gone vacuous";
    EXPECT_GT(par.host.win_serial_windows, 0u);
    EXPECT_GT(par.host.win_adopted_drains, 0u);
    expect_equivalent(serial, par);
  }
}

// ---- Park/unpark stress -----------------------------------------------------
// Oversubscription (8 workers on however few CPUs the host has) drives the
// futex path: a helper that is not re-released within its spin budget parks
// in epoch.wait() and is woken by notify_one(). The rotating writer keeps
// lane load imbalanced, so release sets differ window to window — exactly
// the wake/sleep churn the barrier must survive without deadlock, lost
// wake-ups, or result drift.

TEST(ParallelParkStress, OversubscribedPoolParksAndMatches) {
  const WorkloadResult serial = run_serial(ProtocolKind::kPredictive);
  const WorkloadResult par = run_pool(ProtocolKind::kPredictive, /*workers=*/8);
  EXPECT_GT(par.host.win_releases, 0u);
  EXPECT_GT(par.host.win_parks, 0u) << "no helper ever parked; the futex "
                                       "path went unexercised";
  expect_equivalent(serial, par);
}

// ---- Concurrent drain of compute windows ------------------------------------
// Most windows open with processors resuming into a ~100 us burn, so they
// outlast the escalation time with lanes still unclaimed and release helpers,
// which then drain lanes that queue requests and merge flushes at their
// homes. The run must still land on the serial canon bit for bit, ccached
// flush counters included.

TEST(ParallelComputeDrain, HelpersDrainComputeWindowsAndMatchSerial) {
  const WorkloadResult serial = run_compute(sim::Backend::kFiber, 1);
  ASSERT_GT(serial.cc_flushes, 0u);
  for (int workers : {2, 4}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    const WorkloadResult par = run_compute(sim::Backend::kParallel, workers);
    EXPECT_GE(2 * par.host.win_releases, par.host.windows)
        << "compute windows stayed on the caller; this test has gone vacuous";
    EXPECT_EQ(serial.cc_flushes, par.cc_flushes);
    EXPECT_EQ(serial.cc_entries, par.cc_entries);
    expect_equivalent(serial, par);
  }
}

// ---- Channel staging under the pool -----------------------------------------
// A channel's source lane appends records to its ring while, in the same
// window, its destination lane delivers (pops) earlier records of the same
// ring — on different threads whenever the window escalates. Lane 0 burns
// host time first, so every window escalates, and lanes 1 and 2 burn some
// too, so the caller and a helper split them. Under TSan (CI's tsan job runs
// this label) this is the race check of the staging path: the source writes
// only the ring's tail chunk, the destination reads only published records.
// Everywhere, the destination must receive exactly what the serial engine
// delivers, at the same times.

struct StreamLog final : net::Network::MsgSink {
  explicit StreamLog(sim::Engine& e) : engine(e) {}
  void on_msg(int dst, const std::byte* rec, std::size_t len) override {
    got.push_back(std::to_string(dst) + "@" + std::to_string(engine.now()) +
                  ":" + std::string(reinterpret_cast<const char*>(rec), len));
  }
  sim::Engine& engine;
  std::vector<std::string> got;  // touched only on the destination's lane
};

struct StreamRun {
  std::vector<std::string> got;
  sim::WindowPoolStats pool;
};

StreamRun run_channel_stream(sim::Backend backend, int workers) {
  constexpr int kTicks = 150;
  sim::Engine e(backend);
  e.enable_windows(kWindow, /*lanes=*/3, workers);
  net::Network net(e, 3, net::NetConfig{});
  StreamLog sink(e);
  net.set_msg_sink(&sink);
  std::uint64_t sunk[3] = {1, 2, 3};  // per lane: burn results stay live
  // One tick per window on each lane: lane 0 only burns; lane 2 burns a
  // little and sends three records to node 1; lane 1 burns a little while
  // its deliveries pop the 2 -> 1 ring.
  std::function<void(int, int)> tick = [&](int lane, int left) {
    sunk[lane] = burn(sunk[lane], lane == 0 ? 40000 : 8000);
    if (lane == 2)
      for (int k = 0; k < 3; ++k) {
        const std::string body = "r" + std::to_string(left) + "." +
                                  std::to_string(k) + std::string(k * 40, 'x');
        net.send_msg(2, 1, body.size(), e.now(), body.data(), body.size(),
                     nullptr, 0);
      }
    if (left > 1)
      e.schedule_in(kWindow, [&tick, lane, left] { tick(lane, left - 1); });
  };
  for (int lane = 0; lane < 3; ++lane)
    e.schedule_on(lane, 0, [&tick, lane] { tick(lane, kTicks); });
  e.run();
  return StreamRun{sink.got, e.window_stats()};
}

TEST(ParallelChannelStaging, DestinationPopsWhileSourceStages) {
  const StreamRun serial = run_channel_stream(sim::Backend::kFiber, 1);
  ASSERT_EQ(serial.got.size(), 3u * 150u);
  const StreamRun pooled = run_channel_stream(sim::Backend::kParallel, 3);
  EXPECT_GT(pooled.pool.releases, 0u)
      << "no window escalated; this test has gone vacuous";
  EXPECT_EQ(pooled.got, serial.got);
}

// ---- Planted bug: stale sense flag ------------------------------------------
// The first released helper to claim a lane other than the window's last
// arrives without draining it, as if a stale sense flag told it the window
// was already complete. Every simulated observable survives — the skipped
// lane drains one window later at unchanged virtual times, so counters,
// messages, exec time, and memory all match. Only the trace's boundary
// stamping order shifts: the skipped lane's events are sequenced after the
// window's later lanes. The burst workload makes the claim certain: its first
// window is sixteen lanes of ~5 ms each, where the bug always fires. If the
// digest ever stops catching this, the equivalence tier has lost its
// sharpest check.

TEST(ParallelPlantedBug, StaleSenseFlagIsCaughtByTraceDigest) {
  const WorkloadResult good = run_burst(sim::Backend::kFiber, 1);
  WorkloadResult bad;
  {
    check::ScopedBugHook hook("stale-sense-flag");
    bad = run_burst(sim::Backend::kParallel, /*workers=*/2);
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
  const WorkloadResult clean = run_burst(sim::Backend::kParallel, 2);
  expect_equivalent(good, clean);
}

}  // namespace
}  // namespace presto
