// Parallel-equivalence tier: the windowed engine's central guarantee is that
// the conservative-window canon is a function of (workload, machine, window)
// only — never of the backend driving it or how lanes are partitioned over
// workers. These tests prove it bit-identically, three ways:
//
//   * golden matrix — fiber-windowed results (messages, exec, memory image,
//     trace digest) pinned for all four protocols at three block sizes, so
//     the windowed canon itself cannot drift silently;
//   * worker sweep — Backend::kParallel at workers {1, 2, 4, 7, hw} must
//     reproduce the serial fiber-windowed run exactly: every per-node
//     counter, message totals, exec time, final memory hash, and the full
//     trace digest (equal digests => byte-identical canonical streams);
//   * randomized soak — 20 runs with PRNG-drawn worker counts, every one
//     digest-identical to the reference;
//   * backend equivalence — a full Barnes run lands on the same canon on
//     kFiber and kParallel.
//
// Plus the negative control: a planted conservative-PDES bug (a mailbox
// flush held past its window boundary, check/bughook.h) must make the
// differential fail — proving this tier can actually catch the class of bug
// it exists for.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <thread>
#include <vector>

#include "apps/barnes/barnes.h"
#include "apps/ranker/ranker.h"
#include "check/bughook.h"
#include "runtime/machine.h"
#include "golden_workload.h"

namespace presto {
namespace {

using runtime::ProtocolKind;
using testutil::run_micro_workload;
using testutil::WorkloadResult;

constexpr sim::Time kWindow = sim::microseconds(30);  // = cm5 wire latency

WorkloadResult run_serial_windowed(ProtocolKind kind,
                                   std::uint32_t block_size) {
  return run_micro_workload(kind, /*nodes=*/4,
                            /*rounds=*/6, sim::Backend::kFiber, block_size,
                            /*traced=*/true, trace::kCatAll, kWindow);
}

WorkloadResult run_parallel(ProtocolKind kind, std::uint32_t block_size,
                            int workers) {
  return run_micro_workload(kind, /*nodes=*/4,
                            /*rounds=*/6, sim::Backend::kParallel, block_size,
                            /*traced=*/true, trace::kCatAll, kWindow,
                            workers);
}

void expect_equal(const stats::NodeCounters& a, const stats::NodeCounters& b,
                  int node) {
  SCOPED_TRACE("node " + std::to_string(node));
  EXPECT_EQ(a.remote_wait, b.remote_wait);
  EXPECT_EQ(a.presend, b.presend);
  EXPECT_EQ(a.barrier_wait, b.barrier_wait);
  EXPECT_EQ(a.lock_wait, b.lock_wait);
  EXPECT_EQ(a.finish, b.finish);
  EXPECT_EQ(a.shared_reads, b.shared_reads);
  EXPECT_EQ(a.shared_writes, b.shared_writes);
  EXPECT_EQ(a.read_faults, b.read_faults);
  EXPECT_EQ(a.write_faults, b.write_faults);
  EXPECT_EQ(a.local_faults, b.local_faults);
  EXPECT_EQ(a.msgs_sent, b.msgs_sent);
  EXPECT_EQ(a.bytes_sent, b.bytes_sent);
  EXPECT_EQ(a.presend_blocks_sent, b.presend_blocks_sent);
  EXPECT_EQ(a.presend_blocks_received, b.presend_blocks_received);
  EXPECT_EQ(a.presend_msgs, b.presend_msgs);
  EXPECT_EQ(a.schedule_entries, b.schedule_entries);
}

void expect_equal(const WorkloadResult& a, const WorkloadResult& b) {
  ASSERT_EQ(a.counters.size(), b.counters.size());
  for (std::size_t n = 0; n < a.counters.size(); ++n)
    expect_equal(a.counters[n], b.counters[n], static_cast<int>(n));
  EXPECT_EQ(a.msgs, b.msgs);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.exec, b.exec);
  EXPECT_EQ(a.mem_hash, b.mem_hash);
  ASSERT_TRUE(a.traced);
  ASSERT_TRUE(b.traced);
  EXPECT_EQ(a.trace_digest.events, b.trace_digest.events);
  EXPECT_EQ(a.trace_digest, b.trace_digest);
  EXPECT_EQ(a.trace_summary.events, b.trace_summary.events);
  EXPECT_EQ(a.trace_summary.misses, b.trace_summary.misses);
  EXPECT_EQ(a.trace_summary.presend_hits, b.trace_summary.presend_hits);
  EXPECT_EQ(a.trace_summary.presend_waste, b.trace_summary.presend_waste);
  EXPECT_EQ(a.trace_summary.presend_unused, b.trace_summary.presend_unused);
}

std::string protocol_suffix(ProtocolKind k) {
  switch (k) {
    case ProtocolKind::kStache: return "Stache";
    case ProtocolKind::kPredictive: return "Predictive";
    case ProtocolKind::kPredictiveAnticipate: return "PredictiveAnticipate";
    case ProtocolKind::kWriteUpdate: return "WriteUpdate";
    case ProtocolKind::kCCached: return "CCached";
  }
  return "Unknown";
}

// ---- Golden matrix ----------------------------------------------------------
// The windowed canon, frozen: messages, bytes, exec time, memory image and
// trace digest of every protocol at three block sizes (golden_stats_test.cc
// pins the same runs' event and fault counts); any drift here means
// simulated behavior changed.

struct WindowedPin {
  ProtocolKind kind;
  std::uint32_t block_size;
  std::uint64_t msgs;
  std::uint64_t bytes;
  sim::Time exec;
  std::uint64_t mem_hash;
  std::uint64_t trace_events;
  std::uint64_t trace_hash;
};

// clang-format off
constexpr WindowedPin kWindowedPins[] = {
    // PINS_BEGIN (regenerate: tools snippet in docs/performance.md §9)
    {ProtocolKind::kStache, 32,
     6903ull, 196368ull, 249729320ull, 0xca0c1bb53c718353ull,
     32886ull, 0xd93535fc91dc9e95ull},
    {ProtocolKind::kStache, 128,
     1850ull, 121376ull, 72437540ull, 0x866298b9b64b055cull,
     9095ull, 0x05c13bd0bdb5cf92ull},
    {ProtocolKind::kStache, 1024,
     435ull, 166704ull, 26442760ull, 0x49217729eff53bcbull,
     2409ull, 0xc192915d833bf0abull},
    {ProtocolKind::kPredictive, 32,
     7022ull, 201984ull, 242737780ull, 0xca0c1bb53c718353ull,
     32789ull, 0x8e0cb79dd9aa7670ull},
    {ProtocolKind::kPredictive, 128,
     1869ull, 125008ull, 70348940ull, 0x866298b9b64b055cull,
     9198ull, 0x5a97c45ccc929e8aull},
    {ProtocolKind::kPredictive, 1024,
     434ull, 174880ull, 24588360ull, 0x49217729eff53bcbull,
     2548ull, 0x372b21fe5929608full},
    {ProtocolKind::kPredictiveAnticipate, 32,
     6962ull, 201024ull, 235095120ull, 0xca0c1bb53c718353ull,
     32021ull, 0x0f073de6e8eee894ull},
    {ProtocolKind::kPredictiveAnticipate, 128,
     1854ull, 124768ull, 68035140ull, 0x866298b9b64b055cull,
     9009ull, 0x70745259a23f1335ull},
    {ProtocolKind::kPredictiveAnticipate, 1024,
     434ull, 174880ull, 24588360ull, 0x49217729eff53bcbull,
     2548ull, 0x372b21fe5929608full},
    {ProtocolKind::kWriteUpdate, 32,
     6882ull, 230208ull, 102548520ull, 0x26dbeb6c5c315964ull,
     28215ull, 0x31d98da18533067eull},
    {ProtocolKind::kWriteUpdate, 128,
     1788ull, 155328ull, 29901120ull, 0xee6f490771d81fb7ull,
     7674ull, 0xd8df5dd313515d00ull},
    {ProtocolKind::kWriteUpdate, 1024,
     318ull, 192480ull, 11759960ull, 0xd723c7aca497fc16ull,
     1689ull, 0x0d1d0557112e81f3ull},
    // ccached with no commutative regions: must equal the Stache rows above
    // exactly (the fallback-path identity golden_stats_test.cc also pins).
    {ProtocolKind::kCCached, 32,
     6903ull, 196368ull, 249729320ull, 0xca0c1bb53c718353ull,
     32886ull, 0xd93535fc91dc9e95ull},
    {ProtocolKind::kCCached, 128,
     1850ull, 121376ull, 72437540ull, 0x866298b9b64b055cull,
     9095ull, 0x05c13bd0bdb5cf92ull},
    {ProtocolKind::kCCached, 1024,
     435ull, 166704ull, 26442760ull, 0x49217729eff53bcbull,
     2409ull, 0xc192915d833bf0abull},
    // PINS_END
};
// clang-format on

class WindowedGoldenMatrix : public ::testing::TestWithParam<WindowedPin> {};

TEST_P(WindowedGoldenMatrix, FiberWindowedPinned) {
  const WindowedPin& pin = GetParam();
  const WorkloadResult r = run_serial_windowed(pin.kind, pin.block_size);
  EXPECT_EQ(r.msgs, pin.msgs);
  EXPECT_EQ(r.bytes, pin.bytes);
  EXPECT_EQ(r.exec, pin.exec);
  EXPECT_EQ(r.mem_hash, pin.mem_hash);
  ASSERT_TRUE(r.traced);
  EXPECT_EQ(r.trace_digest.events, pin.trace_events);
  EXPECT_EQ(r.trace_digest.hash, pin.trace_hash);
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocolsAllBlocks, WindowedGoldenMatrix,
    ::testing::ValuesIn(kWindowedPins),
    [](const ::testing::TestParamInfo<WindowedPin>& info) -> std::string {
      return protocol_suffix(info.param.kind) + "_b" +
             std::to_string(info.param.block_size);
    });

// ---- Worker sweep -----------------------------------------------------------

class ParallelEquivalenceTest
    : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(ParallelEquivalenceTest, ParallelMatchesSerialAcrossWorkers) {
  const WorkloadResult serial = run_serial_windowed(GetParam(), 32);
  int hw = static_cast<int>(std::thread::hardware_concurrency());
  if (hw < 1) hw = 1;
  for (int workers : {1, 2, 4, 7, hw}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    const WorkloadResult par = run_parallel(GetParam(), 32, workers);
    expect_equal(serial, par);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, ParallelEquivalenceTest,
    ::testing::ValuesIn(runtime::kAllProtocolKinds),
    [](const ::testing::TestParamInfo<ProtocolKind>& info) -> std::string {
      return protocol_suffix(info.param);
    });

// The merge path under the worker pool: the cc micro workload's flush round
// trips and home-side merge quiescing must land on the serial windowed
// canon at every worker count — counters, merged image, flush stats and the
// full trace digest.
TEST(ParallelEquivalenceCCached, ReductionWorkloadMatchesSerialAcrossWorkers) {
  const WorkloadResult serial = testutil::run_cc_micro_workload(
      ProtocolKind::kCCached, 32, /*nodes=*/4, /*rounds=*/6, /*traced=*/true,
      sim::Backend::kFiber, kWindow);
  EXPECT_GT(serial.cc_flushes, 0u);
  for (int workers : {1, 2, 4, 7}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    const WorkloadResult par = testutil::run_cc_micro_workload(
        ProtocolKind::kCCached, 32, /*nodes=*/4, /*rounds=*/6, /*traced=*/true,
        sim::Backend::kParallel, kWindow, workers);
    expect_equal(serial, par);
    EXPECT_EQ(serial.cc_flushes, par.cc_flushes);
    EXPECT_EQ(serial.cc_entries, par.cc_entries);
  }
}

// And at application level: ranker's drifting-graph push phase under ccached,
// serial fiber-windowed vs the worker pool.
TEST(ParallelEquivalenceRanker, CCachedChecksumAndReportBitIdentical) {
  apps::RankerParams params;
  params.vertices = 96;
  params.iters = 4;
  runtime::MachineConfig m = runtime::MachineConfig::cm5_blizzard(4, 32);
  m.window = kWindow;
  m.backend = sim::Backend::kFiber;
  const auto serial = apps::run_ranker(params, m, ProtocolKind::kCCached,
                                       false);
  EXPECT_GT(serial.report.cc_flushes, 0u);
  for (int workers : {2, 4}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    m.backend = sim::Backend::kParallel;
    m.workers = workers;
    const auto par = apps::run_ranker(params, m, ProtocolKind::kCCached,
                                      false);
    EXPECT_EQ(serial.checksum, par.checksum);
    EXPECT_EQ(serial.report.exec, par.report.exec);
    EXPECT_EQ(serial.report.msgs, par.report.msgs);
    EXPECT_EQ(serial.report.bytes, par.report.bytes);
    EXPECT_EQ(serial.report.faults, par.report.faults);
    EXPECT_EQ(serial.report.cc_flushes, par.report.cc_flushes);
    EXPECT_EQ(serial.report.cc_entries, par.report.cc_entries);
  }
}

// ---- Backend equivalence ----------------------------------------------------
// The two backends differ only in which OS thread drains a lane, so every
// simulated result — including the trace — must match between the serial
// fiber engine and the worker pool.

TEST(BackendEquivalenceBarnes, ChecksumAndReportBitIdentical) {
  apps::BarnesParams params;
  params.bodies = 256;
  params.steps = 2;
  runtime::MachineConfig m = runtime::MachineConfig::cm5_blizzard(4, 32);
  m.window = kWindow;
  m.backend = sim::Backend::kFiber;
  const auto fiber =
      apps::run_barnes(params, m, ProtocolKind::kPredictive, true);
  EXPECT_STREQ(fiber.report.host.backend, "fiber");
  for (int workers : {2, 4}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    m.backend = sim::Backend::kParallel;
    m.workers = workers;
    const auto par =
        apps::run_barnes(params, m, ProtocolKind::kPredictive, true);
    EXPECT_EQ(fiber.checksum, par.checksum);
    EXPECT_EQ(fiber.report.exec, par.report.exec);
    EXPECT_EQ(fiber.report.remote_wait, par.report.remote_wait);
    EXPECT_EQ(fiber.report.presend, par.report.presend);
    EXPECT_EQ(fiber.report.shared_accesses, par.report.shared_accesses);
    EXPECT_EQ(fiber.report.faults, par.report.faults);
    EXPECT_EQ(fiber.report.msgs, par.report.msgs);
    EXPECT_EQ(fiber.report.bytes, par.report.bytes);
    EXPECT_EQ(fiber.report.presend_blocks, par.report.presend_blocks);
    // The backend name is the one legitimate host-side difference.
    EXPECT_STREQ(par.report.host.backend, "parallel");
  }
}

// ---- Randomized-worker soak -------------------------------------------------
// Twenty parallel runs with PRNG-drawn worker counts (seeded — the draw
// sequence is fixed, only the lane-to-worker partitioning varies), every one
// byte-identical to the serial reference. Rotates through the protocols so
// each gets soaked under several partitionings.

TEST(ParallelSoak, RandomWorkerCountsStayByteIdentical) {
  constexpr ProtocolKind kKinds[] = {
      ProtocolKind::kStache, ProtocolKind::kPredictive,
      ProtocolKind::kPredictiveAnticipate, ProtocolKind::kWriteUpdate};
  WorkloadResult refs[4];
  for (int k = 0; k < 4; ++k) refs[k] = run_serial_windowed(kKinds[k], 32);

  std::mt19937 rng(0xC0FFEEu);
  std::uniform_int_distribution<int> draw_workers(1, 8);
  for (int i = 0; i < 20; ++i) {
    const int k = i % 4;
    const int workers = draw_workers(rng);
    SCOPED_TRACE("iteration " + std::to_string(i) + " protocol " +
                 protocol_suffix(kKinds[k]) + " workers=" +
                 std::to_string(workers));
    const WorkloadResult par = run_parallel(kKinds[k], 32, workers);
    expect_equal(refs[k], par);
  }
}

// ---- Planted bug: the differential must catch it ----------------------------
// Holding one source's staged mailbox past its window boundary is exactly
// the bug class the conservative protocol exists to exclude. With the hook
// set, deliveries slip a window, so the run must diverge from the serial
// canon — if this test ever sees equal digests, the equivalence tier has
// lost its teeth.

struct ScopedBugHook {
  explicit ScopedBugHook(const char* name) : name_(name) {
    check::set_bug_hook(name, true);
  }
  ~ScopedBugHook() { check::set_bug_hook(name_, false); }
  const char* name_;
};

TEST(ParallelPlantedBug, DelayedWindowFlushIsCaught) {
  const WorkloadResult good = run_serial_windowed(ProtocolKind::kStache, 32);
  WorkloadResult bad;
  {
    ScopedBugHook hook("delay-window-flush");
    bad = run_parallel(ProtocolKind::kStache, 32, /*workers=*/2);
  }
  // The run completes (the engine's final boundary pass guarantees held
  // mailboxes still drain) but its canon differs.
  EXPECT_NE(good.trace_digest, bad.trace_digest);
  EXPECT_NE(good.exec, bad.exec);
  // And with the hook cleared the same configuration matches again, so the
  // divergence above is attributable to the planted bug alone.
  const WorkloadResult clean =
      run_parallel(ProtocolKind::kStache, 32, /*workers=*/2);
  expect_equal(good, clean);
}

}  // namespace
}  // namespace presto
