// Parallel-equivalence tier: the windowed engine's central guarantee is that
// the conservative-window canon is a function of (workload, machine, window)
// only — never of the backend driving it or how lanes are partitioned over
// workers. These tests prove it bit-identically, four ways:
//
//   * golden matrix — fiber-windowed results (testutil::kMicroPins:
//     messages, events, exec, faults, memory image, trace digest) pinned for
//     every protocol at three block sizes, so the windowed canon itself
//     cannot drift silently;
//   * worker sweep — Backend::kParallel at workers {1, 2, 4, 7, hw} must
//     reproduce the serial fiber-windowed run exactly: every per-node
//     counter, message totals, exec time, final memory hash, and the full
//     trace digest (equal digests => byte-identical canonical streams);
//   * randomized soak — 20 runs with PRNG-drawn worker counts, every one
//     digest-identical to the reference;
//   * width — the 64-node ring that CI's parallel speedup floor runs, and
//     the 256-node ring, bcast and reduce patterns, whose windows mostly
//     run a few lanes, at 2 and 4 workers;
//   * backend equivalence — a full Barnes run lands on the same canon on
//     kFiber and kParallel.
//
// Plus the negative control: a planted conservative-PDES bug (a staged-record
// flush held past its window boundary, check/bughook.h) must make the
// differential fail — proving this tier can actually catch the class of bug
// it exists for.
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "apps/barnes/barnes.h"
#include "apps/ranker/ranker.h"
#include "check/bughook.h"
#include "runtime/machine.h"
#include "golden_workload.h"
#include "wide_pattern.h"

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
  EXPECT_EQ(a.conflict_entries, b.conflict_entries);
  EXPECT_EQ(a.presend_recalls, b.presend_recalls);
  EXPECT_EQ(a.presend_inv_blocks, b.presend_inv_blocks);
  EXPECT_EQ(a.wu_publishes, b.wu_publishes);
  EXPECT_EQ(a.wu_update_msgs, b.wu_update_msgs);
  EXPECT_EQ(a.wu_update_blocks, b.wu_update_blocks);
  EXPECT_EQ(a.cc_flushes, b.cc_flushes);
  EXPECT_EQ(a.cc_flushed_entries, b.cc_flushed_entries);
  EXPECT_EQ(a.cc_merged_flushes, b.cc_merged_flushes);
  EXPECT_EQ(a.cc_merged_entries, b.cc_merged_entries);
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
// The windowed canon, frozen: every column of testutil::kMicroPins —
// messages, bytes, events, exec time, faults, memory image and trace digest
// of every protocol at three block sizes — on the traced serial run
// (golden_stats_test.cc checks the same rows untraced); any drift here means
// simulated behavior changed.

// ctest names each case by its parameter's printed bytes, so the parameter
// keeps the 56-byte layout these cases have always been named by: a
// kMicroPins row without its events and faults columns. The test looks the
// full row up and checks every column.
struct WindowedPin {
  ProtocolKind kind;
  std::uint32_t block_size;
  std::uint64_t msgs, bytes;
  sim::Time exec;
  std::uint64_t mem_hash, trace_events, trace_hash;
};
static_assert(sizeof(WindowedPin) == 56, "padding would leak into the names");

constexpr auto kWindowedPins = [] {
  std::array<WindowedPin, std::size(testutil::kMicroPins)> pins{};
  for (std::size_t i = 0; i < pins.size(); ++i) {
    const testutil::MicroPin& p = testutil::kMicroPins[i];
    pins[i] = {p.kind, p.block_size, p.msgs,         p.bytes,
               p.exec, p.mem_hash,   p.trace_events, p.trace_hash};
  }
  return pins;
}();

const testutil::MicroPin& micro_pin(const WindowedPin& w) {
  for (const testutil::MicroPin& p : testutil::kMicroPins) {
    if (p.kind == w.kind && p.block_size == w.block_size) return p;
  }
  ADD_FAILURE() << "no kMicroPins row for this case";
  return testutil::kMicroPins[0];
}

class WindowedGoldenMatrix : public ::testing::TestWithParam<WindowedPin> {};

TEST_P(WindowedGoldenMatrix, FiberWindowedPinned) {
  const testutil::MicroPin& pin = micro_pin(GetParam());
  const WorkloadResult r = run_serial_windowed(pin.kind, pin.block_size);
  EXPECT_EQ(r.msgs, pin.msgs);
  EXPECT_EQ(r.bytes, pin.bytes);
  EXPECT_EQ(r.events, pin.events);
  EXPECT_EQ(r.exec, pin.exec);
  EXPECT_EQ(testutil::total_faults(r), pin.faults);
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

// ---- The ring at the CI floor's width ---------------------------------------
// host_throughput's ring leg at its quick size: 64 nodes, every node writes
// its own 16 blocks and reads its neighbour's, for 2 rounds, under
// predictive with coalescing off. Every lane has protocol work in every
// window, at four times the width of any other case here, so this is the
// run in which TSan sees the workload that CI's ring speedup floor measures.

WorkloadResult run_ring64(sim::Backend backend, int workers) {
  constexpr int kNodes = 64;
  constexpr int kBlocks = 16;
  constexpr int kRounds = 2;
  runtime::MachineConfig cfg = runtime::MachineConfig::cm5_blizzard(kNodes, 32);
  cfg.backend = backend;
  cfg.workers = workers;
  cfg.trace.enabled = true;  // in-memory: the digest is compared
  runtime::System sys(cfg, ProtocolKind::kPredictive);
  sys.predictive()->set_coalescing(false);
  std::vector<mem::Addr> base;
  for (int n = 0; n < kNodes; ++n)
    base.push_back(sys.space().alloc_on_node(n, kBlocks * 32));
  sys.run([&](runtime::NodeCtx& c) {
    const auto id = static_cast<std::size_t>(c.id());
    const mem::Addr mine = base[id];
    const mem::Addr next = base[(id + 1) % kNodes];
    for (int r = 0; r < kRounds; ++r) {
      c.phase(0);
      for (int b = 0; b < kBlocks; ++b)
        c.write<int>(mine + static_cast<mem::Addr>(b) * 32, r + b);
      c.barrier();
      c.phase(1);
      for (int b = 0; b < kBlocks; ++b) {
        volatile int v = c.read<int>(next + static_cast<mem::Addr>(b) * 32);
        (void)v;
      }
      c.barrier();
    }
  });
  return testutil::collect_result(sys);
}

TEST(ParallelRing64, WorkersMatchSerial) {
  const WorkloadResult serial = run_ring64(sim::Backend::kFiber, 1);
  EXPECT_GT(serial.msgs, 0u);
  EXPECT_GT(serial.trace_summary.presend_installs, 0u);
  for (int workers : {2, 4}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    const WorkloadResult par = run_ring64(sim::Backend::kParallel, workers);
    EXPECT_GT(par.host.win_releases, 0u)
        << "the pool never released a helper; this test has gone vacuous";
    expect_equal(serial, par);
  }
}

// ---- Wide machines ----------------------------------------------------------
// Scale.WidePatternPins' three patterns at 256 nodes under stache, predictive
// and ccached, each serially and at 2 and 4 workers. In most of their
// windows a few of the 256 lanes run (the readers, a home, node 0), so these
// are the runs that show a boundary which skips a lane's staged sends, gate
// or drained rings: every counter, the memory hash and the trace digest
// must match the serial run.

struct WideCase {
  testutil::WidePattern pattern;
  ProtocolKind kind;
};

class ParallelWide256 : public ::testing::TestWithParam<WideCase> {};

TEST_P(ParallelWide256, WorkersMatchSerial) {
  const WideCase wc = GetParam();
  const WorkloadResult serial = testutil::run_wide_pattern(
      wc.pattern, wc.kind, sim::Backend::kFiber, 1, /*traced=*/true);
  EXPECT_GT(serial.msgs, 0u);
  for (int workers : {2, 4}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    expect_equal(serial,
                 testutil::run_wide_pattern(wc.pattern, wc.kind,
                                            sim::Backend::kParallel, workers,
                                            /*traced=*/true));
  }
}

constexpr WideCase kWideCases[] = {
    {testutil::WidePattern::kRing, ProtocolKind::kStache},
    {testutil::WidePattern::kRing, ProtocolKind::kPredictive},
    {testutil::WidePattern::kRing, ProtocolKind::kCCached},
    {testutil::WidePattern::kBcast, ProtocolKind::kStache},
    {testutil::WidePattern::kBcast, ProtocolKind::kPredictive},
    {testutil::WidePattern::kBcast, ProtocolKind::kCCached},
    {testutil::WidePattern::kReduce, ProtocolKind::kStache},
    {testutil::WidePattern::kReduce, ProtocolKind::kPredictive},
    {testutil::WidePattern::kReduce, ProtocolKind::kCCached},
};

std::string wide_case_name(const ::testing::TestParamInfo<WideCase>& info) {
  constexpr const char* kNames[] = {"Ring", "Bcast", "Reduce"};
  return kNames[static_cast<int>(info.param.pattern)] +
         protocol_suffix(info.param.kind);
}

INSTANTIATE_TEST_SUITE_P(Patterns, ParallelWide256,
                         ::testing::ValuesIn(kWideCases), wide_case_name);

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
// Holding one source's staged records past their window boundary is exactly
// the bug class the conservative protocol exists to exclude. With the hook
// set, deliveries slip a window, so the run must diverge from the serial
// canon — if this test ever sees equal digests, the equivalence tier has
// lost its teeth.

TEST(ParallelPlantedBug, DelayedWindowFlushIsCaught) {
  const WorkloadResult good = run_serial_windowed(ProtocolKind::kStache, 32);
  WorkloadResult bad;
  {
    check::ScopedBugHook hook("delay-window-flush");
    bad = run_parallel(ProtocolKind::kStache, 32, /*workers=*/2);
  }
  // The run completes (the engine's final boundary pass guarantees held
  // records still drain) but its canon differs.
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
