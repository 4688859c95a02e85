// Attribution reconciliation properties over the fuzz corpus and the paper
// apps: the tracer keeps its own accounting (summary) and the reader-side
// analysis recomputes everything from the raw event stream — both must
// reconcile EXACTLY with the protocol's counters. No tolerance, no
// approximation: simulated time is integral and every charge is observed.
//
//   * presend hits + waste + unused == presend_blocks_received (protocol)
//   * miss windows == access faults (one window per fault, all protocols)
//   * Σ miss latency == Σ remote_wait (windows bracket the charge exactly)
//   * reader attribution: fault + transfer + occupancy + queue == total,
//     per class, per phase, and in aggregate; totals match the summary
//   * per-phase presend totals partition the global totals
#include <gtest/gtest.h>

#include "apps/adaptive/adaptive.h"
#include "apps/barnes/barnes.h"
#include "apps/ocean/ocean.h"
#include "apps/ranker/ranker.h"
#include "apps/water/water.h"
#include "check/fuzz.h"
#include "golden_workload.h"
#include "trace/analysis.h"

using namespace presto;

namespace {

using runtime::ProtocolKind;

// `upgrades_in_place`: write-update satisfies a write fault on a ReadOnly
// copy locally (no invalidation in an update protocol), so it bumps
// write_faults without opening a miss window or charging remote_wait —
// the fault-count identity becomes an upper bound there, while the latency
// identity stays exact for every protocol.
void expect_reconciles(const check::TraceCapture& cap,
                       bool upgrades_in_place = false) {
  const trace::Summary& s = cap.summary;
  ASSERT_EQ(s.dropped, 0u) << "drops would break exact reconciliation";

  std::uint64_t faults = 0, presend_received = 0;
  sim::Time remote_wait = 0;
  for (const auto& c : cap.counters) {
    faults += c.read_faults + c.write_faults;
    presend_received += c.presend_blocks_received;
    remote_wait += c.remote_wait;
  }

  // Presend life-cycle: every installed block resolves exactly once.
  EXPECT_EQ(s.presend_installs, presend_received);
  EXPECT_EQ(s.presend_hits + s.presend_waste + s.presend_unused,
            presend_received);

  // One miss window per access fault — plus one per ccached flush round
  // trip, which blocks like a miss without a tag fault — and the windows
  // bracket the protocol's remote_wait accumulation exactly.
  if (upgrades_in_place)
    EXPECT_LE(s.misses, faults);
  else
    EXPECT_EQ(s.misses, faults + cap.cc_flushes);
  EXPECT_EQ(s.miss_latency_total, remote_wait);
  std::uint64_t by_class = 0;
  for (const auto n : s.miss_by_class) by_class += n;
  EXPECT_EQ(by_class, s.misses);

  // Per-phase totals partition the global totals.
  std::uint64_t ph_misses = 0, ph_hits = 0, ph_waste = 0;
  sim::Time ph_lat = 0;
  for (const auto& p : s.phases) {
    ph_misses += p.misses;
    ph_hits += p.presend_hits;
    ph_waste += p.presend_waste;
    ph_lat += p.miss_latency;
  }
  EXPECT_EQ(ph_misses, s.misses);
  EXPECT_EQ(ph_lat, s.miss_latency_total);
  EXPECT_EQ(ph_hits, s.presend_hits);
  EXPECT_EQ(ph_waste, s.presend_waste);

  // Reader-side attribution recomputed from the raw stream.
  const auto att = trace::attribute(cap.data);
  EXPECT_EQ(att.all.count, s.misses);
  EXPECT_EQ(att.all.total, static_cast<std::uint64_t>(s.miss_latency_total));
  for (std::size_t c = 0; c < trace::kNumMissClasses; ++c) {
    SCOPED_TRACE("class " + std::to_string(c));
    EXPECT_EQ(att.by_class[c].count, s.miss_by_class[c]);
    const auto& m = att.by_class[c];
    EXPECT_EQ(m.fault + m.transfer + m.occupancy + m.queue, m.total);
  }
  EXPECT_EQ(att.all.fault + att.all.transfer + att.all.occupancy +
                att.all.queue,
            att.all.total);

  // Phase buckets of the attribution partition the aggregate too.
  trace::MissCosts phase_sum;
  std::uint64_t att_ph_hits = 0, att_ph_waste = 0, att_ph_blocks = 0;
  for (const auto& p : att.phases) {
    phase_sum.add(p.all);
    att_ph_hits += p.presend_hits;
    att_ph_waste += p.presend_waste;
    att_ph_blocks += p.presend_blocks;
    trace::MissCosts cls_sum;
    for (const auto& m : p.by_class) cls_sum.add(m);
    EXPECT_EQ(cls_sum.count, p.all.count);
    EXPECT_EQ(cls_sum.total, p.all.total);
  }
  EXPECT_EQ(phase_sum.count, att.all.count);
  EXPECT_EQ(phase_sum.total, att.all.total);
  EXPECT_EQ(att_ph_hits, s.presend_hits);
  EXPECT_EQ(att_ph_waste, s.presend_waste);
  EXPECT_EQ(att_ph_blocks, s.presend_installs);
}

using FuzzParam = std::tuple<std::uint64_t, ProtocolKind>;

class TracePropertyFuzz : public ::testing::TestWithParam<FuzzParam> {};

TEST_P(TracePropertyFuzz, ReconcilesWithProtocolCounters) {
  const auto [seed, kind] = GetParam();
  const auto prog = check::generate(seed);
  if (kind == ProtocolKind::kWriteUpdate &&
      !check::supports_write_update(prog))
    GTEST_SKIP() << "program not meaningful under write-update";
  check::TraceCapture cap;
  const auto res = check::run_program(prog, kind, net::NetConfig{}, &cap);
  ASSERT_EQ(res.read_mismatches, 0u);
  ASSERT_EQ(res.oracle_violations, 0u) << res.first_violation;
  expect_reconciles(cap);
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, TracePropertyFuzz,
    ::testing::Combine(
        ::testing::Values(1ull, 2ull, 5ull, 11ull, 13ull, 17ull, 29ull),
        ::testing::Values(ProtocolKind::kStache, ProtocolKind::kPredictive,
                          ProtocolKind::kPredictiveAnticipate,
                          ProtocolKind::kCCached)),
    [](const ::testing::TestParamInfo<FuzzParam>& info) -> std::string {
      const std::uint64_t seed = std::get<0>(info.param);
      std::string k;
      switch (std::get<1>(info.param)) {
        case ProtocolKind::kStache: k = "Stache"; break;
        case ProtocolKind::kPredictive: k = "Predictive"; break;
        case ProtocolKind::kPredictiveAnticipate: k = "Anticipate"; break;
        case ProtocolKind::kWriteUpdate: k = "WriteUpdate"; break;
        case ProtocolKind::kCCached: k = "CCached"; break;
      }
      return "Seed" + std::to_string(seed) + k;
    });

// The micro workload under every protocol (write-update included — its
// write-upgrade-in-place path must charge no remote_wait and emit no miss
// window, or the identity breaks).
TEST(TraceProperty, MicroWorkloadAllProtocols) {
  for (const auto kind :
       {ProtocolKind::kStache, ProtocolKind::kPredictive,
        ProtocolKind::kPredictiveAnticipate, ProtocolKind::kWriteUpdate}) {
    SCOPED_TRACE(runtime::protocol_kind_name(kind));
    const auto r = testutil::run_micro_workload(
        kind, /*nodes=*/4, /*rounds=*/6,
        sim::default_backend(), /*block_size=*/32, /*traced=*/true);
    ASSERT_TRUE(r.traced);
    check::TraceCapture cap;
    cap.summary = r.trace_summary;
    cap.data = r.trace_data;
    cap.counters = r.counters;
    expect_reconciles(cap, kind == ProtocolKind::kWriteUpdate);
  }
}

// The three paper applications at small scale: report-surfaced attribution
// must reconcile with the report's own protocol counters.
void expect_report_reconciles(const stats::Report& r) {
  ASSERT_TRUE(r.traced);
  EXPECT_EQ(r.trace_dropped, 0u);
  EXPECT_GT(r.trace_events, 0u);
  EXPECT_EQ(r.miss_cold + r.miss_invalidation + r.miss_presend_waste +
                r.miss_merge,
            r.faults + r.cc_flushes);
  // Every presend-sent block is delivered, so sent == received == resolved.
  EXPECT_EQ(r.presend_hits + r.presend_waste + r.presend_unused,
            r.presend_blocks);
}

TEST(TraceProperty, BarnesSmallReconciles) {
  apps::BarnesParams params;
  params.bodies = 128;
  params.steps = 2;
  auto m = runtime::MachineConfig::cm5_blizzard(4, 32);
  m.trace.enabled = true;
  const auto r =
      apps::run_barnes(params, m, ProtocolKind::kPredictive, true);
  expect_report_reconciles(r.report);
}

TEST(TraceProperty, WaterSmallReconciles) {
  apps::WaterParams params;
  params.molecules = 64;
  params.steps = 2;
  auto m = runtime::MachineConfig::cm5_blizzard(4, 32);
  m.trace.enabled = true;
  const auto r = apps::run_water(params, m, ProtocolKind::kPredictive, true);
  expect_report_reconciles(r.report);
}

TEST(TraceProperty, AdaptiveSmallReconciles) {
  apps::AdaptiveParams params;
  params.n = 32;
  params.iters = 6;
  auto m = runtime::MachineConfig::cm5_blizzard(4, 32);
  m.trace.enabled = true;
  const auto r =
      apps::run_adaptive(params, m, ProtocolKind::kPredictive, true);
  expect_report_reconciles(r.report);
}

TEST(TraceProperty, OceanSmallReconciles) {
  apps::OceanParams params;
  params.n = 16;
  params.iters = 4;
  auto m = runtime::MachineConfig::cm5_blizzard(4, 32);
  m.trace.enabled = true;
  for (const auto kind : {ProtocolKind::kPredictive, ProtocolKind::kCCached}) {
    SCOPED_TRACE(runtime::protocol_kind_name(kind));
    const auto r = apps::run_ocean(params, m, kind,
                                   kind == ProtocolKind::kPredictive);
    expect_report_reconciles(r.report);
    // No commutative regions: nothing may classify as a merge miss.
    EXPECT_EQ(r.report.miss_merge, 0u);
    EXPECT_EQ(r.report.cc_flushes, 0u);
  }
}

TEST(TraceProperty, RankerMergeTrafficReconciles) {
  apps::RankerParams params;
  params.vertices = 96;
  params.iters = 4;
  auto m = runtime::MachineConfig::cm5_blizzard(4, 32);
  m.trace.enabled = true;
  const auto cc = apps::run_ranker(params, m, ProtocolKind::kCCached, false);
  expect_report_reconciles(cc.report);
  // The push phase is all merge traffic: flush round trips classify as
  // merge misses, and there were real flushes carrying real entries.
  EXPECT_GT(cc.report.cc_flushes, 0u);
  EXPECT_GT(cc.report.cc_entries, 0u);
  EXPECT_GE(cc.report.miss_merge, cc.report.cc_flushes);
  // Under Stache the same pushes are remote rmw faults on commutative
  // blocks — still attributed to the merge class, with no flushes.
  const auto st = apps::run_ranker(params, m, ProtocolKind::kStache, false);
  expect_report_reconciles(st.report);
  EXPECT_GT(st.report.miss_merge, 0u);
  EXPECT_EQ(st.report.cc_flushes, 0u);
}

}  // namespace
