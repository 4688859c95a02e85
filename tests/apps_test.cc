// Cross-version integration tests for the three benchmark applications:
// every protocol/directive combination must compute the same answer, the
// predictive versions must actually communicate less, and the physics must
// be sane.
#include <gtest/gtest.h>

#include <cmath>

#include "apps/adaptive/adaptive.h"
#include "apps/barnes/barnes.h"
#include "apps/ocean/ocean.h"
#include "apps/ranker/ranker.h"
#include "apps/water/splash_water.h"
#include "apps/water/water.h"

namespace presto::apps {
namespace {

using runtime::MachineConfig;
using runtime::ProtocolKind;

AdaptiveParams small_adaptive() {
  AdaptiveParams p;
  p.n = 16;
  p.iters = 10;
  return p;
}

BarnesParams small_barnes() {
  BarnesParams p;
  p.bodies = 256;
  p.steps = 2;
  return p;
}

WaterParams small_water() {
  WaterParams p;
  p.molecules = 64;
  p.steps = 4;
  return p;
}

OceanParams small_ocean() {
  OceanParams p;
  p.n = 16;
  p.iters = 6;
  return p;
}

RankerParams small_ranker() {
  RankerParams p;
  p.vertices = 96;
  p.degree = 4;
  p.iters = 6;
  return p;
}

TEST(Adaptive, OptimizedMatchesUnoptimizedAndRefines) {
  const auto m = MachineConfig::cm5_blizzard(4, 32);
  const auto unopt =
      run_adaptive(small_adaptive(), m, ProtocolKind::kStache, false);
  const auto opt =
      run_adaptive(small_adaptive(), m, ProtocolKind::kPredictive, true);
  EXPECT_DOUBLE_EQ(unopt.checksum, opt.checksum);
  EXPECT_GT(unopt.checksum, 0.0);  // potential spread from the hot edge
  // The predictive version converts remote waits into presends.
  EXPECT_LT(opt.report.remote_wait, unopt.report.remote_wait);
  EXPECT_GT(opt.report.presend_blocks, 0u);
  EXPECT_GT(opt.report.local_hit_pct, unopt.report.local_hit_pct);
}

TEST(Adaptive, RefinementGrowsTheScheduleIncrementally) {
  const auto m = MachineConfig::cm5_blizzard(4, 32);
  AdaptiveParams p = small_adaptive();
  p.iters = 3;
  const auto a3 = run_adaptive(p, m, ProtocolKind::kPredictive, true);
  p.iters = 10;
  const auto a10 = run_adaptive(p, m, ProtocolKind::kPredictive, true);
  // More iterations -> more refinement -> more presend traffic per phase.
  EXPECT_GT(a10.report.presend_blocks, a3.report.presend_blocks);
}

TEST(Adaptive, DeterministicAcrossRuns) {
  const auto m = MachineConfig::cm5_blizzard(4, 32);
  const auto r1 =
      run_adaptive(small_adaptive(), m, ProtocolKind::kPredictive, true);
  const auto r2 =
      run_adaptive(small_adaptive(), m, ProtocolKind::kPredictive, true);
  EXPECT_DOUBLE_EQ(r1.checksum, r2.checksum);
  EXPECT_EQ(r1.report.exec, r2.report.exec);
  EXPECT_EQ(r1.report.msgs, r2.report.msgs);
}

TEST(Adaptive, BlockSizeChangesCostsNotValues) {
  const auto a32 = run_adaptive(small_adaptive(),
                                MachineConfig::cm5_blizzard(4, 32),
                                ProtocolKind::kStache, false);
  const auto a256 = run_adaptive(small_adaptive(),
                                 MachineConfig::cm5_blizzard(4, 256),
                                 ProtocolKind::kStache, false);
  EXPECT_DOUBLE_EQ(a32.checksum, a256.checksum);
  EXPECT_NE(a32.report.exec, a256.report.exec);
}

TEST(Adaptive, WriteUpdateMatchesStache) {
  const auto m = MachineConfig::cm5_blizzard(4, 32);
  const auto stache =
      run_adaptive(small_adaptive(), m, ProtocolKind::kStache, false);
  const auto wu =
      run_adaptive(small_adaptive(), m, ProtocolKind::kWriteUpdate, false);
  EXPECT_DOUBLE_EQ(wu.checksum, stache.checksum);
}

TEST(Barnes, AllVersionsAgree) {
  const auto m = MachineConfig::cm5_blizzard(4, 32);
  const auto unopt = run_barnes(small_barnes(), m, ProtocolKind::kStache, false);
  const auto opt =
      run_barnes(small_barnes(), m, ProtocolKind::kPredictive, true);
  const auto spmd =
      run_barnes(small_barnes(), m, ProtocolKind::kWriteUpdate, false);
  EXPECT_DOUBLE_EQ(unopt.checksum, opt.checksum);
  EXPECT_DOUBLE_EQ(unopt.checksum, spmd.checksum);
  EXPECT_NE(unopt.checksum, 0.0);
}

TEST(Barnes, PredictiveReducesRemoteWait) {
  const auto m = MachineConfig::cm5_blizzard(4, 32);
  const auto unopt = run_barnes(small_barnes(), m, ProtocolKind::kStache, false);
  const auto opt =
      run_barnes(small_barnes(), m, ProtocolKind::kPredictive, true);
  EXPECT_LT(opt.report.remote_wait, unopt.report.remote_wait);
  EXPECT_GT(opt.report.presend_blocks, 0u);
}

TEST(Barnes, SpatialLocalityHelpsBigBlocksUnderStache) {
  const auto b32 = run_barnes(small_barnes(),
                              MachineConfig::cm5_blizzard(4, 32),
                              ProtocolKind::kStache, false);
  const auto b1024 = run_barnes(small_barnes(),
                                MachineConfig::cm5_blizzard(4, 1024),
                                ProtocolKind::kStache, false);
  EXPECT_DOUBLE_EQ(b32.checksum, b1024.checksum);
  // Morton-coherent bodies/cells: larger blocks mean far fewer faults.
  EXPECT_LT(b1024.report.faults, b32.report.faults / 2);
}

TEST(Water, OptimizedMatchesUnoptimized) {
  const auto m = MachineConfig::cm5_blizzard(4, 32);
  const auto unopt = run_water(small_water(), m, ProtocolKind::kStache, false);
  const auto opt = run_water(small_water(), m, ProtocolKind::kPredictive, true);
  EXPECT_DOUBLE_EQ(unopt.checksum, opt.checksum);
  EXPECT_LT(opt.report.remote_wait, unopt.report.remote_wait);
}

TEST(Water, WriteUpdateMatchesStache) {
  const auto m = MachineConfig::cm5_blizzard(4, 32);
  const auto stache = run_water(small_water(), m, ProtocolKind::kStache, false);
  const auto wu =
      run_water(small_water(), m, ProtocolKind::kWriteUpdate, false);
  EXPECT_DOUBLE_EQ(wu.checksum, stache.checksum);
}

TEST(Water, SplashVariantComputesSamePhysics) {
  const auto m = MachineConfig::cm5_blizzard(4, 32);
  const auto cstar = run_water(small_water(), m, ProtocolKind::kStache, false);
  const auto splash = run_water_splash(small_water(), m);
  // Different accumulation order: equal up to floating-point tolerance.
  EXPECT_NEAR(splash.checksum, cstar.checksum,
              1e-6 * std::abs(cstar.checksum) + 1e-9);
  // The lock-based variant pays for its shared-force accumulation.
  EXPECT_GT(splash.report.lock_wait, 0);
}

TEST(Water, StaticPatternReachesSteadyStateHits) {
  WaterParams p = small_water();
  p.steps = 8;
  const auto m = MachineConfig::cm5_blizzard(4, 32);
  const auto opt = run_water(p, m, ProtocolKind::kPredictive, true);
  const auto unopt = run_water(p, m, ProtocolKind::kStache, false);
  // Static repetitive pattern: optimized version satisfies nearly all
  // position reads locally after the first step.
  EXPECT_GT(opt.report.local_hit_pct, unopt.report.local_hit_pct);
  EXPECT_LT(opt.report.faults, unopt.report.faults / 2);
}

TEST(Ocean, AllProtocolsAgree) {
  const auto m = MachineConfig::cm5_blizzard(4, 32);
  const auto unopt = run_ocean(small_ocean(), m, ProtocolKind::kStache, false);
  const auto opt = run_ocean(small_ocean(), m, ProtocolKind::kPredictive, true);
  const auto wu = run_ocean(small_ocean(), m, ProtocolKind::kWriteUpdate, false);
  const auto cc = run_ocean(small_ocean(), m, ProtocolKind::kCCached, false);
  EXPECT_DOUBLE_EQ(unopt.checksum, opt.checksum);
  EXPECT_DOUBLE_EQ(unopt.checksum, wu.checksum);
  EXPECT_DOUBLE_EQ(unopt.checksum, cc.checksum);
  EXPECT_GT(unopt.checksum, 0.0);  // potential spread from the hot edge
}

TEST(Ocean, CCachedMatchesStacheOnNonCommutativeWork) {
  // Ocean declares no commutative regions, so ccached must degrade to
  // Stache exactly: same simulated time, same message count, same faults.
  const auto m = MachineConfig::cm5_blizzard(4, 32);
  const auto st = run_ocean(small_ocean(), m, ProtocolKind::kStache, false);
  const auto cc = run_ocean(small_ocean(), m, ProtocolKind::kCCached, false);
  EXPECT_EQ(st.report.exec, cc.report.exec);
  EXPECT_EQ(st.report.msgs, cc.report.msgs);
  EXPECT_EQ(st.report.bytes, cc.report.bytes);
  EXPECT_EQ(st.report.faults, cc.report.faults);
  EXPECT_DOUBLE_EQ(st.checksum, cc.checksum);
}

TEST(Ocean, StaticStencilFavoursPredictive) {
  // The boundary-row exchange repeats identically every sweep — predictive
  // schedules converge and presends replace nearly all remote waits.
  const auto m = MachineConfig::cm5_blizzard(4, 32);
  const auto unopt = run_ocean(small_ocean(), m, ProtocolKind::kStache, false);
  const auto opt = run_ocean(small_ocean(), m, ProtocolKind::kPredictive, true);
  EXPECT_LT(opt.report.remote_wait, unopt.report.remote_wait);
  EXPECT_GT(opt.report.presend_blocks, 0u);
}

TEST(Ranker, AllProtocolsAgreeExactly) {
  // Integer fixed-point ranks: addition commutes exactly, so every
  // protocol — including the privatized ccached merge and the write-update
  // host-side reduction — lands on bit-identical ranks.
  const auto m = MachineConfig::cm5_blizzard(4, 32);
  const auto st = run_ranker(small_ranker(), m, ProtocolKind::kStache, false);
  const auto pr =
      run_ranker(small_ranker(), m, ProtocolKind::kPredictive, true);
  const auto an =
      run_ranker(small_ranker(), m, ProtocolKind::kPredictiveAnticipate, true);
  const auto wu =
      run_ranker(small_ranker(), m, ProtocolKind::kWriteUpdate, false);
  const auto cc = run_ranker(small_ranker(), m, ProtocolKind::kCCached, false);
  EXPECT_DOUBLE_EQ(st.checksum, pr.checksum);
  EXPECT_DOUBLE_EQ(st.checksum, an.checksum);
  EXPECT_DOUBLE_EQ(st.checksum, wu.checksum);
  EXPECT_DOUBLE_EQ(st.checksum, cc.checksum);
  EXPECT_GT(st.checksum, 0.0);
}

TEST(Ranker, CCachedCutsTheWriteStorm) {
  // Under Stache every push is a remote read-modify-write and the power-law
  // head blocks ping-pong between all nodes; ccached privatizes the adds
  // and pays one merge round trip per touched block per node instead.
  const auto m = MachineConfig::cm5_blizzard(4, 32);
  const auto st = run_ranker(small_ranker(), m, ProtocolKind::kStache, false);
  const auto cc = run_ranker(small_ranker(), m, ProtocolKind::kCCached, false);
  EXPECT_LT(cc.report.faults, st.report.faults);
  EXPECT_LT(cc.report.remote_wait, st.report.remote_wait);
  EXPECT_LT(cc.report.exec, st.report.exec);
}

TEST(Ranker, DriftingEdgesDefeatPredictiveSchedules) {
  // The edge set is re-drawn every iteration, so last iteration's learned
  // schedule is always stale; ccached must beat predictive here.
  const auto m = MachineConfig::cm5_blizzard(4, 32);
  const auto pr =
      run_ranker(small_ranker(), m, ProtocolKind::kPredictive, true);
  const auto cc = run_ranker(small_ranker(), m, ProtocolKind::kCCached, false);
  EXPECT_LT(cc.report.remote_wait, pr.report.remote_wait);
}

TEST(Ranker, DeterministicAcrossRuns) {
  const auto m = MachineConfig::cm5_blizzard(4, 32);
  const auto r1 = run_ranker(small_ranker(), m, ProtocolKind::kCCached, false);
  const auto r2 = run_ranker(small_ranker(), m, ProtocolKind::kCCached, false);
  EXPECT_DOUBLE_EQ(r1.checksum, r2.checksum);
  EXPECT_EQ(r1.report.exec, r2.report.exec);
  EXPECT_EQ(r1.report.msgs, r2.report.msgs);
}

TEST(Water, EnergyScaleIsPhysical) {
  const auto m = MachineConfig::cm5_blizzard(4, 32);
  const auto r = run_water(small_water(), m, ProtocolKind::kStache, false);
  // LJ lattice at rho=0.8: per-molecule energy is O(1..10) in reduced
  // units; the trace accumulates steps * total energy.
  EXPECT_TRUE(std::isfinite(r.checksum));
  EXPECT_NE(r.checksum, 0.0);
}

}  // namespace
}  // namespace presto::apps
