// util/pool.h: the parallel experiment driver must be deterministic (index-
// ordered results identical to a serial run), propagate failures, and safely
// run many independent Engine instances concurrently — each engine is
// internally sequential, so instance-level parallelism is the only host
// parallelism the simulator has.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>

#include "golden_workload.h"
#include "util/pool.h"

namespace presto {
namespace {

TEST(PoolTest, ResultsAreIndexOrdered) {
  const auto out = util::parallel_map(64, 8, [](int i) { return i * i; });
  ASSERT_EQ(out.size(), 64u);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)], i * i);
}

TEST(PoolTest, SerialAndParallelAgree) {
  const auto serial =
      util::parallel_map(17, 1, [](int i) { return std::to_string(i * 3); });
  const auto parallel =
      util::parallel_map(17, 4, [](int i) { return std::to_string(i * 3); });
  EXPECT_EQ(serial, parallel);
}

TEST(PoolTest, ZeroAndNegativeCountsAreEmpty) {
  EXPECT_TRUE(util::parallel_map(0, 4, [](int) { return 1; }).empty());
  EXPECT_TRUE(util::parallel_map(-3, 4, [](int) { return 1; }).empty());
}

TEST(PoolTest, FirstExceptionPropagates) {
  EXPECT_THROW(util::parallel_map(32, 4,
                                  [](int i) {
                                    if (i == 7) throw std::runtime_error("boom");
                                    return i;
                                  }),
               std::runtime_error);
  // Serial path too.
  EXPECT_THROW(util::parallel_map(32, 1,
                                  [](int i) {
                                    if (i == 7) throw std::runtime_error("boom");
                                    return i;
                                  }),
               std::runtime_error);
}

TEST(PoolTest, EveryIndexRunsExactlyOnce) {
  std::atomic<int> calls{0};
  util::parallel_for(100, 8, [&](int) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 100);
}

// The load-bearing property: N complete Systems (engine + protocol + memory)
// running concurrently on the pool produce exactly the results a serial loop
// produces — no shared mutable state leaks between instances (the fiber
// backend's switch bookkeeping is thread-local by construction).
TEST(PoolTest, ConcurrentEnginesMatchSerialRuns) {
  const runtime::ProtocolKind kinds[] = {
      runtime::ProtocolKind::kStache,
      runtime::ProtocolKind::kPredictive,
      runtime::ProtocolKind::kPredictiveAnticipate,
  };
  auto run_one = [&](int i) {
    return testutil::run_micro_workload(kinds[i % 3], /*nodes=*/2 + i % 3,
                                        /*rounds=*/3);
  };
  const auto serial = util::parallel_map(9, 1, run_one);
  const auto parallel = util::parallel_map(9, 4, run_one);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE("instance " + std::to_string(i));
    EXPECT_EQ(serial[i].msgs, parallel[i].msgs);
    EXPECT_EQ(serial[i].bytes, parallel[i].bytes);
    EXPECT_EQ(serial[i].events, parallel[i].events);
    EXPECT_EQ(serial[i].exec, parallel[i].exec);
    EXPECT_EQ(serial[i].mem_hash, parallel[i].mem_hash);
  }
}

}  // namespace
}  // namespace presto
