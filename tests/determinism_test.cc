// Determinism regression: the simulator must produce identical results on
// identical inputs — same per-node counters, same network totals, same
// final memory contents and access tags — run after run.
#include <gtest/gtest.h>

#include "golden_workload.h"

using namespace presto;

namespace {

void expect_identical(const testutil::WorkloadResult& a,
                      const testutil::WorkloadResult& b) {
  EXPECT_EQ(a.msgs, b.msgs);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.mem_hash, b.mem_hash);
  EXPECT_EQ(a.exec, b.exec);
  EXPECT_EQ(a.events, b.events);
  ASSERT_EQ(a.counters.size(), b.counters.size());
  for (std::size_t n = 0; n < a.counters.size(); ++n) {
    const auto& x = a.counters[n];
    const auto& y = b.counters[n];
    EXPECT_EQ(x.shared_reads, y.shared_reads) << "node " << n;
    EXPECT_EQ(x.shared_writes, y.shared_writes) << "node " << n;
    EXPECT_EQ(x.read_faults, y.read_faults) << "node " << n;
    EXPECT_EQ(x.write_faults, y.write_faults) << "node " << n;
    EXPECT_EQ(x.local_faults, y.local_faults) << "node " << n;
    EXPECT_EQ(x.msgs_sent, y.msgs_sent) << "node " << n;
    EXPECT_EQ(x.bytes_sent, y.bytes_sent) << "node " << n;
    EXPECT_EQ(x.presend_blocks_sent, y.presend_blocks_sent) << "node " << n;
    EXPECT_EQ(x.presend_blocks_received, y.presend_blocks_received)
        << "node " << n;
    EXPECT_EQ(x.presend_msgs, y.presend_msgs) << "node " << n;
    EXPECT_EQ(x.schedule_entries, y.schedule_entries) << "node " << n;
    EXPECT_EQ(x.remote_wait, y.remote_wait) << "node " << n;
    EXPECT_EQ(x.presend, y.presend) << "node " << n;
    EXPECT_EQ(x.barrier_wait, y.barrier_wait) << "node " << n;
    EXPECT_EQ(x.lock_wait, y.lock_wait) << "node " << n;
    EXPECT_EQ(x.finish, y.finish) << "node " << n;
  }
}

TEST(Determinism, StacheRepeatedRunsIdentical) {
  const auto a = testutil::run_micro_workload(runtime::ProtocolKind::kStache);
  const auto b = testutil::run_micro_workload(runtime::ProtocolKind::kStache);
  expect_identical(a, b);
}

TEST(Determinism, PredictiveRepeatedRunsIdentical) {
  const auto a =
      testutil::run_micro_workload(runtime::ProtocolKind::kPredictive);
  const auto b =
      testutil::run_micro_workload(runtime::ProtocolKind::kPredictive);
  expect_identical(a, b);
}

}  // namespace
