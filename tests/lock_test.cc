// Shared-lock tests, including a regression for a home-queue starvation bug:
// a dequeued pending request must not be overtaken by requests arriving in
// the handler-occupancy gap, or spinning acquirers starve the releaser.
#include <gtest/gtest.h>

#include "runtime/lock.h"
#include "runtime/system.h"

namespace presto::runtime {
namespace {

MachineConfig tiny(int nodes) { return MachineConfig::cm5_blizzard(nodes, 32); }

class LockContention : public ::testing::TestWithParam<int> {};

TEST_P(LockContention, MutualExclusionAndProgress) {
  const int nodes = GetParam();
  System sys(tiny(nodes), ProtocolKind::kStache);
  auto lock = SharedLock::create(sys.space(), 0);
  const auto counter = sys.space().alloc_on_node(0, 64);
  const int rounds = 4;
  sys.run([&](NodeCtx& c) {
    for (int r = 0; r < rounds; ++r) {
      lock.acquire(c);
      // Critical section: non-atomic read-modify-write over two accesses;
      // mutual exclusion violations lose increments.
      const auto v = c.read<std::uint64_t>(counter);
      c.charge(sim::microseconds(3));
      c.write<std::uint64_t>(counter, v + 1);
      lock.release(c);
    }
    c.barrier();
    if (c.id() == 0) {
      EXPECT_EQ(c.read<std::uint64_t>(counter),
                static_cast<std::uint64_t>(nodes * rounds));
    }
  });
}

// 16+ nodes is the regression case: before the fix, spinners re-queued at
// the tail while fresh requests jumped the queue, so the releaser's upgrade
// request starved and the run never terminated.
INSTANTIATE_TEST_SUITE_P(Nodes, LockContention,
                         ::testing::Values(2, 4, 8, 16, 24),
                         ::testing::PrintToStringParamName());

TEST(SharedLock, UncontendedAcquireIsCheap) {
  System sys(tiny(2), ProtocolKind::kStache);
  auto lock = SharedLock::create(sys.space(), 0);
  sys.run([&](NodeCtx& c) {
    if (c.id() == 0) {
      lock.acquire(c);
      lock.release(c);
      lock.acquire(c);  // home-local reacquire: no protocol traffic
      lock.release(c);
    }
    c.barrier();
  });
  EXPECT_EQ(sys.recorder().node(0).lock_wait, 0);
}

TEST(SharedLock, HandoffMovesOwnership) {
  System sys(tiny(3), ProtocolKind::kStache);
  auto lock = SharedLock::create(sys.space(), 0);
  const auto word = sys.space().alloc_on_node(1, 64);
  sys.run([&](NodeCtx& c) {
    for (int turn = 0; turn < 3; ++turn) {
      if (c.id() == turn) {
        lock.acquire(c);
        c.write<int>(word, turn);
        lock.release(c);
      }
      c.barrier();
      EXPECT_EQ(c.read<int>(word), turn);
      c.barrier();
    }
  });
}

}  // namespace
}  // namespace presto::runtime
