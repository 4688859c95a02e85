// Write-update protocol edge cases beyond the basics in predictive_test.cc:
// range-filtered publish, multi-writer forwarding, upgrade-in-place, and
// traffic accounting.
#include <gtest/gtest.h>

#include "runtime/system.h"

namespace presto::runtime {
namespace {

MachineConfig tiny(int nodes) {
  MachineConfig m = MachineConfig::cm5_blizzard(nodes, 32);
  m.mem.page_size = 256;
  return m;
}

TEST(WriteUpdate, PublishRangeFiltersBlocks) {
  System sys(tiny(3), ProtocolKind::kWriteUpdate);
  auto a = sys.space().alloc_on_node(0, 256);
  sys.run([&](NodeCtx& c) {
    // Readers cache both halves of the region.
    if (c.id() != 0) {
      c.read<int>(a);
      c.read<int>(a + 128);
    }
    c.barrier();
    if (c.id() == 0) {
      c.write<int>(a, 1);
      c.write<int>(a + 128, 2);
    }
    // Publish only the first half.
    c.publish(a, 128);
    c.barrier();
    if (c.id() == 1) {
      EXPECT_EQ(c.read<int>(a), 1);        // updated
      EXPECT_EQ(c.read<int>(a + 128), 0);  // stale: outside published range
    }
    c.barrier();
    // Publishing the rest delivers it.
    c.publish(a + 128, 128);
    c.barrier();
    if (c.id() == 1) { EXPECT_EQ(c.read<int>(a + 128), 2); }
  });
  // Reader 1 never re-faulted: updates arrived via pushes.
  EXPECT_EQ(sys.recorder().node(1).read_faults, 2u);
}

TEST(WriteUpdate, WriteFaultUpgradesInPlaceWithoutMessages) {
  System sys(tiny(2), ProtocolKind::kWriteUpdate);
  auto a = sys.space().alloc_on_node(0, 64);
  sys.run([&](NodeCtx& c) {
    if (c.id() == 1) {
      EXPECT_EQ(c.read<int>(a), 0);  // fetch: ReadOnly copy
      const auto msgs_before = sys.recorder().node(1).msgs_sent;
      c.write<int>(a, 5);  // upgrade in place: no invalidation round
      EXPECT_EQ(sys.recorder().node(1).msgs_sent, msgs_before);
      EXPECT_EQ(c.read<int>(a), 5);  // own copy readable
    }
    c.barrier();
    // The home still has the old value until a publish.
    if (c.id() == 0) { EXPECT_EQ(c.read<int>(a), 0); }
    c.barrier();
    c.publish(a, 64);
    c.barrier();
    if (c.id() == 0) { EXPECT_EQ(c.read<int>(a), 5); }
  });
}

TEST(WriteUpdate, TwoWritersToDistinctBlocksBothForward) {
  System sys(tiny(4), ProtocolKind::kWriteUpdate);
  auto a = sys.space().alloc_on_node(0, 256);
  sys.run([&](NodeCtx& c) {
    // Node 3 caches both blocks.
    if (c.id() == 3) {
      c.read<int>(a);
      c.read<int>(a + 64);
    }
    c.barrier();
    if (c.id() == 1) c.write<int>(a, 11);
    if (c.id() == 2) c.write<int>(a + 64, 22);
    c.publish(0, c.space().size_bytes());
    c.barrier();
    if (c.id() == 3) {
      EXPECT_EQ(c.read<int>(a), 11);
      EXPECT_EQ(c.read<int>(a + 64), 22);
    }
    if (c.id() == 0) {
      EXPECT_EQ(c.read<int>(a), 11);
      EXPECT_EQ(c.read<int>(a + 64), 22);
    }
  });
  EXPECT_EQ(sys.recorder().node(3).read_faults, 2u);
  EXPECT_GT(sys.recorder().sum(&stats::NodeCounters::wu_update_msgs), 0u);
}

TEST(WriteUpdate, ContiguousDirtyBlocksCoalesceToHome) {
  System sys(tiny(2), ProtocolKind::kWriteUpdate);
  auto a = sys.space().alloc_on_node(0, 512);
  sys.run([&](NodeCtx& c) {
    if (c.id() == 1)
      for (int b = 0; b < 16; ++b) c.write<int>(a + b * 32, b);
    const auto msgs_before = c.counters().wu_update_msgs;
    c.publish(a, 512);
    if (c.id() == 1) {
      // 16 contiguous dirty blocks travelled in one run to the home.
      EXPECT_EQ(c.counters().wu_update_msgs, msgs_before + 1);
      EXPECT_EQ(c.counters().wu_update_blocks, 16u);
    }
    c.barrier();
    if (c.id() == 0) {
      for (int b = 0; b < 16; ++b) EXPECT_EQ(c.read<int>(a + b * 32), b);
    }
  });
}

TEST(WriteUpdate, RepublishingUnchangedDataIsIdempotent) {
  System sys(tiny(3), ProtocolKind::kWriteUpdate);
  auto a = sys.space().alloc_on_node(0, 64);
  sys.run([&](NodeCtx& c) {
    if (c.id() == 2) c.read<int>(a);
    c.barrier();
    for (int round = 0; round < 3; ++round) {
      if (c.id() == 0) c.write<int>(a, round);
      c.publish(a, 64);
      c.barrier();
      if (c.id() == 2) { EXPECT_EQ(c.read<int>(a), round); }
      c.barrier();
    }
  });
}

}  // namespace
}  // namespace presto::runtime
