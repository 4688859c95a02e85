// Write-update protocol edge cases beyond the basics in predictive_test.cc:
// range-filtered publish, multi-writer forwarding, upgrade-in-place,
// traffic accounting, and a reader set that spills past 64 nodes.
#include <gtest/gtest.h>

#include <cstdint>

#include "check/bughook.h"
#include "check/oracle.h"
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

// Nodes 63 and 127 of a 128-node machine read a block homed on node 0, so
// the home's reader set spills past the NodeSet's inline word. Node 127
// writes and publishes the block, and the home forwards it to its readers
// without the writer: clearing 127 from {63, 127} empties the spill array,
// which is where the drop-spill-sharer plant also loses reader 63. Returns
// the value node 63 then reads and the oracle's violation count.
struct SpillShrinkRun {
  int read_by_63;
  std::uint64_t violations;
};

SpillShrinkRun run_spill_shrink() {
  MachineConfig m = MachineConfig::cm5_blizzard(128, 32);
  m.mem.page_size = 256;
  System sys(m, ProtocolKind::kWriteUpdate);
  check::Oracle& oracle = sys.enable_oracle(check::FailMode::kRecord);
  oracle.set_strict_reads(true);  // write -> publish -> barrier -> read
  const mem::Addr a = sys.space().alloc_on_node(0, 32);
  int read_by_63 = -1;
  sys.run([&](NodeCtx& c) {
    if (c.id() == 63 || c.id() == 127) c.read<int>(a);
    c.barrier();
    if (c.id() == 127) {
      c.write<int>(a, 7);
      c.publish(a, 32);
    }
    c.barrier();
    if (c.id() == 63) read_by_63 = c.read<int>(a);
  });
  return {read_by_63, oracle.violation_count()};
}

TEST(WriteUpdate, SpilledReaderSetSurvivesTheWritersRemoval) {
  const SpillShrinkRun clean = run_spill_shrink();
  EXPECT_EQ(clean.read_by_63, 7);
  EXPECT_EQ(clean.violations, 0u);
  // The planted shrink bug drops reader 63, whose copy goes stale: the
  // oracle must see it.
  check::ScopedBugHook hook("drop-spill-sharer");
  const SpillShrinkRun planted = run_spill_shrink();
  EXPECT_EQ(planted.read_by_63, 0);
  EXPECT_GT(planted.violations, 0u);
}

}  // namespace
}  // namespace presto::runtime
