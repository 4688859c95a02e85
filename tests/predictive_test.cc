// Directed tests of the predictive protocol (§3.3–3.4): schedule recording,
// derived marks, presend hits, pre-invalidation, incremental growth, bulk
// coalescing, flush, and the conflict policies.
#include <gtest/gtest.h>

#include "runtime/aggregate.h"
#include "runtime/system.h"

namespace presto::runtime {
namespace {

MachineConfig tiny(int nodes, std::uint32_t block = 32) {
  MachineConfig m = MachineConfig::cm5_blizzard(nodes, block);
  m.mem.page_size = 256;
  return m;
}

proto::PredictiveProtocol& pred(System& sys) {
  auto* p = sys.predictive();
  EXPECT_NE(p, nullptr);
  return *p;
}

TEST(Predictive, ConsumerReadsBecomeLocalHitsAfterFirstIteration) {
  System sys(tiny(3), ProtocolKind::kPredictive);
  auto a = sys.space().alloc_on_node(0, 256);  // home 0
  std::vector<std::uint64_t> faults_per_iter;
  sys.run([&](NodeCtx& c) {
    for (int it = 0; it < 5; ++it) {
      c.phase(7);
      // Producer (home) writes, consumers read in the same phase? No —
      // writes in one phase, reads in the next, as in iterative apps.
      if (c.id() == 0)
        for (int b = 0; b < 4; ++b) c.write<int>(a + b * 32, it * 10 + b);
      c.barrier();
      c.phase(8);
      if (c.id() != 0) {
        for (int b = 0; b < 4; ++b)
          EXPECT_EQ(c.read<int>(a + b * 32), it * 10 + b);
      }
      c.barrier();
      if (c.id() == 1)
        faults_per_iter.push_back(c.counters().read_faults);
    }
  });
  ASSERT_EQ(faults_per_iter.size(), 5u);
  // First iteration faults; later iterations are satisfied by presends.
  EXPECT_EQ(faults_per_iter[0], 4u);
  EXPECT_EQ(faults_per_iter[4], faults_per_iter[1]);
  EXPECT_GT(sys.recorder().node(1).presend_blocks_received, 0u);
}

TEST(Predictive, HomeWritesStopFaultingAfterPreinvalidation) {
  System sys(tiny(3), ProtocolKind::kPredictive);
  auto a = sys.space().alloc_on_node(0, 128);
  std::uint64_t early = 0, late = 0;
  sys.run([&](NodeCtx& c) {
    for (int it = 0; it < 6; ++it) {
      c.phase(0);
      if (c.id() == 0) c.write<int>(a, it);  // invalidates consumer copies
      c.barrier();
      c.phase(1);
      if (c.id() != 0) { EXPECT_EQ(c.read<int>(a), it); }
      c.barrier();
      if (c.id() == 0 && it == 2) early = c.counters().write_faults;
      if (c.id() == 0 && it == 5) late = c.counters().write_faults;
    }
  });
  // After warmup, phase 0's presend pre-invalidates the readers, so the
  // home's writes hit ReadWrite locally and fault no more.
  EXPECT_EQ(late, early);
  EXPECT_GT(early, 0u);
}

TEST(Predictive, ScheduleGrowsIncrementally) {
  System sys(tiny(2), ProtocolKind::kPredictive);
  auto a = sys.space().alloc_on_node(0, 512);
  sys.run([&](NodeCtx& c) {
    auto& p = pred(sys);
    for (int it = 0; it < 4; ++it) {
      c.phase(3);
      // Node 1 touches one more block every iteration (adaptive growth).
      if (c.id() == 1)
        for (int b = 0; b <= it; ++b) c.read<int>(a + b * 32);
      c.barrier();
      if (c.id() == 0) {
        // Home 0's phase-3 schedule covers every block touched so far.
        EXPECT_EQ(p.schedule_size(0, 3),
                  static_cast<std::size_t>(it + 1));
      }
      c.barrier();
    }
  });
}

TEST(Predictive, FlushDiscardsSchedule) {
  System sys(tiny(2), ProtocolKind::kPredictive);
  auto a = sys.space().alloc_on_node(0, 128);
  sys.run([&](NodeCtx& c) {
    c.phase(1);
    if (c.id() == 1) c.read<int>(a);
    c.barrier();
    if (c.id() == 0) { EXPECT_EQ(pred(sys).schedule_size(0, 1), 1u); }
    c.flush_phase(1);
    if (c.id() == 0) { EXPECT_EQ(pred(sys).schedule_size(0, 1), 0u); }
    c.barrier();
  });
}

TEST(Predictive, ConflictBlocksAreSkipped) {
  // Node 1 reads and node 2 writes the same block in one phase (false
  // sharing): the entry derives Conflict and presend takes no action.
  System sys(tiny(3), ProtocolKind::kPredictive);
  auto a = sys.space().alloc_on_node(0, 128);
  sys.run([&](NodeCtx& c) {
    for (int it = 0; it < 3; ++it) {
      c.phase(5);
      if (c.id() == 1) c.read<int>(a + 0);
      if (c.id() == 2) c.write<int>(a + 4, it);
      c.barrier();
    }
  });
  EXPECT_GT(sys.recorder().sum(&stats::NodeCounters::conflict_entries), 0u);
  EXPECT_EQ(sys.recorder().sum(&stats::NodeCounters::presend_blocks_sent), 0u);
}

TEST(Predictive, AnticipatePushesFirstStableStateForConflicts) {
  System sys(tiny(3), ProtocolKind::kPredictiveAnticipate);
  auto a = sys.space().alloc_on_node(0, 128);
  sys.run([&](NodeCtx& c) {
    for (int it = 0; it < 3; ++it) {
      c.phase(5);
      // Read-first conflict: the anticipate policy pushes ReadOnly copies.
      if (c.id() == 1) c.read<int>(a + 0);
      c.barrier();  // order read before write deterministically
      if (c.id() == 2) c.write<int>(a + 4, it);
      c.barrier();
    }
  });
  EXPECT_GT(sys.recorder().sum(&stats::NodeCounters::presend_blocks_sent), 0u);
}

TEST(Predictive, MigratoryReadThenWriteDerivesWrite) {
  // One node reads then writes the block each iteration (repetitive
  // migratory): entry {readers={1}, writers={1}} derives Write, so presend
  // hands node 1 a ReadWrite copy and both its faults disappear.
  System sys(tiny(2), ProtocolKind::kPredictive);
  auto a = sys.space().alloc_on_node(0, 128);
  std::uint64_t f2 = 0, f5 = 0;
  sys.run([&](NodeCtx& c) {
    for (int it = 0; it < 6; ++it) {
      c.phase(9);
      if (c.id() == 1) {
        const int v = c.read<int>(a);
        c.write<int>(a, v + 1);
      }
      c.barrier();
      // The home reads it back in another phase, forcing a downgrade so
      // iteration it+1 would fault again without presend.
      c.phase(10);
      if (c.id() == 0) { EXPECT_EQ(c.read<int>(a), it + 1); }
      c.barrier();
      if (c.id() == 1 && it == 2)
        f2 = c.counters().read_faults + c.counters().write_faults;
      if (c.id() == 1 && it == 5)
        f5 = c.counters().read_faults + c.counters().write_faults;
    }
  });
  EXPECT_EQ(f5, f2);  // steady state: no more faults on node 1
}

TEST(Predictive, ContiguousBlocksCoalesceIntoOneBulkMessage) {
  System sys(tiny(2), ProtocolKind::kPredictive);
  auto a = sys.space().alloc_on_node(0, 16 * 32);
  sys.run([&](NodeCtx& c) {
    // Warmup: node 1 reads 16 contiguous blocks in phase 2.
    c.phase(2);
    if (c.id() == 1)
      for (int b = 0; b < 16; ++b) c.read<int>(a + b * 32);
    c.barrier();
    // Home writes (another phase) to invalidate, then phase 2 presends.
    c.phase(4);
    if (c.id() == 0)
      for (int b = 0; b < 16; ++b) c.write<int>(a + b * 32, b);
    c.barrier();
    const auto msgs_before = c.counters().presend_msgs;
    c.phase(2);
    if (c.id() == 0) {
      // All 16 blocks travelled in a single bulk message.
      EXPECT_EQ(c.counters().presend_msgs, msgs_before + 1);
    }
    c.barrier();
  });
  EXPECT_GE(sys.recorder().sum(&stats::NodeCounters::presend_blocks_sent),
            16u);
}

TEST(Predictive, PresendTimeIsAccountedSeparately) {
  System sys(tiny(2), ProtocolKind::kPredictive);
  auto a = sys.space().alloc_on_node(0, 128);
  sys.run([&](NodeCtx& c) {
    for (int it = 0; it < 3; ++it) {
      c.phase(0);
      if (c.id() == 1) c.read<int>(a);
      c.barrier();
      c.phase(1);
      if (c.id() == 0) c.write<int>(a, it);
      c.barrier();
    }
  });
  EXPECT_GT(sys.recorder().node(0).presend, 0);
  EXPECT_GT(sys.recorder().node(1).presend, 0);
}

TEST(Predictive, DirectivesAreNoOpsUnderStache) {
  System sys(tiny(2), ProtocolKind::kStache);
  auto a = sys.space().alloc_on_node(0, 128);
  sys.run([&](NodeCtx& c) {
    c.phase(0);
    c.flush_phase(0);
    if (c.id() == 1) c.read<int>(a);
    c.barrier();
  });
  EXPECT_EQ(sys.recorder().node(0).presend, 0);
  EXPECT_EQ(sys.recorder().node(1).presend, 0);
}

TEST(WriteUpdate, PublishKeepsReaderCopiesFresh) {
  System sys(tiny(3), ProtocolKind::kWriteUpdate);
  auto a = sys.space().alloc_on_node(0, 256);
  std::vector<std::uint64_t> faults;
  sys.run([&](NodeCtx& c) {
    for (int it = 0; it < 4; ++it) {
      if (c.id() == 0)
        for (int b = 0; b < 4; ++b) c.write<int>(a + b * 32, it * 10 + b);
      c.publish(0, c.space().size_bytes());
      c.barrier();
      if (c.id() != 0) {
        for (int b = 0; b < 4; ++b)
          EXPECT_EQ(c.read<int>(a + b * 32), it * 10 + b);
      }
      c.barrier();
      if (c.id() == 1) faults.push_back(c.counters().read_faults);
    }
  });
  ASSERT_EQ(faults.size(), 4u);
  EXPECT_EQ(faults[0], 4u);       // cold misses once
  EXPECT_EQ(faults[3], faults[0]);  // updates keep copies fresh forever
}

TEST(WriteUpdate, RemoteWriterPublishesThroughHome) {
  System sys(tiny(4), ProtocolKind::kWriteUpdate);
  auto a = sys.space().alloc_on_node(0, 128);
  sys.run([&](NodeCtx& c) {
    // Reader 2 caches the block first.
    if (c.id() == 2) c.read<int>(a);
    c.barrier();
    // Writer 1 (not home) updates and publishes.
    if (c.id() == 1) c.write<int>(a, 77);
    c.publish(0, c.space().size_bytes());
    c.barrier();
    // Home and the recorded reader both observe the new value locally.
    if (c.id() == 0) { EXPECT_EQ(c.read<int>(a), 77); }
    if (c.id() == 2) { EXPECT_EQ(c.read<int>(a), 77); }
  });
  // Reader 2 never faulted again after its first read.
  EXPECT_EQ(sys.recorder().node(2).read_faults, 1u);
}

}  // namespace
}  // namespace presto::runtime
