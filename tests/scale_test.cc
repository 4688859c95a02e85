// Tests above the historical 64-node ceiling: the hybrid NodeSet, chunked
// tag storage, and sparse channel tables let the same protocols run on
// 256+-node machines. Scale.WidePatternPins pins three short sharing
// patterns at 256 nodes, where directory sharer sets spill past the
// NodeSet's inline word; the other cases are correctness smokes. The
// wide-machine cost curves live in bench/scale_sweep.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <string>

#include "golden_workload.h"
#include "mem/global_space.h"
#include "runtime/system.h"
#include "wide_pattern.h"

namespace presto::runtime {
namespace {

using testutil::run_wide_pattern;
using testutil::WidePattern;
using testutil::wide_machine;

std::size_t metadata_bytes(System& sys) {
  return sys.protocol().metadata_bytes() + sys.network().metadata_bytes();
}

struct WidePin {
  WidePattern pattern;
  ProtocolKind kind;
  sim::Time exec;
  std::uint64_t msgs, bytes, faults, presend_blocks, mem_hash;
};

// Captured while the opt-in two-level cluster directory still stood beside
// the exact one; its deletion moved none of them (CHANGES.md). Any drift
// means the simulated behaviour of a wide machine changed.
constexpr WidePin kWidePins[] = {
    {WidePattern::kRing, ProtocolKind::kStache,
     6899160, 8354ull, 231968ull, 2386ull, 0ull, 0xf56f1b2564c9b90full},
    {WidePattern::kRing, ProtocolKind::kPredictive,
     6378920, 6449ull, 201488ull, 801ull, 1568ull, 0xf56f1b2564c9b90full},
    {WidePattern::kRing, ProtocolKind::kCCached,
     6899160, 8354ull, 231968ull, 2386ull, 0ull, 0xf56f1b2564c9b90full},
    {WidePattern::kBcast, ProtocolKind::kStache,
     42169660, 5152ull, 131584ull, 1568ull, 0ull, 0xcaf478af5d54a0c3ull},
    {WidePattern::kBcast, ProtocolKind::kPredictive,
     19117460, 2256ull, 85248ull, 528ull, 1024ull, 0xcaf478af5d54a0c3ull},
    {WidePattern::kBcast, ProtocolKind::kCCached,
     42169660, 5152ull, 131584ull, 1568ull, 0ull, 0xcaf478af5d54a0c3ull},
    {WidePattern::kReduce, ProtocolKind::kStache,
     409836980, 54176ull, 1699328ull, 13808ull, 0ull, 0x448c36a87173ddf3ull},
    {WidePattern::kReduce, ProtocolKind::kPredictive,
     395048660, 52256ull, 1668608ull, 12784ull, 1024ull, 0x448c36a87173ddf3ull},
    {WidePattern::kReduce, ProtocolKind::kCCached,
     225614460, 29696ull, 720896ull, 1536ull, 0ull, 0xfafeaa1e61bf6863ull},
};

TEST(Scale, WidePatternPins) {
  for (const WidePin& pin : kWidePins) {
    const int pattern = static_cast<int>(pin.pattern);
    SCOPED_TRACE(std::string(testutil::kWidePatternNames[pattern]) +
                 " under " + protocol_kind_name(pin.kind));
    const testutil::WorkloadResult r = run_wide_pattern(pin.pattern, pin.kind);
    std::uint64_t presend = 0;
    for (const auto& c : r.counters) presend += c.presend_blocks_received;
    const std::uint64_t faults = testutil::total_faults(r);
    EXPECT_EQ(r.exec, pin.exec);
    EXPECT_EQ(r.msgs, pin.msgs);
    EXPECT_EQ(r.bytes, pin.bytes);
    EXPECT_EQ(faults, pin.faults);
    EXPECT_EQ(presend, pin.presend_blocks);
    EXPECT_EQ(r.mem_hash, pin.mem_hash);
    // On mismatch, print the actual row so the pin can be inspected.
    if (r.exec != pin.exec || r.msgs != pin.msgs || r.bytes != pin.bytes ||
        faults != pin.faults || presend != pin.presend_blocks ||
        r.mem_hash != pin.mem_hash) {
      std::printf("ACTUAL: %lld, %lluull, %lluull, %lluull, %lluull, "
                  "0x%016llxull\n",
                  (long long)r.exec, (unsigned long long)r.msgs,
                  (unsigned long long)r.bytes, (unsigned long long)faults,
                  (unsigned long long)presend,
                  (unsigned long long)r.mem_hash);
    }
  }
}

TEST(Scale, Stache256NodeInvalidateSpilledSharers) {
  // Readers on both sides of the 64-node boundary cache the home's block;
  // the next write must invalidate every one of them through the spilled
  // directory entry.
  System sys(wide_machine(256), ProtocolKind::kStache);
  const auto a = sys.space().alloc_on_node(0, 64);
  sys.run([&](NodeCtx& c) {
    if (c.id() == 0) c.write<int>(a, 1);
    c.barrier();
    if (c.id() % 17 == 3) {
      EXPECT_EQ(c.read<int>(a), 1);
    }
    c.barrier();
    if (c.id() == 0) c.write<int>(a, 2);
    c.barrier();
    if (c.id() % 17 == 3) {
      EXPECT_EQ(c.read<int>(a), 2);
    }
  });
  // Every sampled reader faulted twice: initial fetch + post-invalidate.
  EXPECT_EQ(sys.recorder().node(3).read_faults, 2u);
  EXPECT_EQ(sys.recorder().node(224).read_faults, 2u);
}

TEST(Scale, Predictive256NodeIterativePresend) {
  // Iterative producer/consumer at 256 nodes: after the priming round the
  // predictive protocol presends to consumers in the spill range.
  System sys(wide_machine(256), ProtocolKind::kPredictive);
  const auto a = sys.space().alloc_on_node(0, 64);
  sys.run([&](NodeCtx& c) {
    for (int it = 0; it < 4; ++it) {
      c.phase(0);
      if (c.id() == 0) c.write<int>(a, 10 + it);
      c.barrier();
      c.phase(1);
      if (c.id() == 100 || c.id() == 255) {
        EXPECT_EQ(c.read<int>(a), 10 + it);
      }
      c.barrier();
    }
  });
  std::uint64_t present = 0;
  for (int n = 0; n < 256; ++n)
    present += sys.recorder().node(n).presend_blocks_received;
  EXPECT_GT(present, 0u);  // the schedule primed and actually present data
  // Presends spare the steady-state consumers their read faults.
  EXPECT_LT(sys.recorder().node(255).read_faults, 4u);
}

TEST(Scale, Stache256NodeEveryNodeReadsOneBlock) {
  // All 256 nodes read one block for 3 rounds: its directory entry lists
  // 255 sharers, spilled past the inline word, and every rewrite
  // invalidates all of them.
  System sys(wide_machine(256), ProtocolKind::kStache);
  const auto a = sys.space().alloc_on_node(0, 64);
  long long sum = 0;
  sys.run([&](NodeCtx& c) {
    for (int it = 0; it < 3; ++it) {
      if (c.id() == 0) c.write<int>(a, it + 1);
      c.barrier();
      const int v = c.read<int>(a);
      EXPECT_EQ(v, it + 1);
      c.barrier();
      if (c.id() == 0) sum += v;
    }
  });
  EXPECT_EQ(sum, 6);
  // Each remote node fetched the block once per round.
  EXPECT_EQ(sys.recorder().node(255).read_faults, 3u);
}

TEST(Scale, MetadataStaysSubQuadraticIn1024NodeRun) {
  // A 1024-node machine runs to completion, and with a bounded working set
  // its protocol+network metadata must scale with nodes and touched blocks,
  // not nodes^2. The pre-PR dense channel table alone was
  // nodes^2 * sizeof(Channel) >= 1M entries; stay far under that.
  System sys(wide_machine(1024), ProtocolKind::kStache);
  const auto a = sys.space().alloc_on_node(0, 256);
  sys.run([&](NodeCtx& c) {
    if (c.id() == 0)
      for (int i = 0; i < 4; ++i) c.write<int>(a + 4 * i, i);
    c.barrier();
    if (c.id() % 37 == 1) {
      EXPECT_EQ(c.read<int>(a), 0);
    }
    c.barrier();
  });
  const std::size_t dense_channels_floor = 1024ull * 1024ull * 8;  // >= 8 MiB
  EXPECT_LT(metadata_bytes(sys), dense_channels_floor / 4);
}

TEST(Scale, RejectsInsaneNodeCounts) {
  // The old hard 64-node ceiling is gone; what remains is a sanity bound
  // against nonsense configurations (and accidental quadratic blowups).
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  mem::MemConfig cfg;
  cfg.block_size = 32;
  cfg.page_size = 512;
  EXPECT_DEATH(mem::GlobalSpace(65537, cfg), "");
  EXPECT_DEATH(mem::GlobalSpace(0, cfg), "");
}

}  // namespace
}  // namespace presto::runtime
