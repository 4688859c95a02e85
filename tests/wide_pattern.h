// bench/scale_sweep's three sharing patterns, short, at 256 nodes: the
// workload behind Scale.WidePatternPins (tests/scale_test.cc) and the wide
// parallel-equivalence cases (tests/parallel_equivalence_test.cc).
//
// 32-byte blocks, 3 rounds, phase directives around each half-round. 32
// readers spread across the machine (every 8th node) make every widely
// shared directory entry and schedule entry spill past the NodeSet's inline
// word.
//   ring   — every node writes its own block, reads its two ring
//            predecessors' blocks, and the readers read node 0's hot block;
//   bcast  — node 0 rewrites a 16-block region the readers then read;
//   reduce — every node adds into a 16-block commutative region homed on
//            node 0, flushes, and the readers read the totals.
// Most windows run a few of the 256 lanes: the readers, a home, node 0.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>

#include "golden_workload.h"
#include "runtime/system.h"

namespace presto::testutil {

enum class WidePattern { kRing, kBcast, kReduce };
inline constexpr const char* kWidePatternNames[] = {"ring", "bcast",
                                                    "reduce"};

// A machine `nodes` wide whose 512-byte pages spread homes across many nodes.
inline runtime::MachineConfig wide_machine(int nodes,
                                           std::uint32_t block = 32) {
  runtime::MachineConfig m = runtime::MachineConfig::cm5_blizzard(nodes, block);
  m.mem.page_size = 512;
  return m;
}

// Runs one pattern; `workers` applies to Backend::kParallel only, and a
// traced run records in memory so its digest can be compared.
inline WorkloadResult run_wide_pattern(
    WidePattern pat, runtime::ProtocolKind kind,
    sim::Backend backend = sim::default_backend(), int workers = 0,
    bool traced = false) {
  constexpr int kNodes = 256;
  constexpr int kRounds = 3;
  constexpr int kRegion = 16;           // blocks in bcast/reduce's region
  constexpr int kStride = kNodes / 32;  // every kStride-th node reads
  constexpr std::uint32_t kBlock = 32;
  runtime::MachineConfig m = wide_machine(kNodes, kBlock);
  m.backend = backend;
  m.workers = workers;
  m.trace.enabled = traced;
  runtime::System sys(m, kind);
  const std::uint32_t bpp = m.mem.page_size / kBlock;
  const mem::Addr ring =
      pat == WidePattern::kRing
          ? sys.space().alloc(kNodes * kBlock,
                              [&](mem::PageId p) {
                                return static_cast<int>((p * bpp) % kNodes);
                              })
          : 0;
  const mem::Addr hot = sys.space().alloc_on_node(
      0, (pat == WidePattern::kRing ? 1 : kRegion) * kBlock);
  if (pat == WidePattern::kReduce)
    sys.space().set_commutative(hot, kRegion * kBlock);
  const auto blk = [&](mem::Addr base, int i) {
    return base + static_cast<mem::Addr>(i) * kBlock;
  };
  sys.run([&](runtime::NodeCtx& c) {
    const int id = c.id();
    const bool reader = id % kStride == 1;
    for (int r = 0; r < kRounds; ++r) {
      c.phase(0);
      if (pat == WidePattern::kRing) {
        c.write<int>(blk(ring, id), r * kNodes + id);
        if (id == 0) c.write<int>(hot, r + 1);
      } else if (pat == WidePattern::kBcast) {
        if (id == 0)
          for (int b = 0; b < kRegion; ++b)
            c.write<int>(blk(hot, b), r * 100 + b);
      } else {
        for (int b = 0; b < kRegion; ++b) c.cc_add(blk(hot, b), 1);
        c.cc_flush();
      }
      c.barrier();
      c.phase(1);
      if (pat == WidePattern::kRing) {
        for (int d = 1; d <= 2; ++d) {
          const int src = (id + kNodes - d) % kNodes;
          EXPECT_EQ(c.read<int>(blk(ring, src)), r * kNodes + src);
        }
        if (reader) {
          EXPECT_EQ(c.read<int>(hot), r + 1);
        }
      } else if (reader) {
        for (int b = 0; b < kRegion; ++b) {
          if (pat == WidePattern::kBcast) {
            EXPECT_EQ(c.read<int>(blk(hot, b)), r * 100 + b);
          } else {
            EXPECT_EQ(c.read<std::int64_t>(blk(hot, b)),
                      std::int64_t{r + 1} * kNodes);
          }
        }
      }
      c.barrier();
    }
  });
  return collect_result(sys);
}

}  // namespace presto::testutil
