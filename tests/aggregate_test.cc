// Distribution properties of C** Aggregates, parameterized over node counts
// and sizes: ownership partitions exactly, the computational owner is
// always the page home (owner-computes locality), addresses are distinct,
// and the tiled mesh is as square as the node count allows.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>

#include "runtime/aggregate.h"
#include "runtime/system.h"

namespace presto::runtime {
namespace {

MachineConfig tiny(int nodes) {
  MachineConfig m = MachineConfig::cm5_blizzard(nodes, 32);
  m.mem.page_size = 256;
  return m;
}

// Both members are eight bytes wide so the struct has no padding: ctest names
// each case after the parameter's raw bytes, and indeterminate padding made
// those names differ from build to build.
struct DistParam {
  std::int64_t nodes;
  std::size_t n;  // elements (1D) or rows==cols (2D)
};

class Distribution : public ::testing::TestWithParam<DistParam> {};

TEST_P(Distribution, OneDimensionalPartitionAndHomes) {
  const auto [nodes, n] = GetParam();
  System sys(tiny(nodes), ProtocolKind::kStache);
  auto agg = Aggregate1D<double>::create(sys.space(), n);

  std::set<mem::Addr> addrs;
  std::size_t covered = 0;
  for (int k = 0; k < nodes; ++k) {
    const auto [lo, hi] = agg.range(k);
    covered += hi - lo;
    for (std::size_t i = lo; i < hi; ++i) {
      EXPECT_EQ(agg.owner(i), k);
      EXPECT_EQ(sys.space().home_of_addr(agg.addr(i)), k);
      EXPECT_TRUE(addrs.insert(agg.addr(i)).second) << "address reuse";
    }
  }
  EXPECT_EQ(covered, n);  // ranges partition the index space exactly
}

TEST_P(Distribution, RowBlockPartitionAndHomes) {
  const auto [nodes, n] = GetParam();
  System sys(tiny(nodes), ProtocolKind::kStache);
  auto agg = Aggregate2D<float>::create(sys.space(), n, n);
  std::size_t covered = 0;
  for (int k = 0; k < nodes; ++k) {
    const auto [lo, hi] = agg.row_range(k);
    covered += (hi - lo) * n;
    for (std::size_t i = lo; i < hi; ++i)
      for (std::size_t j = 0; j < n; j += 3) {
        EXPECT_EQ(agg.owner(i), k);
        EXPECT_EQ(sys.space().home_of_addr(agg.addr(i, j)), k);
      }
  }
  EXPECT_EQ(covered, n * n);
}

TEST_P(Distribution, TiledPartitionAndHomes) {
  const auto [nodes, n] = GetParam();
  System sys(tiny(nodes), ProtocolKind::kStache);
  auto agg = TiledAggregate2D<float>::create(sys.space(), n, n);
  EXPECT_EQ(agg.tile_rows_count() * agg.tile_cols_count(), nodes);
  // Mesh as square as possible: tr <= tc and tr is the largest divisor.
  EXPECT_LE(agg.tile_rows_count(), agg.tile_cols_count());

  std::size_t covered = 0;
  for (int k = 0; k < nodes; ++k) {
    const auto t = agg.tile(k);
    covered += (t.row_hi - t.row_lo) * (t.col_hi - t.col_lo);
    for (std::size_t i = t.row_lo; i < t.row_hi; ++i)
      for (std::size_t j = t.col_lo; j < t.col_hi; ++j) {
        EXPECT_EQ(agg.owner(i, j), k);
        EXPECT_EQ(sys.space().home_of_addr(agg.addr(i, j)), k);
      }
  }
  EXPECT_EQ(covered, n * n);
}

TEST_P(Distribution, TiledAddressesAreDistinct) {
  const auto [nodes, n] = GetParam();
  System sys(tiny(nodes), ProtocolKind::kStache);
  auto agg = TiledAggregate2D<double>::create(sys.space(), n, n);
  std::set<mem::Addr> addrs;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      ASSERT_TRUE(addrs.insert(agg.addr(i, j)).second)
          << "collision at (" << i << "," << j << ")";
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Distribution,
    ::testing::Values(DistParam{1, 7}, DistParam{2, 16}, DistParam{3, 10},
                      DistParam{4, 16}, DistParam{6, 23}, DistParam{8, 64},
                      DistParam{16, 32}),
    [](const ::testing::TestParamInfo<DistParam>& info) {
      return "n" + std::to_string(info.param.nodes) + "_e" +
             std::to_string(info.param.n);
    });

TEST(TiledAggregate, HaloExchangeWorksAcrossTileBoundaries) {
  System sys(tiny(4), ProtocolKind::kStache);  // 2x2 mesh
  auto agg = TiledAggregate2D<int>::create(sys.space(), 8, 8);
  sys.run([&](NodeCtx& c) {
    const auto t = agg.tile(c.id());
    for (std::size_t i = t.row_lo; i < t.row_hi; ++i)
      for (std::size_t j = t.col_lo; j < t.col_hi; ++j)
        agg.set(c, i, j, static_cast<int>(100 * i + j));
    c.barrier();
    // Every node reads a full halo ring around its tile.
    for (std::size_t i = t.row_lo; i < t.row_hi; ++i) {
      if (t.col_lo > 0) {
        EXPECT_EQ(agg.get(c, i, t.col_lo - 1),
                  static_cast<int>(100 * i + t.col_lo - 1));
      }
      if (t.col_hi < 8) {
        EXPECT_EQ(agg.get(c, i, t.col_hi),
                  static_cast<int>(100 * i + t.col_hi));
      }
    }
    for (std::size_t j = t.col_lo; j < t.col_hi; ++j) {
      if (t.row_lo > 0) {
        EXPECT_EQ(agg.get(c, t.row_lo - 1, j),
                  static_cast<int>(100 * (t.row_lo - 1) + j));
      }
      if (t.row_hi < 8) {
        EXPECT_EQ(agg.get(c, t.row_hi, j),
                  static_cast<int>(100 * t.row_hi + j));
      }
    }
  });
  // Cross-tile reads faulted; the counts are per-node nonzero.
  EXPECT_GT(sys.recorder().node(0).read_faults, 0u);
}

}  // namespace
}  // namespace presto::runtime
