// C** Aggregates: distributed arrays of elements.
//
// Data distribution is page-granular (the paper: "the C** compiler relies on
// Stache to distribute all shared data at the granularity of a page"), with
// each node's contiguous element range padded to whole pages so that the
// computational owner of an element is also its page home (owner-computes
// locality). The C** computation-distribution schemes of §4.1 are provided:
// block distribution on 1-D Aggregates (Aggregate1D), and row-block
// (Aggregate2D) and tiled (TiledAggregate2D) distributions on 2-D
// Aggregates.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "mem/global_space.h"
#include "runtime/node_ctx.h"
#include "util/check.h"

namespace presto::runtime {

template <typename T>
class Aggregate1D {
 public:
  Aggregate1D() = default;

  static Aggregate1D create(mem::GlobalSpace& space, std::size_t n) {
    PRESTO_CHECK(n > 0, "empty aggregate");
    Aggregate1D a;
    a.n_ = n;
    a.nodes_ = space.nodes();
    a.per_node_ = (n + static_cast<std::size_t>(a.nodes_) - 1) /
                  static_cast<std::size_t>(a.nodes_);
    const std::size_t page = space.page_size();
    a.node_stride_ = ((a.per_node_ * sizeof(T) + page - 1) / page) * page;
    const std::size_t pages_per_node = a.node_stride_ / page;
    a.base_ = space.alloc(
        a.node_stride_ * static_cast<std::size_t>(a.nodes_),
        [&](mem::PageId p) {
          return static_cast<int>(p / pages_per_node);
        });
    return a;
  }

  std::size_t size() const { return n_; }

  int owner(std::size_t i) const {
    const std::size_t k = i / per_node_;
    return static_cast<int>(k) < nodes_ ? static_cast<int>(k) : nodes_ - 1;
  }

  mem::Addr addr(std::size_t i) const {
    PRESTO_CHECK(i < n_, "aggregate index " << i << " out of " << n_);
    const std::size_t k = static_cast<std::size_t>(owner(i));
    return base_ + k * node_stride_ + (i - k * per_node_) * sizeof(T);
  }

  // The contiguous element range owned by `node` (may be empty).
  std::pair<std::size_t, std::size_t> range(int node) const {
    const std::size_t lo = static_cast<std::size_t>(node) * per_node_;
    const std::size_t hi = lo + per_node_;
    return {lo < n_ ? lo : n_, hi < n_ ? hi : n_};
  }

  T get(NodeCtx& c, std::size_t i) const { return c.read<T>(addr(i)); }
  void set(NodeCtx& c, std::size_t i, const T& v) const {
    c.write<T>(addr(i), v);
  }

 private:
  mem::Addr base_ = 0;
  std::size_t n_ = 0;
  std::size_t per_node_ = 0;
  std::size_t node_stride_ = 0;
  int nodes_ = 0;
};

template <typename T>
class Aggregate2D {
 public:
  Aggregate2D() = default;

  static Aggregate2D create(mem::GlobalSpace& space, std::size_t rows,
                            std::size_t cols) {
    PRESTO_CHECK(rows > 0 && cols > 0, "empty aggregate");
    Aggregate2D a;
    a.rows_ = rows;
    a.cols_ = cols;
    a.nodes_ = space.nodes();
    a.rows_per_node_ = (rows + static_cast<std::size_t>(a.nodes_) - 1) /
                       static_cast<std::size_t>(a.nodes_);
    const std::size_t page = space.page_size();
    const std::size_t node_stride =
        ((a.rows_per_node_ * cols * sizeof(T) + page - 1) / page) * page;
    const std::size_t pages_per_node = node_stride / page;
    const mem::Addr base = space.alloc(
        node_stride * static_cast<std::size_t>(a.nodes_),
        [&](mem::PageId p) {
          return static_cast<int>(p / pages_per_node);
        });
    // Each row's address, so addr() is one add per element, not a division.
    a.row_base_.resize(rows);
    for (std::size_t i = 0; i < rows; ++i) {
      const auto k = static_cast<std::size_t>(a.owner(i));
      a.row_base_[i] = base + k * node_stride +
                       (i - k * a.rows_per_node_) * cols * sizeof(T);
    }
    return a;
  }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  int owner(std::size_t i) const {
    const std::size_t k = i / rows_per_node_;
    return static_cast<int>(k) < nodes_ ? static_cast<int>(k) : nodes_ - 1;
  }

  mem::Addr addr(std::size_t i, std::size_t j) const {
    PRESTO_CHECK(i < rows_ && j < cols_,
                 "aggregate index (" << i << "," << j << ") out of ("
                                     << rows_ << "," << cols_ << ")");
    return row_base_[i] + j * sizeof(T);
  }

  // The contiguous row range owned by `node` (may be empty).
  std::pair<std::size_t, std::size_t> row_range(int node) const {
    const std::size_t lo = static_cast<std::size_t>(node) * rows_per_node_;
    const std::size_t hi = lo + rows_per_node_;
    return {lo < rows_ ? lo : rows_, hi < rows_ ? hi : rows_};
  }

  T get(NodeCtx& c, std::size_t i, std::size_t j) const {
    return c.read<T>(addr(i, j));
  }
  void set(NodeCtx& c, std::size_t i, std::size_t j, const T& v) const {
    c.write<T>(addr(i, j), v);
  }

 private:
  std::vector<mem::Addr> row_base_;
  std::size_t rows_ = 0, cols_ = 0;
  std::size_t rows_per_node_ = 0;
  int nodes_ = 0;
};

// Tiled distribution: the grid is cut into a tr x tc processor mesh (chosen
// as close to square as the node count allows) and each node owns one
// contiguous tile, stored tile-major so the tile is page-aligned at its
// owner. Halo exchange touches four neighbours instead of two, with shorter
// boundaries — the usual surface-to-volume trade against row-block.
template <typename T>
class TiledAggregate2D {
 public:
  TiledAggregate2D() = default;

  static TiledAggregate2D create(mem::GlobalSpace& space, std::size_t rows,
                                 std::size_t cols) {
    PRESTO_CHECK(rows > 0 && cols > 0, "empty aggregate");
    TiledAggregate2D a;
    a.rows_ = rows;
    a.cols_ = cols;
    a.nodes_ = space.nodes();
    // Processor mesh: tr x tc with tr*tc == nodes, as square as possible.
    a.tr_ = 1;
    for (int d = 1; d * d <= a.nodes_; ++d)
      if (a.nodes_ % d == 0) a.tr_ = d;
    a.tc_ = a.nodes_ / a.tr_;
    a.tile_rows_ = (rows + static_cast<std::size_t>(a.tr_) - 1) /
                   static_cast<std::size_t>(a.tr_);
    a.tile_cols_ = (cols + static_cast<std::size_t>(a.tc_) - 1) /
                   static_cast<std::size_t>(a.tc_);
    const std::size_t page = space.page_size();
    a.node_stride_ =
        ((a.tile_rows_ * a.tile_cols_ * sizeof(T) + page - 1) / page) * page;
    const std::size_t pages_per_node = a.node_stride_ / page;
    a.base_ = space.alloc(
        a.node_stride_ * static_cast<std::size_t>(a.nodes_),
        [&](mem::PageId p) { return static_cast<int>(p / pages_per_node); });
    return a;
  }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  int tile_rows_count() const { return tr_; }
  int tile_cols_count() const { return tc_; }

  int owner(std::size_t i, std::size_t j) const {
    const std::size_t ti = std::min(i / tile_rows_,
                                    static_cast<std::size_t>(tr_) - 1);
    const std::size_t tj = std::min(j / tile_cols_,
                                    static_cast<std::size_t>(tc_) - 1);
    return static_cast<int>(ti * static_cast<std::size_t>(tc_) + tj);
  }

  mem::Addr addr(std::size_t i, std::size_t j) const {
    PRESTO_CHECK(i < rows_ && j < cols_,
                 "aggregate index (" << i << "," << j << ") out of ("
                                     << rows_ << "," << cols_ << ")");
    const auto k = static_cast<std::size_t>(owner(i, j));
    const std::size_t ti = k / static_cast<std::size_t>(tc_);
    const std::size_t tj = k % static_cast<std::size_t>(tc_);
    const std::size_t li = i - ti * tile_rows_;
    const std::size_t lj = j - tj * tile_cols_;
    return base_ + k * node_stride_ + (li * tile_cols_ + lj) * sizeof(T);
  }

  // The owned (row, col) tile of `node`, clipped to the grid:
  // {row_lo, row_hi, col_lo, col_hi}.
  struct Tile {
    std::size_t row_lo, row_hi, col_lo, col_hi;
  };
  Tile tile(int node) const {
    const std::size_t ti =
        static_cast<std::size_t>(node) / static_cast<std::size_t>(tc_);
    const std::size_t tj =
        static_cast<std::size_t>(node) % static_cast<std::size_t>(tc_);
    Tile t;
    t.row_lo = std::min(ti * tile_rows_, rows_);
    t.row_hi = std::min(t.row_lo + tile_rows_, rows_);
    t.col_lo = std::min(tj * tile_cols_, cols_);
    t.col_hi = std::min(t.col_lo + tile_cols_, cols_);
    return t;
  }

  T get(NodeCtx& c, std::size_t i, std::size_t j) const {
    return c.read<T>(addr(i, j));
  }
  void set(NodeCtx& c, std::size_t i, std::size_t j, const T& v) const {
    c.write<T>(addr(i, j), v);
  }

 private:
  mem::Addr base_ = 0;
  std::size_t rows_ = 0, cols_ = 0;
  std::size_t tile_rows_ = 0, tile_cols_ = 0;
  std::size_t node_stride_ = 0;
  int nodes_ = 0;
  int tr_ = 1, tc_ = 1;
};

}  // namespace presto::runtime
