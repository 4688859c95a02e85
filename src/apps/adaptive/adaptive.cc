#include "apps/adaptive/adaptive.h"

#include <cmath>

#include "runtime/aggregate.h"
#include "runtime/system.h"
#include "util/check.h"

namespace presto::apps {
namespace {

using runtime::Aggregate2D;
using runtime::NodeCtx;

// One mesh point: its potential and an optional quad-tree of refinements.
// 16 bytes, 16-aligned, so a cell never straddles a 32-byte block.
struct Cell {
  float value = 0.0f;
  float pad = 0.0f;
  mem::Addr tree = 0;  // 0 = unrefined
};
static_assert(sizeof(Cell) == 16);

// A quad-tree node: four child values, each optionally refined further.
struct QNode {
  float v[4] = {0, 0, 0, 0};
  mem::Addr child[4] = {0, 0, 0, 0};
};
static_assert(sizeof(QNode) == 48);

constexpr int kPhaseRed = 0;
constexpr int kPhaseBlack = 1;

// Red/black planes: cell (i, j) is red when (i + j) is even. Row i of the
// red plane holds columns j = 2k + (i & 1); the black plane holds the rest.
struct Mesh {
  Aggregate2D<Cell> red;
  Aggregate2D<Cell> black;
  std::size_t n = 0;
  float hot = 0.0f;

  bool is_red(std::size_t i, std::size_t j) const { return ((i + j) & 1) == 0; }
  mem::Addr cell_addr(std::size_t i, std::size_t j) const {
    const auto& plane = is_red(i, j) ? red : black;
    const std::size_t base = is_red(i, j) ? (i & 1) : 1 - (i & 1);
    return plane.addr(i, (j - base) / 2);
  }
  // Boundary potential outside the mesh: a hot strip along the upper part
  // of the left edge. The asymmetry concentrates refinement on the nodes
  // owning the top rows — the load imbalance §5.1 discusses.
  float boundary(std::ptrdiff_t i, std::ptrdiff_t j) const {
    return (j < 0 && i < static_cast<std::ptrdiff_t>(n / 2)) ? hot : 0.0f;
  }
};

// Effective (leaf-averaged) value of a quad-tree rooted at `a`.
float tree_value(NodeCtx& c, mem::Addr a) {
  const QNode q = c.read<QNode>(a);
  c.charge_flops(4);
  float sum = 0.0f;
  for (int k = 0; k < 4; ++k)
    sum += q.child[k] != 0 ? tree_value(c, q.child[k]) : q.v[k];
  return 0.25f * sum;
}

// Effective value of a (possibly refined, possibly off-mesh) mesh point.
float point_value(NodeCtx& c, const Mesh& m, std::ptrdiff_t i,
                  std::ptrdiff_t j) {
  if (i < 0 || j < 0 || i >= static_cast<std::ptrdiff_t>(m.n) ||
      j >= static_cast<std::ptrdiff_t>(m.n))
    return m.boundary(i, j);
  const Cell cell = c.read<Cell>(
      m.cell_addr(static_cast<std::size_t>(i), static_cast<std::size_t>(j)));
  return cell.tree != 0 ? tree_value(c, cell.tree) : cell.value;
}

// Relaxes the tree values toward `target`, refining children whose value
// still deviates sharply (gradual refinement across iterations). Owner-only:
// every access is homed at the calling node.
void relax_tree(NodeCtx& c, mem::Addr a, float target, float threshold,
                int depth, int max_depth) {
  QNode q = c.read<QNode>(a);
  bool dirty = false;
  for (int k = 0; k < 4; ++k) {
    if (q.child[k] != 0) {
      relax_tree(c, q.child[k], target, threshold, depth + 1, max_depth);
      continue;
    }
    const float next = 0.5f * (q.v[k] + target);
    c.charge_flops(2);
    if (depth < max_depth && std::fabs(next - target) > threshold) {
      // Subdivide this child: allocate a sub-node seeded with its value.
      QNode sub;
      for (float& v : sub.v) v = next;
      const mem::Addr sa = c.galloc(sizeof(QNode), 16);
      c.write<QNode>(sa, sub);
      q.child[k] = sa;
      dirty = true;
    } else if (next != q.v[k]) {
      q.v[k] = next;
      dirty = true;
    }
  }
  if (dirty) c.write<QNode>(a, q);
}

// Sweeps one colour plane over the rows this node owns.
void sweep(NodeCtx& c, const Mesh& m, bool red_phase,
           const AdaptiveParams& params) {
  const auto& plane = red_phase ? m.red : m.black;
  const auto [lo, hi] = plane.row_range(c.id());
  for (std::size_t i = lo; i < hi; ++i) {
    const std::size_t jbase = red_phase ? (i & 1) : 1 - (i & 1);
    for (std::size_t k = 0; k < m.n / 2; ++k) {
      const std::size_t j = 2 * k + jbase;
      const auto ii = static_cast<std::ptrdiff_t>(i);
      const auto jj = static_cast<std::ptrdiff_t>(j);
      const float up = point_value(c, m, ii - 1, jj);
      const float down = point_value(c, m, ii + 1, jj);
      const float left = point_value(c, m, ii, jj - 1);
      const float right = point_value(c, m, ii, jj + 1);
      const float target = 0.25f * (up + down + left + right);
      c.charge_flops(8);

      Cell cell = plane.get(c, i, k);
      const float grad =
          std::max(std::max(std::fabs(up - cell.value),
                            std::fabs(down - cell.value)),
                   std::max(std::fabs(left - cell.value),
                            std::fabs(right - cell.value)));
      if (cell.tree == 0) {
        if (grad > params.refine_threshold && params.max_depth > 0) {
          // Steep gradient: subdivide into four child values.
          QNode q;
          for (float& v : q.v) v = cell.value;
          const mem::Addr a = c.galloc(sizeof(QNode), 16);
          c.write<QNode>(a, q);
          cell.tree = a;
        } else {
          cell.value = target;
          plane.set(c, i, k, cell);
          continue;
        }
      }
      relax_tree(c, cell.tree, target, params.refine_threshold, 1,
                 params.max_depth);
      cell.value = target;  // coarse value tracks the relaxation target
      plane.set(c, i, k, cell);
    }
  }
}

}  // namespace

AppResult run_adaptive(const AdaptiveParams& params,
                       const runtime::MachineConfig& machine,
                       runtime::ProtocolKind kind, bool directives) {
  PRESTO_CHECK(params.n >= 4 && params.n % 2 == 0,
               "mesh size must be even and >= 4");
  runtime::System sys(machine, kind);

  Mesh mesh;
  mesh.n = params.n;
  mesh.hot = params.hot;
  mesh.red = Aggregate2D<Cell>::create(sys.space(), params.n, params.n / 2);
  mesh.black = Aggregate2D<Cell>::create(sys.space(), params.n, params.n / 2);

  double checksum = 0.0;
  std::uint64_t refined = 0;

  sys.run([&](NodeCtx& c) {
    // Under write-update, publish each owner-write phase (cells and the
    // quad-trees they own) to its recorded readers before the barrier.
    const auto publish = [&] { c.publish(0, c.space().size_bytes()); };
    // Initial condition: interior zero; the hot left-edge boundary drives a
    // steep front that relaxation propagates rightward, refining as it goes.
    for (const bool red_phase : {true, false}) {
      const auto& plane = red_phase ? mesh.red : mesh.black;
      const auto [lo, hi] = plane.row_range(c.id());
      for (std::size_t i = lo; i < hi; ++i)
        for (std::size_t k = 0; k < mesh.n / 2; ++k)
          plane.set(c, i, k, Cell{});
    }
    publish();
    c.barrier();

    for (int it = 0; it < params.iters; ++it) {
      if (params.flush_every > 0 && it > 0 && it % params.flush_every == 0) {
        c.flush_phase(kPhaseRed);
        c.flush_phase(kPhaseBlack);
      }
      if (directives) c.phase(kPhaseRed);
      sweep(c, mesh, /*red_phase=*/true, params);
      publish();
      c.barrier();
      if (directives) c.phase(kPhaseBlack);
      sweep(c, mesh, /*red_phase=*/false, params);
      publish();
      c.barrier();
    }

    // Checksum: total potential plus refinement count, reduced globally.
    double local = 0.0;
    std::uint64_t local_refined = 0;
    const auto [lo, hi] = mesh.red.row_range(c.id());
    for (std::size_t i = lo; i < hi; ++i) {
      for (std::size_t k = 0; k < mesh.n / 2; ++k) {
        for (const auto* plane : {&mesh.red, &mesh.black}) {
          const Cell cell = plane->get(c, i, k);
          local += cell.tree != 0 ? tree_value(c, cell.tree) : cell.value;
          local_refined += cell.tree != 0 ? 1 : 0;
        }
      }
    }
    const double total = c.reduce_sum(local);
    const double total_refined =
        c.reduce_sum(static_cast<double>(local_refined));
    if (c.id() == 0) {
      checksum = total;
      refined = static_cast<std::uint64_t>(total_refined);
    }
  });

  AppResult result;
  result.report = sys.report("");
  result.checksum = checksum + static_cast<double>(refined);
  return result;
}

}  // namespace presto::apps
