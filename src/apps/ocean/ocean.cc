#include "apps/ocean/ocean.h"

#include "runtime/aggregate.h"
#include "runtime/system.h"
#include "util/check.h"

namespace presto::apps {
namespace {

using runtime::Aggregate2D;
using runtime::NodeCtx;

constexpr int kPhaseRed = 0;
constexpr int kPhaseBlack = 1;

// Red/black planes: point (i, j) is red when (i + j) is even. Row i of the
// red plane holds columns j = 2k + (i & 1); the black plane holds the rest.
// A 5-point stencil on a checkerboard reads only the opposite colour, so
// each phase writes one plane and reads the other — no block ever mixes a
// same-phase read and write.
struct Grid {
  Aggregate2D<double> red;
  Aggregate2D<double> black;
  std::size_t n = 0;
  double hot = 0.0;

  bool is_red(std::size_t i, std::size_t j) const { return ((i + j) & 1) == 0; }
  // Boundary potential outside the grid: a hot top edge drives a front that
  // relaxation propagates downward.
  double boundary(std::ptrdiff_t i, std::ptrdiff_t) const {
    return i < 0 ? hot : 0.0;
  }
};

double point_value(NodeCtx& c, const Grid& g, std::ptrdiff_t i,
                   std::ptrdiff_t j) {
  if (i < 0 || j < 0 || i >= static_cast<std::ptrdiff_t>(g.n) ||
      j >= static_cast<std::ptrdiff_t>(g.n))
    return g.boundary(i, j);
  const auto ui = static_cast<std::size_t>(i);
  const auto uj = static_cast<std::size_t>(j);
  const auto& plane = g.is_red(ui, uj) ? g.red : g.black;
  const std::size_t jbase = g.is_red(ui, uj) ? (ui & 1) : 1 - (ui & 1);
  return plane.get(c, ui, (uj - jbase) / 2);
}

// Sweeps one colour plane over the rows this node owns, reading the four
// opposite-colour neighbours (boundary rows of adjacent nodes are the only
// remote accesses).
void sweep(NodeCtx& c, const Grid& g, bool red_phase) {
  const auto& plane = red_phase ? g.red : g.black;
  const auto [lo, hi] = plane.row_range(c.id());
  for (std::size_t i = lo; i < hi; ++i) {
    const std::size_t jbase = red_phase ? (i & 1) : 1 - (i & 1);
    for (std::size_t k = 0; k < g.n / 2; ++k) {
      const std::size_t j = 2 * k + jbase;
      const auto ii = static_cast<std::ptrdiff_t>(i);
      const auto jj = static_cast<std::ptrdiff_t>(j);
      const double up = point_value(c, g, ii - 1, jj);
      const double down = point_value(c, g, ii + 1, jj);
      const double left = point_value(c, g, ii, jj - 1);
      const double right = point_value(c, g, ii, jj + 1);
      c.charge_flops(5);
      plane.set(c, i, k, 0.25 * (up + down + left + right));
    }
  }
}

}  // namespace

AppResult run_ocean(const OceanParams& params,
                    const runtime::MachineConfig& machine,
                    runtime::ProtocolKind kind, bool directives) {
  PRESTO_CHECK(params.n >= 4 && params.n % 2 == 0,
               "grid size must be even and >= 4");
  runtime::System sys(machine, kind);

  Grid grid;
  grid.n = params.n;
  grid.hot = params.hot;
  grid.red = Aggregate2D<double>::create(sys.space(), params.n, params.n / 2);
  grid.black = Aggregate2D<double>::create(sys.space(), params.n, params.n / 2);

  double checksum = 0.0;

  sys.run([&](NodeCtx& c) {
    // Hand-optimized SPMD discipline under write-update: publish the freshly
    // written plane to its recorded readers before the phase barrier.
    for (const bool red_phase : {true, false}) {
      const auto& plane = red_phase ? grid.red : grid.black;
      const auto [lo, hi] = plane.row_range(c.id());
      for (std::size_t i = lo; i < hi; ++i)
        for (std::size_t k = 0; k < grid.n / 2; ++k)
          plane.set(c, i, k, 0.0);
    }
    c.barrier();

    for (int it = 0; it < params.iters; ++it) {
      if (params.flush_every > 0 && it > 0 && it % params.flush_every == 0) {
        c.flush_phase(kPhaseRed);
        c.flush_phase(kPhaseBlack);
      }
      if (directives) c.phase(kPhaseRed);
      sweep(c, grid, /*red_phase=*/true);
      c.publish(0, c.space().size_bytes());
      c.barrier();
      if (directives) c.phase(kPhaseBlack);
      sweep(c, grid, /*red_phase=*/false);
      c.publish(0, c.space().size_bytes());
      c.barrier();
    }

    double local = 0.0;
    const auto [lo, hi] = grid.red.row_range(c.id());
    for (std::size_t i = lo; i < hi; ++i)
      for (std::size_t k = 0; k < grid.n / 2; ++k)
        local += grid.red.get(c, i, k) + grid.black.get(c, i, k);
    const double total = c.reduce_sum(local);
    if (c.id() == 0) checksum = total;
  });

  AppResult result;
  result.report = sys.report("");
  result.checksum = checksum;
  return result;
}

}  // namespace presto::apps
