// Ablation: computation/data distribution choice (paper §4.1 lists block,
// row-block, and tiled schemes). A 5-point Jacobi stencil (two grids,
// alternating sweeps) exchanges one halo ring per sweep: row-block moves 2
// full rows per node, a tiled mesh moves 2(w+h) shorter edges — the classic
// surface-to-volume trade, measured under both Stache and the predictive
// protocol.
#include <algorithm>

#include "bench/bench_common.h"
#include "runtime/aggregate.h"
#include "runtime/system.h"

using namespace presto;

namespace {

template <typename Agg, typename OwnedFn>
apps::AppResult run_stencil(const std::string& label,
                            runtime::ProtocolKind kind, bool directives,
                            const bench::Scale& scale, std::size_t n,
                            int iters, OwnedFn owned,
                            const trace::TraceConfig& tcfg) {
  auto machine = runtime::MachineConfig::cm5_blizzard(scale.nodes, 32);
  machine.trace = tcfg;
  scale.apply(machine);
  runtime::System sys(machine, kind);
  Agg a = Agg::create(sys.space(), n, n);
  Agg b = Agg::create(sys.space(), n, n);
  apps::AppResult result;
  sys.run([&](runtime::NodeCtx& c) {
    owned(c, a, [&](std::size_t i, std::size_t j) {
      a.set(c, i, j, static_cast<float>(i * 31 + j));
      b.set(c, i, j, 0.0f);
    });
    c.barrier();
    const Agg* cur = &b;
    const Agg* prev = &a;
    for (int it = 0; it < iters; ++it) {
      if (directives) c.phase(it % 2);
      owned(c, *cur, [&](std::size_t i, std::size_t j) {
        const float up = i > 0 ? prev->get(c, i - 1, j) : 0.0f;
        const float down = i + 1 < n ? prev->get(c, i + 1, j) : 0.0f;
        const float left = j > 0 ? prev->get(c, i, j - 1) : 0.0f;
        const float right = j + 1 < n ? prev->get(c, i, j + 1) : 0.0f;
        c.charge_flops(4);
        cur->set(c, i, j, 0.25f * (up + down + left + right));
      });
      c.barrier();
      std::swap(cur, prev);
    }
    double local = 0.0;
    owned(c, *prev, [&](std::size_t i, std::size_t j) {
      local += prev->get(c, i, j);
    });
    const double total = c.reduce_sum(local);
    if (c.id() == 0) result.checksum = total;
  });
  result.report = sys.report(label);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const auto scale = bench::Scale::from_cli(cli);
  const std::size_t n =
      static_cast<std::size_t>(cli.get_int("mesh", 128) /
                               (scale.divide > 1 ? 2 : 1));
  // At least 6 sweeps so the schedules have repetition to exploit.
  const int iters = std::max<int>(
      6, static_cast<int>(cli.get_int("iters", 20) / scale.divide));
  const auto trace_cfg = bench::trace_from_cli(cli);
  const bool check = cli.get_bool("check");
  cli.reject_unknown();

  auto rowblock_owned = [](runtime::NodeCtx& c,
                           const runtime::Aggregate2D<float>& agg,
                           auto&& fn) {
    const auto [lo, hi] = agg.row_range(c.id());
    for (std::size_t i = lo; i < hi; ++i)
      for (std::size_t j = 0; j < agg.cols(); ++j) fn(i, j);
  };
  auto tiled_owned = [](runtime::NodeCtx& c,
                        const runtime::TiledAggregate2D<float>& agg,
                        auto&& fn) {
    const auto t = agg.tile(c.id());
    for (std::size_t i = t.row_lo; i < t.row_hi; ++i)
      for (std::size_t j = t.col_lo; j < t.col_hi; ++j) fn(i, j);
  };

  std::vector<stats::Report> reports;
  std::vector<apps::AppResult> results;
  int run = 0;
  for (const bool opt : {false, true}) {
    const auto kind = opt ? runtime::ProtocolKind::kPredictive
                          : runtime::ProtocolKind::kStache;
    const char* suffix = opt ? " + predictive" : " (stache)";
    results.push_back(run_stencil<runtime::Aggregate2D<float>>(
        std::string("row-block") + suffix, kind, opt, scale, n, iters,
        rowblock_owned, trace_cfg.for_run(run++)));
    results.push_back(run_stencil<runtime::TiledAggregate2D<float>>(
        std::string("tiled") + suffix, kind, opt, scale, n, iters,
        tiled_owned, trace_cfg.for_run(run++)));
  }
  for (const auto& r : results) reports.push_back(r.report);
  bench::check_equal_checksums(results, 0.0);

  bench::print_results(
      "Ablation: data distribution (Jacobi stencil, " + std::to_string(n) +
          "x" + std::to_string(n) + ", " + std::to_string(iters) +
          " sweeps, " + std::to_string(scale.nodes) + " nodes)",
      reports);
  // reports: row-block, tiled under Stache, then under predictive.
  bench::check_shape(
      check,
      reports[0].exec < reports[1].exec && reports[2].exec < reports[3].exec,
      "row-block < tiled: stache " + bench::fmt_seconds(reports[0].exec) +
          " vs " + bench::fmt_seconds(reports[1].exec) + ", predictive " +
          bench::fmt_seconds(reports[2].exec) + " vs " +
          bench::fmt_seconds(reports[3].exec));
  return 0;
}
