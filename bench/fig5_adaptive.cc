// Figure 5: execution time of four C** versions of Adaptive — with and
// without compiler-directed communication optimization, at 32- and 256-byte
// cache blocks — on a 32-node CM-5/Blizzard machine model. The paper's
// result: the predictive protocol converts most remote-data wait into a
// much smaller presend phase, also shrinking synchronization time from load
// imbalance; the best optimized version is ~1.5x the best unoptimized one,
// and at 256-byte blocks presend moves redundant data, narrowing the gap.
#include "apps/adaptive/adaptive.h"
#include "bench/bench_common.h"
#include "runtime/machine.h"

using namespace presto;

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const auto scale = bench::Scale::from_cli(cli);

  apps::AdaptiveParams params;  // paper: 128x128 mesh, 100 iterations
  params.n = static_cast<std::size_t>(
      cli.get_int("mesh", static_cast<std::int64_t>(params.n)));
  params.iters =
      static_cast<int>(cli.get_int("iters", params.iters) / scale.divide);
  const auto trace_cfg = bench::trace_from_cli(cli);
  const bool check = cli.get_bool("check");
  cli.reject_unknown();
  if (scale.divide > 1 && params.n > 32) params.n /= 2;
  if (params.iters < 1) params.iters = 1;

  struct Version {
    const char* label;
    std::uint32_t block;
    bool optimized;
  };
  const std::vector<Version> versions = {
      {"C** unopt", 32, false},
      {"C** opt", 32, true},
      {"C** unopt", 256, false},
      {"C** opt", 256, true},
  };

  std::vector<apps::AppResult> results;
  std::vector<stats::Report> reports;
  for (const auto& v : versions) {
    auto machine =
        runtime::MachineConfig::cm5_blizzard(scale.nodes, v.block);
    machine.trace = trace_cfg;
    scale.apply(machine);
    auto r = apps::run_adaptive(params, machine,
                                v.optimized
                                    ? runtime::ProtocolKind::kPredictive
                                    : runtime::ProtocolKind::kStache,
                                v.optimized);
    r.report.label = apps::version_label(v.label, v.block);
    std::printf("%-16s checksum=%.6f\n", r.report.label.c_str(), r.checksum);
    std::fflush(stdout);
    reports.push_back(r.report);
    results.push_back(std::move(r));
  }
  bench::check_equal_checksums(results, 0.0);

  bench::print_results(
      "Figure 5: Adaptive (" + std::to_string(params.n) + "x" +
          std::to_string(params.n) + ", " + std::to_string(params.iters) +
          " iters, " + std::to_string(scale.nodes) + " nodes)",
      reports);

  // Paper headline: best optimized vs best unoptimized.
  const double best_opt =
      std::min(static_cast<double>(reports[1].exec),
               static_cast<double>(reports[3].exec));
  const double best_unopt =
      std::min(static_cast<double>(reports[0].exec),
               static_cast<double>(reports[2].exec));
  std::printf("\nbest unopt / best opt = %.2fx (paper: 1.56x)\n",
              best_unopt / best_opt);
  bool opt32_fastest = true;
  for (const auto& r : reports) opt32_fastest &= reports[1].exec <= r.exec;
  bench::check_shape(check, opt32_fastest,
                     "C** opt (32) is the fastest version (" +
                         bench::fmt_seconds(reports[1].exec) + ")");
  return 0;
}
