// Adaptive-mesh demo: run the structured adaptive mesh application at a
// configurable size, compare unoptimized vs compiler-directed versions, and
// print where the time went.
//
//   $ ./build/examples/adaptive_demo --mesh=64 --iters=30 --nodes=16
#include <cstdio>

#include "apps/adaptive/adaptive.h"
#include "stats/report.h"
#include "trace/config.h"
#include "util/cli.h"

using namespace presto;

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  apps::AdaptiveParams params;
  params.n = static_cast<std::size_t>(cli.get_int("mesh", 64));
  params.iters = static_cast<int>(cli.get_int("iters", 30));
  const int nodes = static_cast<int>(cli.get_int("nodes", 16));
  const auto block = static_cast<std::uint32_t>(cli.get_int("block", 32));
  const auto trace_cfg = trace::TraceConfig::from_spec(cli.get("trace", ""));
  cli.reject_unknown();

  auto machine = runtime::MachineConfig::cm5_blizzard(nodes, block);
  machine.trace = trace_cfg.for_run(0);
  std::printf("Adaptive %zux%zu, %d iterations, %d nodes, %uB blocks\n\n",
              params.n, params.n, params.iters, nodes, block);

  auto unopt =
      apps::run_adaptive(params, machine, runtime::ProtocolKind::kStache, false);
  unopt.report.label = "unoptimized (stache)";
  machine.trace = trace_cfg.for_run(1);
  auto opt = apps::run_adaptive(params, machine,
                                runtime::ProtocolKind::kPredictive, true);
  opt.report.label = "optimized (predictive)";

  std::vector<stats::Report> reports = {unopt.report, opt.report};
  std::printf("%s", stats::Report::bars(reports).c_str());
  std::printf("%s", stats::Report::table(reports).c_str());
  std::printf("\nchecksums: %.6f vs %.6f (%s)\n", unopt.checksum, opt.checksum,
              unopt.checksum == opt.checksum ? "identical" : "MISMATCH");
  std::printf("speedup: %.2fx\n", static_cast<double>(unopt.report.exec) /
                                      static_cast<double>(opt.report.exec));
  return unopt.checksum == opt.checksum ? 0 : 1;
}
