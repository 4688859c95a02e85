// Ablation (§3.3): incremental schedules vs periodic rebuild. The
// predictive protocol extends schedules incrementally and never tracks
// deletions; for patterns with churn the paper suggests flushing and
// rebuilding. This bench runs Adaptive (whose refinement only *adds*
// communication — incremental should win) under several flush policies.
#include "apps/adaptive/adaptive.h"
#include "bench/bench_common.h"
#include "runtime/machine.h"

using namespace presto;

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const auto scale = bench::Scale::from_cli(cli);

  apps::AdaptiveParams params;
  params.n = scale.divide > 1 ? 64 : 128;
  params.iters = static_cast<int>(cli.get_int("iters", 60) / scale.divide);
  const auto trace_cfg = bench::trace_from_cli(cli);
  const bool check = cli.get_bool("check");
  cli.reject_unknown();
  if (params.iters < 4) params.iters = 4;

  auto machine = runtime::MachineConfig::cm5_blizzard(scale.nodes, 32);
  machine.trace = trace_cfg;
  scale.apply(machine);

  std::vector<stats::Report> reports;
  std::vector<apps::AppResult> results;
  for (const int flush : {0, 4, 16}) {
    apps::AdaptiveParams p = params;
    p.flush_every = flush;
    auto r = apps::run_adaptive(p, machine,
                                runtime::ProtocolKind::kPredictive, true);
    r.report.label = flush == 0 ? "incremental (never flush)"
                                : "flush every " + std::to_string(flush);
    reports.push_back(r.report);
    results.push_back(std::move(r));
  }
  bench::check_equal_checksums(results, 0.0);

  bench::print_results(
      "Ablation: incremental schedules vs rebuild (Adaptive " +
          std::to_string(params.n) + "x" + std::to_string(params.n) + ", " +
          std::to_string(params.iters) + " iters)",
      reports);
  bench::check_shape(check, reports[0].exec <= reports[1].exec,
                     "never flushing " + bench::fmt_seconds(reports[0].exec) +
                         " <= flushing every 4 " +
                         bench::fmt_seconds(reports[1].exec));
  return 0;
}
