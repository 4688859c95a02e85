// Figure 6: execution time of five versions of Barnes — C** with and
// without optimized communication at 32- and 1024-byte cache blocks, plus a
// hand-optimized SPMD version on an application-specific write-update
// protocol (Falsafi et al. [5]). The paper's result: at 32-byte blocks the
// predictive protocol cuts shared-memory wait sharply, but Barnes's spatial
// locality lets the unoptimized version exploit 1024-byte blocks, ending up
// marginally faster than the optimized one; both 1024-byte versions edge
// out the hand-optimized SPMD baseline.
#include "apps/barnes/barnes.h"
#include "bench/bench_common.h"
#include "runtime/machine.h"

using namespace presto;

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const auto scale = bench::Scale::from_cli(cli);

  apps::BarnesParams params;  // paper: 16384 bodies, 3 iterations
  params.bodies = static_cast<std::size_t>(
      cli.get_int("bodies", static_cast<std::int64_t>(params.bodies)) /
      scale.divide);
  params.steps = static_cast<int>(cli.get_int("steps", params.steps));
  const auto trace_cfg = bench::trace_from_cli(cli);
  const bool check = cli.get_bool("check");
  cli.reject_unknown();
  if (params.bodies < 64) params.bodies = 64;

  struct Version {
    const char* label;
    std::uint32_t block;
    runtime::ProtocolKind kind;
    bool directives;
  };
  const std::vector<Version> versions = {
      {"C** unopt", 32, runtime::ProtocolKind::kStache, false},
      {"C** opt", 32, runtime::ProtocolKind::kPredictive, true},
      {"C** unopt", 1024, runtime::ProtocolKind::kStache, false},
      {"C** opt", 1024, runtime::ProtocolKind::kPredictive, true},
      {"SPMD hand-opt", 1024, runtime::ProtocolKind::kWriteUpdate, false},
  };

  std::vector<apps::AppResult> results;
  std::vector<stats::Report> reports;
  int run = 0;
  for (const auto& v : versions) {
    auto machine =
        runtime::MachineConfig::cm5_blizzard(scale.nodes, v.block);
    machine.trace = trace_cfg.for_run(run++);
    scale.apply(machine);
    auto r = apps::run_barnes(params, machine, v.kind, v.directives);
    r.report.label = apps::version_label(v.label, v.block);
    std::printf("%-20s checksum=%.9f\n", r.report.label.c_str(), r.checksum);
    std::fflush(stdout);
    reports.push_back(r.report);
    results.push_back(std::move(r));
  }
  bench::check_equal_checksums(results, 0.0);

  bench::print_results(
      "Figure 6: Barnes (" + std::to_string(params.bodies) + " bodies, " +
          std::to_string(params.steps) + " steps, " +
          std::to_string(scale.nodes) + " nodes)",
      reports);

  std::printf("\nunopt(32)/opt(32) = %.2fx; opt(1024)/unopt(1024) = %.2fx "
              "(paper: opt(32) much faster; unopt(1024) marginally ahead)\n",
              static_cast<double>(reports[0].exec) /
                  static_cast<double>(reports[1].exec),
              static_cast<double>(reports[3].exec) /
                  static_cast<double>(reports[2].exec));
  bench::check_shape(check, reports[2].exec < reports[1].exec,
                     "crossover: C** unopt (1024) " +
                         bench::fmt_seconds(reports[2].exec) +
                         " < C** opt (32) " +
                         bench::fmt_seconds(reports[1].exec));
  return 0;
}
