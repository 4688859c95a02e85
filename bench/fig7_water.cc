// Figure 7: execution time of three versions of Water — C** with and
// without optimized communication, and a Splash-style transparent-shared-
// memory version with lock-guarded force accumulation. As in the paper,
// each version runs at its own best cache block size (chosen by a small
// per-version sweep, reported in parentheses). The paper's result: the
// optimized version wins modestly over the unoptimized one (~1.05x) and by
// ~1.2x over Splash.
#include "apps/water/splash_water.h"
#include "apps/water/water.h"
#include "bench/bench_common.h"
#include "runtime/machine.h"

using namespace presto;

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const auto scale = bench::Scale::from_cli(cli);

  apps::WaterParams params;  // paper: 512 molecules, 20 time steps
  params.molecules = static_cast<std::size_t>(
      cli.get_int("molecules", static_cast<std::int64_t>(params.molecules)) /
      scale.divide);
  params.steps =
      static_cast<int>(cli.get_int("steps", params.steps) / scale.divide);
  if (params.molecules < 64) params.molecules = 64;
  if (params.steps < 2) params.steps = 2;

  const std::vector<std::uint32_t> block_sizes = {32, 128, 512};

  struct Version {
    const char* label;
    runtime::ProtocolKind kind;
    bool directives;
    bool splash;
  };
  const std::vector<Version> versions = {
      {"C** unopt", runtime::ProtocolKind::kStache, false, false},
      {"C** opt", runtime::ProtocolKind::kPredictive, true, false},
      {"Splash", runtime::ProtocolKind::kStache, false, true},
  };

  // The Splash variant is by far the slowest to *simulate* (every locked
  // force update is a protocol transaction); sweep its block size only on
  // request and use a single representative size by default.
  const std::vector<std::uint32_t> splash_blocks =
      cli.get_bool("splash-sweep") ? block_sizes
                                   : std::vector<std::uint32_t>{128};
  const auto trace_cfg = bench::trace_from_cli(cli);
  const bool check = cli.get_bool("check");
  cli.reject_unknown();

  std::vector<apps::AppResult> results;
  std::vector<stats::Report> reports;
  int run = 0;
  for (const auto& v : versions) {
    // Per-version best block size, as in the paper's figure.
    apps::AppResult best;
    bool have = false;
    for (const std::uint32_t block : v.splash ? splash_blocks : block_sizes) {
      auto machine =
          runtime::MachineConfig::cm5_blizzard(scale.nodes, block);
      machine.trace = trace_cfg.for_run(run++);
      scale.apply(machine);
      auto r = v.splash ? apps::run_water_splash(params, machine)
                        : apps::run_water(params, machine, v.kind,
                                          v.directives);
      r.report.label = apps::version_label(v.label, block);
      std::printf("  %-16s exec=%.3fs\n", r.report.label.c_str(),
                  sim::to_seconds(r.report.exec));
      std::fflush(stdout);
      if (!have || r.report.exec < best.report.exec) {
        best = std::move(r);
        have = true;
      }
    }
    reports.push_back(best.report);
    results.push_back(std::move(best));
  }
  // Splash accumulates in a different order: tolerate FP noise.
  bench::check_equal_checksums(results, 1e-6);

  bench::print_results(
      "Figure 7: Water (" + std::to_string(params.molecules) +
          " molecules, " + std::to_string(params.steps) + " steps, " +
          std::to_string(scale.nodes) + " nodes; best block per version)",
      reports);

  std::printf("\nunopt/opt = %.2fx (paper: 1.05x); splash/opt = %.2fx "
              "(paper: 1.2x)\n",
              static_cast<double>(reports[0].exec) /
                  static_cast<double>(reports[1].exec),
              static_cast<double>(reports[2].exec) /
                  static_cast<double>(reports[1].exec));
  bench::check_shape(
      check,
      reports[1].exec < reports[0].exec && reports[0].exec < reports[2].exec,
      "opt " + bench::fmt_seconds(reports[1].exec) + " < unopt " +
          bench::fmt_seconds(reports[0].exec) + " < Splash " +
          bench::fmt_seconds(reports[2].exec));
  return 0;
}
