// Ablation (§5.4): the predictive protocol trades an extra presend phase
// and schedule-building for fewer high-latency remote misses — worthwhile
// on software DSMs (Blizzard/CM-5, ~200us misses), less so on
// hardware-assisted DSMs. This bench sweeps the machine's messaging costs
// from CM-5/Blizzard down to hardware-DSM scale and reports the optimized/
// unoptimized speedup on Water at each point.
#include "apps/water/water.h"
#include "bench/bench_common.h"
#include "runtime/machine.h"
#include "util/pool.h"
#include "util/table.h"

using namespace presto;

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const auto scale = bench::Scale::from_cli(cli);
  const int jobs =
      static_cast<int>(cli.get_int("jobs", util::default_pool_jobs()));
  const auto trace_cfg = bench::trace_from_cli(cli);
  const bool check = cli.get_bool("check");
  cli.reject_unknown();

  apps::WaterParams params;
  params.molecules = static_cast<std::size_t>(512 / scale.divide);
  params.steps = static_cast<int>(10 / scale.divide);
  if (params.molecules < 64) params.molecules = 64;
  if (params.steps < 2) params.steps = 2;

  util::Table t({"machine", "wire latency", "unopt exec (s)", "opt exec (s)",
                 "speedup", "opt presend (s)"});

  struct Point {
    const char* name;
    double latency_scale;  // applied to the CM-5 software messaging costs
  };
  const std::vector<Point> points = {
      {"cm5_blizzard x4", 4.0}, {"cm5_blizzard", 1.0},
      {"cm5_blizzard /4", 0.25}, {"cm5_blizzard /16", 0.0625},
      {"hw_dsm", -1.0},
  };

  auto machine_for = [&](const Point& pt) {
    runtime::MachineConfig m =
        pt.latency_scale < 0
            ? runtime::MachineConfig::hw_dsm(scale.nodes, 64)
            : runtime::MachineConfig::cm5_blizzard(scale.nodes, 32);
    if (pt.latency_scale > 0) {
      auto mul = [&](sim::Time v) {
        return static_cast<sim::Time>(static_cast<double>(v) *
                                      pt.latency_scale);
      };
      m.net.wire_latency = mul(m.net.wire_latency);
      m.net.per_byte = mul(m.net.per_byte);
      m.costs.fault = mul(m.costs.fault);
      m.costs.handler = mul(m.costs.handler);
    }
    scale.apply(m);
    return m;
  };

  // Flatten the sweep into independent (point, variant) simulations and run
  // them on the host pool; parallel_map returns index-ordered results, so
  // the printed table is identical at any --jobs.
  const int n_runs = static_cast<int>(points.size()) * 2;
  const auto runs = util::parallel_map(n_runs, jobs, [&](int i) {
    const Point& pt = points[static_cast<std::size_t>(i / 2)];
    const bool optimized = (i % 2) != 0;
    runtime::MachineConfig m = machine_for(pt);
    m.trace = trace_cfg.for_run(i);
    return optimized
               ? apps::run_water(params, m, runtime::ProtocolKind::kPredictive,
                                 true)
               : apps::run_water(params, m, runtime::ProtocolKind::kStache,
                                 false);
  });

  std::vector<double> speedups;
  for (std::size_t p = 0; p < points.size(); ++p) {
    const Point& pt = points[p];
    const runtime::MachineConfig m = machine_for(pt);
    const auto& unopt = runs[2 * p];
    const auto& opt = runs[2 * p + 1];
    speedups.push_back(static_cast<double>(unopt.report.exec) /
                       static_cast<double>(opt.report.exec));
    t.add_row({pt.name,
               util::fmt_double(sim::to_micros(m.net.wire_latency), 1) + " us",
               util::fmt_double(sim::to_seconds(unopt.report.exec), 4),
               util::fmt_double(sim::to_seconds(opt.report.exec), 4),
               util::fmt_double(static_cast<double>(unopt.report.exec) /
                                    static_cast<double>(opt.report.exec),
                                3),
               util::fmt_double(sim::to_seconds(opt.report.presend), 4)});
  }

  std::printf("\n== Ablation: remote-latency regime sweep (Water, %d nodes) "
              "==\n%s",
              scale.nodes, t.to_string().c_str());
  bool falls = true;
  std::string values;
  for (std::size_t p = 0; p < speedups.size(); ++p) {
    if (p > 0) falls &= speedups[p] < speedups[p - 1];
    values += (p > 0 ? " > " : "") + util::fmt_double(speedups[p], 3);
  }
  bench::check_shape(check, falls,
                     "opt/unopt speedup falls as latency falls: " + values);
  return 0;
}
