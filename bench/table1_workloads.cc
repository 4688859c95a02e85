// Table 1: the benchmark applications and their data sets, verified by
// actually running each workload generator and reporting its measured
// characteristics (shared accesses, faults, merge traffic, messages) — one
// cell per application x protocol, with the protocol list taken from the
// registry (runtime::kAllProtocolKinds, restrictable via --protocol=NAME).
#include "apps/adaptive/adaptive.h"
#include "apps/barnes/barnes.h"
#include "apps/ocean/ocean.h"
#include "apps/ranker/ranker.h"
#include "apps/water/water.h"
#include "bench/bench_common.h"
#include "runtime/machine.h"
#include "util/pool.h"
#include "util/table.h"

using namespace presto;

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const auto scale = bench::Scale::from_cli(cli);
  const auto protocols = bench::protocols_from_cli(cli);
  const int jobs =
      static_cast<int>(cli.get_int("jobs", util::default_pool_jobs()));
  const auto trace_cfg = bench::trace_from_cli(cli);
  cli.reject_unknown();

  util::Table spec({"Program", "Brief Description", "Data set (paper)"});
  spec.add_row({"Adaptive", "Structured adaptive mesh",
                "128x128 mesh, 100 iterations"});
  spec.add_row({"Barnes", "Gravitational N-body simulation",
                "16384 bodies, 3 iterations"});
  spec.add_row({"Water", "Molecular dynamics", "512 molecules, 20 iterations"});
  spec.add_row({"Ocean", "Red-black stencil relaxation",
                "258x258 grid, 100 iterations"});
  spec.add_row({"Ranker", "Pagerank push, drifting graph",
                "4096 vertices, 20 iterations"});
  std::printf("Table 1: Benchmark applications\n%s\n", spec.to_string().c_str());

  // Measured workload characteristics (scaled sizes) per protocol.
  auto machine = runtime::MachineConfig::cm5_blizzard(scale.nodes, 32);
  scale.apply(machine);

  apps::AdaptiveParams ap;
  ap.iters = static_cast<int>(100 / scale.divide);
  if (scale.divide > 1) ap.n = 64;
  if (ap.iters < 1) ap.iters = 1;

  apps::BarnesParams bp;
  bp.bodies = static_cast<std::size_t>(16384 / scale.divide);

  apps::WaterParams wp;
  wp.molecules = static_cast<std::size_t>(512 / scale.divide);
  wp.steps = static_cast<int>(20 / scale.divide);
  if (wp.steps < 2) wp.steps = 2;

  apps::OceanParams op;
  op.n = scale.divide > 1 ? 64 : 258;
  op.iters = static_cast<int>(100 / scale.divide);
  if (op.iters < 1) op.iters = 1;

  apps::RankerParams rp;
  rp.vertices = static_cast<std::size_t>(4096 / scale.divide);
  rp.iters = static_cast<int>(20 / scale.divide);
  if (rp.iters < 2) rp.iters = 2;

  constexpr int kApps = 5;
  const char* app_names[kApps] = {"Adaptive", "Barnes", "Water", "Ocean",
                                  "Ranker"};
  const int nprotos = static_cast<int>(protocols.size());

  // Every (application, protocol) cell is an independent System instance;
  // run them on the host pool (index-ordered results keep the table
  // deterministic: app-major, protocol order as listed).
  const auto results =
      util::parallel_map(kApps * nprotos, jobs, [&](int i) {
        const int a = i / nprotos;
        const auto kind = protocols[static_cast<std::size_t>(i % nprotos)];
        const bool directives =
            kind == runtime::ProtocolKind::kPredictive ||
            kind == runtime::ProtocolKind::kPredictiveAnticipate;
        runtime::MachineConfig m = machine;
        m.trace = trace_cfg.for_run(i);
        switch (a) {
          case 0: return apps::run_adaptive(ap, m, kind, directives);
          case 1: return apps::run_barnes(bp, m, kind, directives);
          case 2: return apps::run_water(wp, m, kind, directives);
          case 3: return apps::run_ocean(op, m, kind, directives);
          default: return apps::run_ranker(rp, m, kind, directives);
        }
      });

  util::Table t({"Program", "protocol", "shared accesses", "faults",
                 "cc flushes", "local hit %", "presend blocks", "msgs",
                 "sim exec (s)"});
  for (int a = 0; a < kApps; ++a) {
    std::vector<apps::AppResult> per_app(
        results.begin() + a * nprotos,
        results.begin() + (a + 1) * nprotos);
    // Every protocol must compute the same answer for the same program —
    // schedules change when data moves, never what a read observes.
    bench::check_equal_checksums(per_app, 0.0);
    for (int p = 0; p < nprotos; ++p) {
      const stats::Report& r = per_app[static_cast<std::size_t>(p)].report;
      t.add_row({app_names[a],
                 runtime::protocol_kind_name(protocols[
                     static_cast<std::size_t>(p)]),
                 std::to_string(r.shared_accesses), std::to_string(r.faults),
                 std::to_string(r.cc_flushes),
                 util::fmt_double(r.local_hit_pct, 2),
                 std::to_string(r.presend_blocks), std::to_string(r.msgs),
                 util::fmt_double(sim::to_seconds(r.exec), 3)});
    }
  }
  std::printf("Measured characteristics (32B blocks, %d nodes, "
              "scale 1/%lld):\n%s",
              scale.nodes, static_cast<long long>(scale.divide),
              t.to_string().c_str());
  // When traced, surface the attribution block (miss classes including
  // merge traffic) for each application's protocol sweep.
  if (trace_cfg.enabled) {
    for (int a = 0; a < kApps; ++a) {
      std::vector<stats::Report> reports;
      for (int p = 0; p < nprotos; ++p)
        reports.push_back(
            results[static_cast<std::size_t>(a * nprotos + p)].report);
      const std::string trace = stats::Report::trace_summary(reports);
      if (!trace.empty()) std::printf("%s: %s", app_names[a], trace.c_str());
    }
  }
  return 0;
}
