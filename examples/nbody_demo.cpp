// N-body demo: Barnes-Hut under three communication regimes — transparent
// shared memory (Stache), compiler-directed predictive protocol, and the
// hand-optimized SPMD style on an application-specific write-update
// protocol.
//
//   $ ./build/examples/nbody_demo --bodies=1024 --steps=3 --nodes=16
#include <cstdio>

#include "apps/barnes/barnes.h"
#include "stats/report.h"
#include "trace/config.h"
#include "util/cli.h"

using namespace presto;

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  apps::BarnesParams params;
  params.bodies = static_cast<std::size_t>(cli.get_int("bodies", 1024));
  params.steps = static_cast<int>(cli.get_int("steps", 3));
  const int nodes = static_cast<int>(cli.get_int("nodes", 16));
  const auto block = static_cast<std::uint32_t>(cli.get_int("block", 64));
  const auto trace_cfg = trace::TraceConfig::from_spec(cli.get("trace", ""));
  cli.reject_unknown();

  auto machine = runtime::MachineConfig::cm5_blizzard(nodes, block);
  std::printf("Barnes-Hut: %zu bodies, %d steps, %d nodes, %uB blocks\n\n",
              params.bodies, params.steps, nodes, block);

  struct Version {
    const char* label;
    runtime::ProtocolKind kind;
    bool directives;
  };
  const Version versions[] = {
      {"stache (transparent)", runtime::ProtocolKind::kStache, false},
      {"predictive + directives", runtime::ProtocolKind::kPredictive, true},
      {"SPMD write-update", runtime::ProtocolKind::kWriteUpdate, false},
  };

  std::vector<stats::Report> reports;
  double checksum = 0.0;
  bool mismatch = false;
  int run = 0;
  for (const auto& v : versions) {
    machine.trace = trace_cfg.for_run(run++);
    auto r = apps::run_barnes(params, machine, v.kind, v.directives);
    r.report.label = v.label;
    if (reports.empty())
      checksum = r.checksum;
    else if (r.checksum != checksum)
      mismatch = true;
    reports.push_back(r.report);
  }
  std::printf("%s", stats::Report::bars(reports).c_str());
  std::printf("%s", stats::Report::table(reports).c_str());
  std::printf("\nchecksum agreement: %s (%.9f)\n",
              mismatch ? "MISMATCH" : "all versions identical", checksum);
  return mismatch ? 1 : 0;
}
