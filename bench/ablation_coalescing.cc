// Ablation (§3.4): bulk-message coalescing in the presend phase. The
// predictive protocol coalesces neighbouring cache blocks into bulk
// messages to amortize message startup costs; this bench runs Water and
// Adaptive with coalescing on and off and reports presend time, messages,
// and total execution time. Without access to System internals the apps
// expose no toggle, so the bench drives the runtime directly through a
// synthetic producer-consumer kernel plus the real Water app.
#include "apps/common/versions.h"
#include "bench/bench_common.h"
#include "runtime/aggregate.h"
#include "runtime/system.h"
#include "util/table.h"

using namespace presto;

namespace {

// Synthetic kernel: one producer node writes a large contiguous region each
// iteration; every other node reads all of it (maximum coalescing benefit).
stats::Report run_stream(const bench::Scale& scale, std::size_t kilobytes,
                         int iters, bool coalesce,
                         const trace::TraceConfig& tcfg) {
  auto machine = runtime::MachineConfig::cm5_blizzard(scale.nodes, 32);
  scale.apply(machine);
  machine.trace = tcfg;
  runtime::System sys(machine, runtime::ProtocolKind::kPredictive);
  sys.predictive()->set_coalescing(coalesce);
  const std::size_t bytes = kilobytes * 1024;
  const auto base = sys.space().alloc_on_node(0, bytes);
  sys.run([&](runtime::NodeCtx& c) {
    for (int it = 0; it < iters; ++it) {
      c.phase(0);
      if (c.id() == 0)
        for (std::size_t off = 0; off < bytes; off += 32)
          c.write<int>(base + off, static_cast<int>(off + static_cast<std::size_t>(it)));
      c.barrier();
      c.phase(1);
      if (c.id() != 0) {
        long sum = 0;
        for (std::size_t off = 0; off < bytes; off += 32)
          sum += c.read<int>(base + off);
        c.charge_flops(static_cast<std::int64_t>(bytes / 32));
        if (sum == 42) c.charge(1);  // keep the sum alive
      }
      c.barrier();
    }
  });
  return sys.report(coalesce ? "coalescing on" : "coalescing off");
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const auto scale = bench::Scale::from_cli(cli);
  const std::size_t kb =
      static_cast<std::size_t>(cli.get_int("kb", 64) / scale.divide + 1);
  const int iters = static_cast<int>(cli.get_int("iters", 8));
  const auto trace_cfg = bench::trace_from_cli(cli);
  const bool check = cli.get_bool("check");
  cli.reject_unknown();

  std::vector<stats::Report> reports;
  int run = 0;
  for (const bool coalesce : {true, false})
    reports.push_back(
        run_stream(scale, kb, iters, coalesce, trace_cfg.for_run(run++)));

  bench::print_results("Ablation: presend bulk coalescing (producer-consumer "
                       "stream, " + std::to_string(kb) + " KiB/iter)",
                       reports);
  std::printf("\npresend msgs: %llu (on) vs %llu (off); presend time ratio "
              "off/on = %.2fx\n",
              static_cast<unsigned long long>(reports[0].msgs),
              static_cast<unsigned long long>(reports[1].msgs),
              static_cast<double>(reports[1].presend) /
                  std::max<double>(1.0, static_cast<double>(reports[0].presend)));
  bench::check_shape(check, reports[1].msgs >= 5 * reports[0].msgs,
                     "coalescing off sends >= 5x the messages (" +
                         std::to_string(reports[1].msgs) + " vs " +
                         std::to_string(reports[0].msgs) + ")");
  return 0;
}
