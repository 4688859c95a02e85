// presto_fuzz — differential protocol fuzzer driver (see docs/testing.md).
//
//   presto_fuzz --count=200 --seed=1            fixed corpus (CI smoke)
//   presto_fuzz --seed=$RANDOM --time-budget=600 long fuzz (scheduled CI)
//   presto_fuzz --replay=fail-42.trace           re-execute a dumped failure
//   presto_fuzz --inject-bug=skip-invalidate     plant a protocol bug; the
//                                                oracle must catch it
//   presto_fuzz --selfcheck                      determinism self-test
//   presto_fuzz --backend=parallel --workers=4   add the backend differential:
//                                                every program also runs
//                                                serial-windowed vs the
//                                                parallel worker pool, which
//                                                must agree bit-identically
//
// Exit status: 0 = all programs clean (or replay reproduced "ok"), 1 = a
// failure was found (trace dumped to --dump-dir) or a replay still fails.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "check/fuzz.h"
#include "sim/fiber.h"
#include "util/check.h"
#include "util/cli.h"
#include "util/pool.h"

namespace {

using presto::check::check_program;
using presto::check::FuzzProgram;
using presto::check::FuzzVerdict;

int replay(const std::string& path, bool latency_sweep,
           int parallel_workers) {
  std::ifstream in(path);
  PRESTO_CHECK(in.good(), "cannot open trace file '" << path << "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  const FuzzProgram prog = presto::check::parse_trace(buf.str());
  const FuzzVerdict v = check_program(prog, latency_sweep, parallel_workers);
  // The simulation is deterministic: two replays of the same trace print
  // byte-identical reports (tests diff them).
  std::printf("%s\n", v.report.c_str());
  return v.ok ? 0 : 1;
}

int selfcheck(bool latency_sweep, int parallel_workers) {
  // Determinism: the same program checked twice must produce byte-identical
  // reports (digest covers every run's observable outputs).
  const FuzzProgram prog = presto::check::generate(7);
  const FuzzVerdict a = check_program(prog, latency_sweep, parallel_workers);
  const FuzzVerdict b = check_program(prog, latency_sweep, parallel_workers);
  if (!a.ok || a.report != b.report) {
    std::printf("selfcheck FAILED\nfirst:  %s\nsecond: %s\n",
                a.report.c_str(), b.report.c_str());
    return 1;
  }
  // Trace round-trip: serialize -> parse -> identical report.
  const FuzzProgram round =
      presto::check::parse_trace(presto::check::serialize_trace(prog));
  const FuzzVerdict c = check_program(round, latency_sweep, parallel_workers);
  if (c.report != a.report) {
    std::printf("selfcheck FAILED: trace round-trip changed the program\n");
    return 1;
  }
  std::printf("selfcheck ok\n%s\n", a.report.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  presto::util::Cli cli(argc, argv);
  const std::int64_t count = cli.get_int("count", 200);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const std::string dump_dir = cli.get("dump-dir", "fuzz-failures");
  const std::string replay_path = cli.get("replay", "");
  const std::string inject = cli.get("inject-bug", "");
  const bool do_selfcheck = cli.get_bool("selfcheck", false);
  const bool latency_sweep = cli.get_int("latency-sweep", 1) != 0;
  const std::int64_t time_budget = cli.get_int("time-budget", 0);  // seconds
  const int shrink_attempts =
      static_cast<int>(cli.get_int("shrink-attempts", 200));
  int jobs = static_cast<int>(
      cli.get_int("jobs", presto::util::default_pool_jobs()));
  // --backend=parallel adds the backend differential; fiber (the default)
  // adds none.
  const std::string backend_s = cli.get("backend", "");
  presto::sim::Backend backend = presto::sim::Backend::kFiber;
  if (!backend_s.empty())
    PRESTO_CHECK(presto::sim::backend_from_name(backend_s, &backend),
                 "--backend: unknown backend '"
                     << backend_s << "' (expected one of: "
                     << presto::sim::backend_names() << ")");
  int parallel_workers = 0;
  if (backend == presto::sim::Backend::kParallel) {
    parallel_workers = static_cast<int>(cli.get_int("workers", 4));
    PRESTO_CHECK(parallel_workers >= 1, "--workers must be >= 1");
  } else {
    (void)cli.get_int("workers", 0);  // accepted, meaningful with --backend
  }
  cli.reject_unknown();
  PRESTO_CHECK(jobs >= 1, "--jobs must be >= 1");

  if (do_selfcheck) return selfcheck(latency_sweep, parallel_workers);
  if (!replay_path.empty())
    return replay(replay_path, latency_sweep, parallel_workers);

  if (!inject.empty() && jobs > 1) {
    // Bug injection goes through the process-wide check::bug_hooks() table;
    // concurrent instances would share the planted bug's bookkeeping.
    std::printf("--inject-bug is process-wide; forcing --jobs=1\n");
    jobs = 1;
  }

  // The corpus is embarrassingly parallel: each program is an independent
  // simulation instance, so chunks of `jobs * 4` seeds run on the host pool.
  // Determinism is preserved — on failure the lowest failing seed in the
  // chunk is the one shrunk and dumped, exactly what the serial loop would
  // have reported — and the time budget is honoured at chunk granularity.
  const auto t0 = std::chrono::steady_clock::now();
  const std::int64_t chunk =
      std::max<std::int64_t>(1, static_cast<std::int64_t>(jobs) * 4);
  std::int64_t checked = 0;
  for (std::int64_t base = 0; base < count; base += chunk) {
    if (time_budget > 0) {
      const auto elapsed = std::chrono::duration_cast<std::chrono::seconds>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
      if (elapsed >= time_budget) {
        std::printf("time budget reached after %lld programs\n",
                    static_cast<long long>(checked));
        break;
      }
    }
    const std::int64_t n = std::min<std::int64_t>(chunk, count - base);
    if (jobs > 1) {
      std::printf("checking seeds %llu..%llu on %d host threads\n",
                  static_cast<unsigned long long>(seed +
                                                  static_cast<std::uint64_t>(base)),
                  static_cast<unsigned long long>(
                      seed + static_cast<std::uint64_t>(base + n - 1)),
                  jobs);
      std::fflush(stdout);
    }
    const std::vector<FuzzVerdict> verdicts = presto::util::parallel_map(
        static_cast<int>(n), jobs, [&](int i) {
          FuzzProgram prog = presto::check::generate(
              seed + static_cast<std::uint64_t>(base + i));
          prog.injected_bug = inject;
          return check_program(prog, latency_sweep, parallel_workers);
        });
    checked += n;
    const auto bad = std::find_if(verdicts.begin(), verdicts.end(),
                                  [](const FuzzVerdict& v) { return !v.ok; });
    if (bad == verdicts.end()) continue;

    const std::int64_t idx = base + (bad - verdicts.begin());
    FuzzProgram prog =
        presto::check::generate(seed + static_cast<std::uint64_t>(idx));
    prog.injected_bug = inject;
    std::printf("FAILURE on seed %llu:\n%s\nshrinking...\n",
                static_cast<unsigned long long>(prog.seed),
                bad->report.c_str());
    const FuzzProgram shrunk =
        presto::check::shrink(prog, bad->signature, latency_sweep,
                              shrink_attempts, parallel_workers);
    const FuzzVerdict sv = check_program(shrunk, latency_sweep,
                                         parallel_workers);
    std::filesystem::create_directories(dump_dir);
    const std::string path =
        dump_dir + "/fail-" + std::to_string(prog.seed) + ".trace";
    std::ofstream out(path);
    out << presto::check::serialize_trace(shrunk);
    out.close();
    std::printf("shrunk failure (%s):\n%s\ntrace dumped to %s\n"
                "replay with: presto_fuzz --replay=%s%s\n",
                sv.signature.c_str(), sv.report.c_str(), path.c_str(),
                path.c_str(), latency_sweep ? "" : " --latency-sweep=0");
    return 1;
  }
  std::printf("%lld program(s) clean (seed base %llu%s, jobs %d)\n",
              static_cast<long long>(checked),
              static_cast<unsigned long long>(seed),
              latency_sweep ? ", latency sweep on" : "", jobs);
  return 0;
}
