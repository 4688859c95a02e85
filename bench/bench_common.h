// Shared helpers for the figure benches: CLI scaling flags and report
// printing in the paper's format (stacked bars normalized to the fastest
// version + a counter table).
#pragma once

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "apps/common/versions.h"
#include "runtime/machine.h"
#include "stats/report.h"
#include "trace/config.h"
#include "util/check.h"
#include "util/cli.h"
#include "util/table.h"

namespace presto::bench {

// --quick shrinks every workload for smoke runs (used by ctest); --scale=N
// divides the paper's problem sizes by N. --backend=fiber|parallel and
// --workers=N pick what drains the windowed engine's lanes (equivalent to
// PRESTO_BACKEND/PRESTO_WORKERS; simulated results are bit-identical across
// backends and worker counts — docs/performance.md §9 — only host speed
// differs). Unknown backend names abort with the list of valid ones.
struct Scale {
  std::int64_t divide = 1;
  int nodes = 32;
  sim::Backend backend = sim::default_backend();
  int workers = 0;

  static Scale from_cli(const util::Cli& cli) {
    Scale s;
    if (cli.get_bool("quick")) s.divide = 8;
    s.divide = cli.get_int("scale", s.divide);
    if (s.divide < 1) s.divide = 1;
    s.nodes = static_cast<int>(cli.get_int("nodes", 32));
    const std::string b = cli.get("backend", "");
    if (!b.empty())
      PRESTO_CHECK(sim::backend_from_name(b, &s.backend),
                   "--backend: unknown backend '"
                       << b << "' (expected one of: " << sim::backend_names()
                       << ")");
    s.workers = static_cast<int>(cli.get_int("workers", 0));
    return s;
  }

  // Applies the engine selection to a machine config built by the bench.
  void apply(runtime::MachineConfig& m) const {
    m.backend = backend;
    if (workers > 0) m.workers = workers;
  }
};

// --protocol=NAME restricts a bench's protocol sweep to one protocol (any
// name printed by runtime::protocol_kind_name: stache, predictive,
// predictive+anticipate, write-update, ccached). The default is every
// registered protocol in canonical sweep order — benches iterate the
// registry (runtime::kAllProtocolKinds) rather than keeping their own
// arrays, so a new protocol shows up in every sweep without per-tool edits.
// Unknown names abort with the list of valid ones.
inline std::vector<runtime::ProtocolKind> protocols_from_cli(
    const util::Cli& cli) {
  const std::string p = cli.get("protocol", "");
  if (p.empty())
    return std::vector<runtime::ProtocolKind>(
        std::begin(runtime::kAllProtocolKinds),
        std::end(runtime::kAllProtocolKinds));
  runtime::ProtocolKind kind;
  if (!runtime::protocol_kind_from_name(p.c_str(), &kind)) {
    std::string names;
    for (const auto k : runtime::kAllProtocolKinds) {
      if (!names.empty()) names += ", ";
      names += runtime::protocol_kind_name(k);
    }
    PRESTO_CHECK(false, "--protocol: unknown protocol '"
                            << p << "' (expected one of: " << names << ")");
  }
  return {kind};
}

// --trace=FILE[:cat,cat...] records a deterministic event trace of each run
// (docs/observability.md). ".json" writes Perfetto trace_event JSON, any
// other extension the binary format for presto_trace. A bench running
// several Systems gives run i (its index in the bench's run order) the
// config trace_cfg.for_run(i): FILE, FILE.1, ... (trace::TraceConfig).
inline trace::TraceConfig trace_from_cli(const util::Cli& cli) {
  return trace::TraceConfig::from_spec(cli.get("trace", ""));
}

// --check turns a bench into a test of the shape claim EXPERIMENTS.md makes
// for it (the `shape` ctest label runs each at the smallest scale where the
// claim holds). After its table the bench prints "shape ok: CLAIM" or
// "shape FAILED: CLAIM" with the measured values, and exits 1 on failure.
inline void check_shape(bool enabled, bool holds, const std::string& claim) {
  if (!enabled) return;
  std::printf("%s: %s\n", holds ? "shape ok" : "shape FAILED", claim.c_str());
  std::fflush(stdout);
  if (!holds) std::exit(1);
}

inline std::string fmt_seconds(sim::Time t) {
  return util::fmt_double(sim::to_seconds(t), 4) + "s";
}

inline void print_results(const std::string& title,
                          const std::vector<stats::Report>& reports) {
  std::printf("\n== %s ==\n", title.c_str());
  std::printf("%s", stats::Report::bars(reports).c_str());
  std::printf("%s", stats::Report::table(reports).c_str());
  const std::string trace = stats::Report::trace_summary(reports);
  if (!trace.empty()) std::printf("%s", trace.c_str());
  std::fflush(stdout);
}

// Every version of one program must compute the same answer: exactly
// (rel_tol 0), since reductions fold in node order whatever the message
// order, unless the versions are different programs (Splash Water).
// Prints each checksum that differs from the first by more than rel_tol
// (relative) and exits the process with status 1 if any does.
inline void check_equal_checksums(const std::vector<apps::AppResult>& rs,
                                  double rel_tol) {
  if (rs.empty()) return;
  const double base = rs.front().checksum;
  bool ok = true;
  for (const auto& r : rs) {
    if (std::fabs(r.checksum - base) > rel_tol * std::fabs(base)) {
      std::fprintf(stderr,
                   "CHECKSUM MISMATCH: %.17g vs %.17g — versions computed "
                   "different answers!\n",
                   r.checksum, base);
      ok = false;
    }
  }
  if (!ok) std::exit(1);
}

}  // namespace presto::bench
