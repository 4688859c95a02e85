// Trace configuration — deliberately tiny (no simulator includes) so
// runtime::MachineConfig can embed one without dragging the trace subsystem
// into every translation unit.
//
// The canonical CLI form is --trace=FILE[:cat1,cat2,...] (util/cli wiring in
// bench/bench_common.h). FILE ending in ".json" selects the Chrome/Perfetto
// trace_event export; any other name selects the compact binary format
// (docs/observability.md). An empty FILE with enabled=true keeps the trace
// in memory only — the tests and host_throughput's overhead measurement use
// that to exercise the tracer without touching the filesystem.
#pragma once

#include <cstdint>
#include <string>

namespace presto::trace {

// Event categories, used both as a record-time filter mask and for the
// reader's grouping. Keep in sync with category_name()/category_from_name().
enum Category : std::uint32_t {
  kCatPhase = 1u << 0,    // phase directives (begin/ready/flush)
  kCatBarrier = 1u << 1,  // barrier arrive/release
  kCatLock = 1u << 2,     // shared-lock acquire/acquired/release
  kCatMiss = 1u << 3,     // remote-miss windows (fault start/end)
  kCatMsg = 1u << 4,      // protocol messages (send/recv/dispatch)
  kCatData = 1u << 5,     // installs, presend installs, hit/waste verdicts
  kCatSim = 1u << 6,      // context block/resume (fiber or thread switches)
  kCatAll = 0x7fu,
};

struct TraceConfig {
  bool enabled = false;
  std::string path;  // empty = in-memory only
  std::uint32_t categories = kCatAll;
  // Per-node event cap; the tracer never drops silently (dropped counts are
  // surfaced in the summary and the file meta). 1M events/node covers every
  // bench at --quick scale with a wide margin.
  std::uint64_t max_events_per_node = 1u << 20;

  // Parses "FILE[:cat1,cat2,...]"; "" yields a disabled config. Aborts on an
  // unknown category name (same strictness as util/cli numeric parsing).
  static TraceConfig from_spec(const std::string& spec);

  // The config of run `index` (0-based, in the caller's run order) of several
  // Systems traced under one spec: run 0 writes FILE, run i > 0 FILE with
  // ".i" before its extension (out.json, out.1.json, ...). Named by index,
  // not by completion, so each file holds the same run at any --jobs.
  TraceConfig for_run(int index) const;
};

const char* category_name(Category c);
// 0 when the name is unknown.
std::uint32_t category_from_name(const std::string& name);

}  // namespace presto::trace
