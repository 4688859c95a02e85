// Shared micro workload for the golden-stats and determinism tests, and the
// one table of its pins (kMicroPins).
//
// A small, fully deterministic producer/consumer mix over pages homed
// round-robin across the nodes: each round a rotating writer updates a
// strided subset of every page, all nodes read another strided subset, and
// phase directives bracket both so the predictive protocol records and
// presends a schedule. The workload exercises GetS/GetX, Inv/InvAck,
// RecallS/RecallX, Data installs, and (under predictive) bulk presend
// traffic — every steady-state path the perf work rewrites.
#pragma once

#include <cstdint>
#include <vector>

#include "runtime/system.h"
#include "trace/file.h"
#include "trace/tracer.h"

namespace presto::testutil {

struct WorkloadResult {
  std::vector<stats::NodeCounters> counters;  // per node
  std::uint64_t msgs = 0;
  std::uint64_t bytes = 0;
  std::uint64_t events = 0;
  sim::Time exec = 0;
  std::uint64_t mem_hash = 0;  // FNV-1a over every node's view + tags
  // ccached flush counters (zero under every other protocol).
  std::uint64_t cc_flushes = 0;
  std::uint64_t cc_entries = 0;
  // Host-side counters (never part of equivalence — they describe how the
  // host ran the simulation, not what was simulated). Tests use the win_*
  // fields to prove a parallel run actually released helpers rather than
  // running every window on the caller alone.
  stats::HostCounters host;
  // Filled only when the run was traced (the golden-trace tier).
  bool traced = false;
  trace::Digest trace_digest;
  trace::Summary trace_summary;
  trace::TraceData trace_data;  // canonical stream + meta
};

// Snapshot of a finished run: per-node counters, network totals, exec
// time, host counters, an FNV-1a hash over every node's view and tags, the
// ccached flush counters and, when traced, the trace.
inline WorkloadResult collect_result(runtime::System& sys) {
  const runtime::MachineConfig& cfg = sys.config();
  auto& space = sys.space();
  WorkloadResult res;
  for (int n = 0; n < cfg.nodes; ++n)
    res.counters.push_back(sys.recorder().node(n));
  res.msgs = sys.recorder().sum(&stats::NodeCounters::msgs_sent);
  res.bytes = sys.recorder().sum(&stats::NodeCounters::bytes_sent);
  res.events = sys.engine().events_executed();
  res.exec = sys.exec_time();
  res.host = sys.recorder().host();
  res.cc_flushes = sys.recorder().sum(&stats::NodeCounters::cc_flushes);
  res.cc_entries =
      sys.recorder().sum(&stats::NodeCounters::cc_flushed_entries);
  std::uint64_t h = trace::kFnvBasis;
  for (int n = 0; n < cfg.nodes; ++n) {
    for (std::uint64_t b = 0; b < space.num_blocks(); ++b) {
      h = trace::fnv1a64(h, space.block_data(n, b), cfg.mem.block_size);
      const auto t = static_cast<std::uint8_t>(space.tag(n, b));
      h = trace::fnv1a64(h, &t, 1);
    }
  }
  res.mem_hash = h;
  if (sys.tracer() != nullptr) {
    res.traced = true;
    res.trace_digest = sys.tracer()->digest();
    res.trace_summary = sys.tracer()->summary();
    res.trace_data = sys.tracer()->build(cfg.costs, cfg.net);
  }
  return res;
}

// Read + write faults summed over nodes.
inline std::uint64_t total_faults(const WorkloadResult& r) {
  std::uint64_t n = 0;
  for (const auto& c : r.counters) n += c.read_faults + c.write_faults;
  return n;
}

inline WorkloadResult run_micro_workload(runtime::ProtocolKind kind,
                                         int nodes = 4, int rounds = 6,
                                         sim::Backend backend =
                                             sim::default_backend(),
                                         std::uint32_t block_size = 32,
                                         bool traced = false,
                                         std::uint32_t trace_categories =
                                             trace::kCatAll,
                                         sim::Time window = 0,
                                         int workers = 0) {
  runtime::MachineConfig cfg =
      runtime::MachineConfig::cm5_blizzard(nodes, block_size);
  cfg.backend = backend;
  cfg.trace.enabled = traced;  // in-memory: tests read the stream directly
  cfg.trace.categories = trace_categories;
  cfg.window = window;            // 0 = derived from the network
  cfg.workers = workers;          // kParallel only
  runtime::System sys(cfg, kind);
  auto& space = sys.space();

  // One page per node, homed round-robin.
  const mem::Addr base = space.alloc(
      static_cast<std::size_t>(nodes) * cfg.mem.page_size,
      [nodes](mem::PageId p) { return static_cast<int>(p) % nodes; });
  const std::uint32_t bsz = cfg.mem.block_size;
  const int blocks_per_page =
      static_cast<int>(cfg.mem.page_size / bsz);
  const std::size_t total_bytes =
      static_cast<std::size_t>(nodes) * cfg.mem.page_size;
  // Write-update provides phase consistency only: writers publish their
  // dirty blocks before the barrier that separates them from the readers.
  sys.run([&](runtime::NodeCtx& c) {
    for (int r = 0; r < rounds; ++r) {
      const int writer = r % c.nodes();
      c.phase(0);
      if (c.id() == writer) {
        for (int pg = 0; pg < c.nodes(); ++pg)
          for (int b = 0; b < blocks_per_page; b += 3)
            c.write<int>(base + static_cast<mem::Addr>(pg) * 4096 +
                             static_cast<mem::Addr>(b) * bsz,
                         r * 1000 + pg * 100 + b);
        c.publish(base, total_bytes);
      }
      c.barrier();
      c.phase(1);
      for (int pg = 0; pg < c.nodes(); ++pg)
        for (int b = 0; b < blocks_per_page; b += 5) {
          volatile int v = c.read<int>(base + static_cast<mem::Addr>(pg) * 4096 +
                                       static_cast<mem::Addr>(b) * bsz);
          (void)v;
        }
      c.barrier();
      // A second writer creates upgrade (sole-reader GetX) and recall
      // traffic on a distinct stride.
      const int writer2 = (r + 1) % c.nodes();
      if (c.id() == writer2) {
        for (int pg = 0; pg < c.nodes(); ++pg)
          for (int b = 1; b < blocks_per_page; b += 7)
            c.write<int>(base + static_cast<mem::Addr>(pg) * 4096 +
                             static_cast<mem::Addr>(b) * bsz,
                         -(r * 1000 + pg * 100 + b));
        c.publish(base, total_bytes);
      }
      c.barrier();
    }
  });

  return collect_result(sys);
}

// The micro workload's pins (4 nodes, 6 rounds, the derived 30 us window)
// for every protocol at three block sizes. golden_stats_test.cc checks the
// stats columns on the untraced run; parallel_equivalence_test.cc checks
// every column on the traced run, whose simulated results tracing must not
// move. Any drift means simulated behavior changed.
struct MicroPin {
  runtime::ProtocolKind kind;
  std::uint32_t block_size;
  std::uint64_t msgs, bytes, events;
  sim::Time exec;
  std::uint64_t faults;  // total_faults
  std::uint64_t mem_hash;
  std::uint64_t trace_events, trace_hash;
};

// clang-format off
inline constexpr MicroPin kMicroPins[] = {
    // PINS_BEGIN (regenerate: tools snippet in docs/performance.md §9)
    {runtime::ProtocolKind::kStache, 32,
     6903ull, 196368ull, 16500ull, 249729320, 2277ull, 0xca0c1bb53c718353ull,
     32886ull, 0xd93535fc91dc9e95ull},
    {runtime::ProtocolKind::kStache, 128,
     1850ull, 121376ull, 4481ull, 72437540, 611ull, 0x866298b9b64b055cull,
     9095ull, 0x05c13bd0bdb5cf92ull},
    {runtime::ProtocolKind::kStache, 1024,
     435ull, 166704ull, 1123ull, 26442760, 141ull, 0x49217729eff53bcbull,
     2409ull, 0xc192915d833bf0abull},
    {runtime::ProtocolKind::kPredictive, 32,
     7022ull, 201984ull, 16232ull, 242737780, 1896ull, 0xca0c1bb53c718353ull,
     32789ull, 0x8e0cb79dd9aa7670ull},
    {runtime::ProtocolKind::kPredictive, 128,
     1869ull, 125008ull, 4435ull, 70348940, 500ull, 0x866298b9b64b055cull,
     9198ull, 0x5a97c45ccc929e8aull},
    {runtime::ProtocolKind::kPredictive, 1024,
     434ull, 174880ull, 1121ull, 24588360, 84ull, 0x49217729eff53bcbull,
     2548ull, 0x372b21fe5929608full},
    {runtime::ProtocolKind::kPredictiveAnticipate, 32,
     6962ull, 201024ull, 15766ull, 235095120, 1662ull, 0xca0c1bb53c718353ull,
     32021ull, 0x0f073de6e8eee894ull},
    {runtime::ProtocolKind::kPredictiveAnticipate, 128,
     1854ull, 124768ull, 4320ull, 68035140, 443ull, 0x866298b9b64b055cull,
     9009ull, 0x70745259a23f1335ull},
    {runtime::ProtocolKind::kPredictiveAnticipate, 1024,
     434ull, 174880ull, 1121ull, 24588360, 84ull, 0x49217729eff53bcbull,
     2548ull, 0x372b21fe5929608full},
    {runtime::ProtocolKind::kWriteUpdate, 32,
     6882ull, 230208ull, 14704ull, 102548520, 957ull, 0x26dbeb6c5c315964ull,
     28215ull, 0x31d98da18533067eull},
    {runtime::ProtocolKind::kWriteUpdate, 128,
     1788ull, 155328ull, 3892ull, 29901120, 255ull, 0xee6f490771d81fb7ull,
     7674ull, 0xd8df5dd313515d00ull},
    {runtime::ProtocolKind::kWriteUpdate, 1024,
     318ull, 192480ull, 760ull, 11759960, 45ull, 0xd723c7aca497fc16ull,
     1689ull, 0x0d1d0557112e81f3ull},
    // ccached with no commutative regions must reproduce the Stache rows
    // bit-for-bit (the fallback-path identity).
    {runtime::ProtocolKind::kCCached, 32,
     6903ull, 196368ull, 16500ull, 249729320, 2277ull, 0xca0c1bb53c718353ull,
     32886ull, 0xd93535fc91dc9e95ull},
    {runtime::ProtocolKind::kCCached, 128,
     1850ull, 121376ull, 4481ull, 72437540, 611ull, 0x866298b9b64b055cull,
     9095ull, 0x05c13bd0bdb5cf92ull},
    {runtime::ProtocolKind::kCCached, 1024,
     435ull, 166704ull, 1123ull, 26442760, 141ull, 0x49217729eff53bcbull,
     2409ull, 0xc192915d833bf0abull},
    // PINS_END
};
// clang-format on

// Commutative-update micro workload for the ccached golden pins: one page
// per node (homed round-robin), the whole region reduction-tagged. Each
// round every node pushes deltas into a disjoint strided word set and
// flushes; then all nodes read a strided sample, installing copies the next
// round's merges must quiesce through the home's transaction engine. The
// word sets are disjoint, so every protocol computes the same final image
// (under non-ccached kinds cc_add degrades to an rmw) — but only ccached
// rows are pinned: the rmw write storm is the baseline the protocol exists
// to remove, not a behavior worth freezing.
inline WorkloadResult run_cc_micro_workload(runtime::ProtocolKind kind,
                                            std::uint32_t block_size = 32,
                                            int nodes = 4, int rounds = 6,
                                            bool traced = false,
                                            sim::Backend backend =
                                                sim::default_backend(),
                                            sim::Time window = 0,
                                            int workers = 0) {
  runtime::MachineConfig cfg =
      runtime::MachineConfig::cm5_blizzard(nodes, block_size);
  cfg.trace.enabled = traced;
  cfg.backend = backend;
  cfg.window = window;
  cfg.workers = workers;
  runtime::System sys(cfg, kind);
  auto& space = sys.space();

  const std::size_t region =
      static_cast<std::size_t>(nodes) * cfg.mem.page_size;
  const mem::Addr base = space.alloc(
      region, [nodes](mem::PageId p) { return static_cast<int>(p) % nodes; });
  space.set_commutative(base, region);
  const std::size_t words = region / 8;

  sys.run([&](runtime::NodeCtx& c) {
    for (int r = 0; r < rounds; ++r) {
      c.phase(0);
      const auto stride = static_cast<std::size_t>(3) * c.nodes();
      for (std::size_t w = static_cast<std::size_t>(c.id()); w < words;
           w += stride)
        c.cc_add(base + w * 8,
                 r * 1000 + c.id() * 10 + static_cast<std::int64_t>(w % 7) + 1);
      c.cc_flush();
      c.barrier();
      c.phase(1);
      for (std::size_t w = 0; w < words; w += 64) {
        volatile std::int64_t v = c.read<std::int64_t>(base + w * 8);
        (void)v;
      }
      c.barrier();
    }
  });

  return collect_result(sys);
}

}  // namespace presto::testutil
