// Shared micro workload for the golden-stats and determinism tests.
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

inline std::uint64_t fnv1a(std::uint64_t h, const void* p, std::size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= b[i];
    h *= 1099511628211ULL;
  }
  return h;
}

// Snapshot of a finished run: per-node counters, network totals, exec
// time, host counters, an FNV-1a hash over every node's view and tags, the
// ccached flush counters and, when traced, the trace.
inline WorkloadResult collect_result(runtime::System& sys) {
  const runtime::MachineConfig& cfg = sys.config();
  auto& space = sys.space();
  WorkloadResult res;
  for (int n = 0; n < cfg.nodes; ++n)
    res.counters.push_back(sys.recorder().node(n));
  res.msgs = sys.network().messages_sent();
  res.bytes = sys.network().bytes_sent();
  res.events = sys.engine().events_executed();
  res.exec = sys.exec_time();
  res.host = sys.recorder().host();
  if (auto* cc = sys.ccached(); cc != nullptr) {
    const auto cs = cc->cc_stats();
    res.cc_flushes = cs.flushes;
    res.cc_entries = cs.flushed_entries;
  }
  std::uint64_t h = 1469598103934665603ULL;
  for (int n = 0; n < cfg.nodes; ++n) {
    for (std::uint64_t b = 0; b < space.num_blocks(); ++b) {
      h = fnv1a(h, space.block_data(n, b), cfg.mem.block_size);
      const auto t = static_cast<std::uint8_t>(space.tag(n, b));
      h = fnv1a(h, &t, 1);
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
  cfg.window = window;            // 0 = legacy single-lane engine
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
  proto::WriteUpdateProtocol* wu = sys.writeupdate();

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
        if (wu != nullptr) wu->wu_publish(c.id(), base, total_bytes);
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
        if (wu != nullptr) wu->wu_publish(c.id(), base, total_bytes);
      }
      c.barrier();
    }
  });

  return collect_result(sys);
}

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
