// Per-node performance counters.
//
// The counters mirror the breakdown reported in the paper's figures:
// remote-data wait, predictive-protocol (presend) time, and compute+synch,
// plus raw protocol event counts used in the discussion sections.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.h"

namespace presto::stats {

// Cache-line aligned: nodes drained by different workers never share a
// line, and the size stays a power of two (256 B) so Recorder::node(id) is
// one shift on every shared access.
struct alignas(64) NodeCounters {
  // Time breakdown (simulated ns).
  sim::Time remote_wait = 0;   // stalls on shared-memory faults
  sim::Time presend = 0;       // time in the predictive presend directive
  sim::Time barrier_wait = 0;  // waiting at barriers/reductions
  sim::Time lock_wait = 0;     // spinning on shared locks (Splash variants)
  sim::Time finish = 0;        // local clock at SPMD body completion

  // Shared-memory access counts.
  std::uint64_t shared_reads = 0;
  std::uint64_t shared_writes = 0;
  std::uint64_t read_faults = 0;
  std::uint64_t write_faults = 0;
  std::uint64_t local_faults = 0;  // faults whose home is this node

  // Protocol traffic.
  std::uint64_t msgs_sent = 0;
  std::uint64_t bytes_sent = 0;

  // Predictive protocol.
  std::uint64_t presend_blocks_sent = 0;
  std::uint64_t presend_blocks_received = 0;
  std::uint64_t presend_msgs = 0;
  std::uint64_t schedule_entries = 0;  // live entries recorded at this home
  std::uint64_t conflict_entries = 0;  // entries presend skipped as conflicts
  std::uint64_t presend_recalls = 0;   // dirty blocks recalled by presend
  std::uint64_t presend_inv_blocks = 0;  // blocks bulk pre-invalidated

  // Write-update protocol (counted at the sender).
  std::uint64_t wu_publishes = 0;
  std::uint64_t wu_update_msgs = 0;
  std::uint64_t wu_update_blocks = 0;

  // CCached protocol: flushes at the flushing node, merges at the home.
  std::uint64_t cc_flushes = 0;          // CcFlush messages sent
  std::uint64_t cc_flushed_entries = 0;  // log entries shipped
  std::uint64_t cc_merged_flushes = 0;   // flushes folded in at this home
  std::uint64_t cc_merged_entries = 0;   // entries folded in at this home

  // Metadata access counts (deterministic, but layout-dependent: they count
  // protocol metadata probes, not simulated events, so golden pins exclude
  // them).
  std::uint64_t dir_probes = 0;      // directory / reader-set probes at home
  std::uint64_t sched_lookups = 0;   // schedule index probes at this home
};

// Host-side (wall-clock) execution counters for one Engine run. These are
// observability only — they describe how fast the host executed the
// simulation and never feed back into simulated results, so they may differ
// across backends and machines while every NodeCounters value stays
// bit-identical. Surfaced by bench/host_throughput and System::run.
struct HostCounters {
  double run_wall_s = 0.0;            // wall time inside System::run
  std::uint64_t events = 0;           // engine events executed
  std::uint64_t handoffs = 0;         // switches into a resumed fiber
  std::uint64_t direct_resumes = 0;   // self-resumes (zero-switch fast path)
  std::uint64_t yields = 0;           // sum of processor horizon yields
  std::uint64_t blocks = 0;           // sum of processor block() parks
  std::uint64_t metadata_bytes = 0;   // protocol + network metadata resident
  const char* backend = "";           // "fiber" or "parallel"
  std::uint64_t windows = 0;          // conservative windows executed (0 = off)
  int workers = 1;                    // worker threads draining lanes

  // Window-synchronization attribution (parallel backend with workers > 1;
  // all-zero otherwise). Mirrors sim::WindowPoolStats — where the caller's
  // wall time inside run_window goes, and how the helpers were driven.
  std::uint64_t win_barrier_wait_ns = 0;  // caller waiting for helper arrivals
  std::uint64_t win_drain_ns = 0;         // caller draining lanes it claimed
  std::uint64_t win_boundary_ns = 0;      // serial boundary ops (incl. flush)
  std::uint64_t win_park_ns = 0;          // helpers parked in futex waits
  std::uint64_t win_parks = 0;            // helper futex parks
  std::uint64_t win_spin_releases = 0;    // releases acquired by spin alone
  std::uint64_t win_releases = 0;         // helper releases across windows
  std::uint64_t win_serial_windows = 0;   // windows that never released helpers
  std::uint64_t win_adopted_drains = 0;   // lanes the caller drained in windows
                                          // that released helpers
};

class Recorder {
 public:
  explicit Recorder(int nodes) : nodes_(static_cast<std::size_t>(nodes)) {}

  NodeCounters& node(int id) { return nodes_[static_cast<std::size_t>(id)]; }
  const NodeCounters& node(int id) const {
    return nodes_[static_cast<std::size_t>(id)];
  }
  int num_nodes() const { return static_cast<int>(nodes_.size()); }

  // Sums a member over all nodes.
  template <typename T>
  T sum(T NodeCounters::* member) const {
    T total{};
    for (const auto& n : nodes_) total += n.*member;
    return total;
  }
  template <typename T>
  T max(T NodeCounters::* member) const {
    T best{};
    for (const auto& n : nodes_)
      if (n.*member > best) best = n.*member;
    return best;
  }
  template <typename T>
  double avg(T NodeCounters::* member) const {
    return nodes_.empty() ? 0.0
                          : static_cast<double>(sum(member)) /
                                static_cast<double>(nodes_.size());
  }

  HostCounters& host() { return host_; }
  const HostCounters& host() const { return host_; }

 private:
  std::vector<NodeCounters> nodes_;
  HostCounters host_;
};

}  // namespace presto::stats
