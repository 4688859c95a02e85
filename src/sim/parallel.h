// Persistent worker pool driving a windowed Engine's lane drains in
// parallel (Backend::kParallel).
//
// The caller of run_window() participates as worker 0; the pool spawns
// workers-1 helper threads. No lane belongs to any worker: each window the
// engine hands over its list of the window's lanes (those with an event
// below the cap, Engine::window_lanes), and every participant claims the
// next listed lane through one shared cursor until the list is exhausted,
// so one long lane never strands the others behind a fixed owner.
//
//   * Escalation — the caller starts alone, draining listed lanes in order
//     with no atomics. Once the window has run longer than one escalation
//     time with lanes still unclaimed, it publishes the cursor, releases
//     helpers (at most one per unclaimed lane) and keeps claiming alongside
//     them. The trigger is measured drain time, not pending-event counts: a
//     window in which each processor resumes into a long compute sweep is a
//     handful of events but most of the run's work. Windows that finish
//     sooner never touch a helper.
//   * Release barrier — released helpers are signalled through per-worker
//     epoch words (a sense-reversing flag generalized to a counter, one
//     cache line each) and arrive by decrementing a shared counter. Both
//     sides spin briefly (cpu pause, then sched yield for oversubscribed
//     hosts) before parking in a futex via std::atomic::wait, so a helper
//     that is re-released while still spinning processes k consecutive
//     windows without touching the kernel — adaptive window batching. The
//     boundary ops still run at every logical window boundary in their
//     canonical order on the caller, so batching is invisible to results.
//
// Fibers migrate between OS threads (a lane drained by one thread this
// window may be claimed by another the next). That is safe: every switch is
// bracketed with the sanitizer fiber hooks, the drain loop rebinds the
// lane's scheduler context to the current thread (sim::bind_host_context),
// and the release/arrival atomics give the happens-before edges that order
// one window's lane writes before the next window's reads regardless of
// which thread performs them.
//
// Determinism: lanes share no mutable state during a drain (every cross-lane
// effect is staged and applied at the window boundary, on the caller, and
// protocol state is private to its home or node), so neither the worker
// count, nor whether a window escalated, nor which thread claimed which lane
// can influence any simulated result.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <thread>
#include <vector>

namespace presto::sim {

class Engine;

// Host-side attribution for the pool's window synchronization, surfaced via
// stats::HostCounters (win_* fields) and bench/host_throughput
// --backend=parallel. Observability only; never feeds back into results.
struct WindowPoolStats {
  std::uint64_t barrier_wait_ns = 0;  // caller waiting for helper arrivals
  std::uint64_t drain_ns = 0;         // caller draining the lanes it claimed
  std::uint64_t boundary_ns = 0;      // serial boundary ops between windows
  std::uint64_t park_ns = 0;          // helper wall time parked in futex waits
  std::uint64_t parks = 0;            // helper futex parks
  std::uint64_t spin_releases = 0;    // releases acquired by spinning alone
  std::uint64_t releases = 0;         // helper releases (sum over windows)
  std::uint64_t serial_windows = 0;   // windows that never released a helper
  std::uint64_t adopted_drains = 0;   // lanes the caller drained in windows
                                      // that released helpers
};

class WindowPool {
 public:
  // Spawns `workers - 1` (workers >= 2) persistent helper threads; they idle
  // until released.
  WindowPool(Engine& engine, int workers);
  ~WindowPool();

  WindowPool(const WindowPool&) = delete;
  WindowPool& operator=(const WindowPool&) = delete;

  // Drains the listed lanes, ascending, up to the window's cap (the engine's
  // run loop sets both before the call): on the caller alone, or on the
  // caller plus released helpers once the window escalates. Returns after
  // the last released helper arrives.
  void run_window(std::span<const int> lanes);

  int workers() const { return workers_; }

  // Folds the helper-side counters into stats() and returns it. Safe
  // between windows (helpers publish their counters with each arrival).
  const WindowPoolStats& collect_stats();
  WindowPoolStats& stats() { return stats_; }

 private:
  // Per-helper release word plus helper-owned counters, padded so a
  // spinning helper never shares a line with another or with the arrival
  // counter. Counter fields are published by the helper's arrival
  // (release on arrivals_) and read by the caller after an acquire.
  struct alignas(64) Slot {
    std::atomic<std::uint32_t> epoch{0};
    std::uint64_t park_ns = 0;
    std::uint64_t parks = 0;
    std::uint64_t spin_releases = 0;
  };

  void worker_main(int w);
  // Blocks until the slot's epoch moves past `seen` (spin, then yield, then
  // futex park); updates the slot's counters.
  std::uint32_t await_epoch(Slot& slot, std::uint32_t seen);

  Engine& engine_;
  const int workers_;

  // This window's lanes, ascending. Set by the caller before any release;
  // read-only while helpers claim from it.
  std::span<const int> lanes_;
  // Next index into lanes_ to claim, once helpers are released. The
  // cursor and the arrival count sit on lines of their own: every claim
  // hits the cursor while the caller spins on arrivals_.
  alignas(64) std::atomic<std::uint32_t> cursor_{0};
  alignas(64) std::atomic<int> arrivals_{0};
  std::atomic<bool> stop_{false};
  // Planted-bug state (check/bughook.h stale_sense_flag): one-shot, claimed
  // by the first helper that claims a lane other than the window's last.
  std::atomic<bool> stale_sense_fired_{false};

  std::vector<std::unique_ptr<Slot>> slots_;  // helper w -> slots_[w - 1]
  std::vector<std::thread> threads_;

  WindowPoolStats stats_;
};

}  // namespace presto::sim
