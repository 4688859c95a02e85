#include "sim/parallel.h"

#include <algorithm>
#include <chrono>

#include "check/bughook.h"
#include "sim/engine.h"
#include "util/check.h"

namespace presto::sim {
namespace {

// Spin budget before a waiter touches the kernel. The pause phase covers the
// steady state where the peer is at most one window of drain work away; the
// yield phase keeps oversubscribed hosts live without burning a scheduling
// quantum in pause loops.
constexpr int kSpinPause = 1024;
constexpr int kSpinYield = 64;

// Drain time after which a window that still has unclaimed lanes releases
// the helpers. presto_bench's sim.parallel.ns_per_window probe measures a
// window's fixed cost (watermark, cap, drain loop, boundary) at about
// 0.4 us; 5 us is about 12x that, so a window escalates only once its drain
// work dwarfs the release/arrival round trip it is about to pay for.
constexpr std::uint64_t kEscalateNs = 5000;

inline void cpu_pause() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

WindowPool::WindowPool(Engine& engine, int workers)
    : engine_(engine), workers_(workers) {
  PRESTO_CHECK(workers_ >= 2, "WindowPool needs >= 2 workers, got " << workers_);
  slots_.reserve(static_cast<std::size_t>(workers_ - 1));
  for (int w = 1; w < workers_; ++w) slots_.push_back(std::make_unique<Slot>());
  threads_.reserve(static_cast<std::size_t>(workers_ - 1));
  for (int w = 1; w < workers_; ++w)
    threads_.emplace_back([this, w] { worker_main(w); });
}

WindowPool::~WindowPool() {
  // Helpers are quiescent here: every run_window() returned only after all
  // released helpers arrived, so each is parked or spinning on its epoch.
  stop_.store(true, std::memory_order_relaxed);
  for (auto& s : slots_) {
    s->epoch.fetch_add(1, std::memory_order_release);
    s->epoch.notify_one();
  }
  for (auto& t : threads_) t.join();
}

std::uint32_t WindowPool::await_epoch(Slot& slot, std::uint32_t seen) {
  std::uint32_t e = slot.epoch.load(std::memory_order_acquire);
  if (e != seen) {
    ++slot.spin_releases;
    return e;
  }
  for (int i = 0; i < kSpinPause; ++i) {
    cpu_pause();
    e = slot.epoch.load(std::memory_order_acquire);
    if (e != seen) {
      ++slot.spin_releases;
      return e;
    }
  }
  for (int i = 0; i < kSpinYield; ++i) {
    std::this_thread::yield();
    e = slot.epoch.load(std::memory_order_acquire);
    if (e != seen) {
      ++slot.spin_releases;
      return e;
    }
  }
  const std::uint64_t t0 = now_ns();
  // wait() may return spuriously or on a stale comparand; reload and retry.
  do {
    slot.epoch.wait(seen, std::memory_order_acquire);
    e = slot.epoch.load(std::memory_order_acquire);
  } while (e == seen);
  slot.park_ns += now_ns() - t0;
  ++slot.parks;
  return e;
}

void WindowPool::worker_main(int w) {
  Slot& slot = *slots_[static_cast<std::size_t>(w - 1)];
  std::uint32_t seen = 0;
  for (;;) {
    seen = await_epoch(slot, seen);
    if (stop_.load(std::memory_order_relaxed)) return;
    const auto n = static_cast<std::uint32_t>(lanes_.size());
    for (std::uint32_t i;
         (i = cursor_.fetch_add(1, std::memory_order_relaxed)) < n;) {
      // Planted bug (see check/bughook.h): arrive without draining a claimed
      // lane, as if a stale sense flag already showed the window complete.
      // Never the window's last listed lane: its events, stamped one
      // window late, would land in the same node-major trace position.
      if (check::bug_hooks().stale_sense_flag && i + 1 < n &&
          !stale_sense_fired_.exchange(true, std::memory_order_relaxed))
          [[unlikely]]
        break;
      engine_.drain_lane(lanes_[i]);
    }
    if (arrivals_.fetch_sub(1, std::memory_order_release) == 1)
      arrivals_.notify_one();
  }
}

void WindowPool::run_window(std::span<const int> lanes) {
  lanes_ = lanes;
  const auto n = static_cast<std::uint32_t>(lanes_.size());

  // The caller alone, in list order, until the list is done or the window
  // has outlasted the escalation time.
  const std::uint64_t t0 = now_ns();
  std::uint64_t t = t0;
  std::uint32_t next = 0;
  while (next < n && t - t0 <= kEscalateNs) {
    engine_.drain_lane(lanes_[next++]);
    t = now_ns();
  }
  if (next == n) {
    stats_.drain_ns += t - t0;
    ++stats_.serial_windows;
    return;
  }

  // Escalate. The relaxed stores are ordered before the epoch release
  // stores below; a helper's acquire on its epoch therefore sees the fresh
  // cursor, arrival count and lane list (and the cap the engine set before
  // calling us).
  const int helpers = static_cast<int>(
      std::min<std::uint32_t>(static_cast<std::uint32_t>(workers_ - 1),
                              n - next));
  cursor_.store(next, std::memory_order_relaxed);
  arrivals_.store(helpers, std::memory_order_relaxed);
  for (int w = 0; w < helpers; ++w) {
    Slot& s = *slots_[static_cast<std::size_t>(w)];
    s.epoch.fetch_add(1, std::memory_order_release);
    s.epoch.notify_one();
  }
  stats_.releases += static_cast<std::uint64_t>(helpers);
  stats_.adopted_drains += next;
  for (std::uint32_t i;
       (i = cursor_.fetch_add(1, std::memory_order_relaxed)) < n;) {
    engine_.drain_lane(lanes_[i]);
    ++stats_.adopted_drains;
  }
  const std::uint64_t t1 = now_ns();
  stats_.drain_ns += t1 - t0;

  // Wait for arrivals. All decrements form one release sequence on
  // arrivals_, so the acquire that observes zero orders every helper's lane
  // writes before the boundary ops that follow this call.
  int a = arrivals_.load(std::memory_order_acquire);
  while (a != 0) {
    for (int i = 0; i < kSpinPause && a != 0; ++i) {
      cpu_pause();
      a = arrivals_.load(std::memory_order_acquire);
    }
    for (int i = 0; i < kSpinYield && a != 0; ++i) {
      std::this_thread::yield();
      a = arrivals_.load(std::memory_order_acquire);
    }
    if (a != 0) {
      arrivals_.wait(a, std::memory_order_acquire);
      a = arrivals_.load(std::memory_order_acquire);
    }
  }
  stats_.barrier_wait_ns += now_ns() - t1;
}

const WindowPoolStats& WindowPool::collect_stats() {
  // Quiescent point: the last run_window() returned only after every helper
  // arrived, so each helper's counter writes happen-before the acquire that
  // observed its arrival.
  std::uint64_t park_ns = 0, parks = 0, spins = 0;
  for (const auto& s : slots_) {
    park_ns += s->park_ns;
    parks += s->parks;
    spins += s->spin_releases;
  }
  stats_.park_ns = park_ns;
  stats_.parks = parks;
  stats_.spin_releases = spins;
  return stats_;
}

}  // namespace presto::sim
