// Deterministic discrete-event engine.
//
// Events execute in strict (time, insertion sequence) order. Simulated
// processors (sim/processor.h) run application code on their own user-level
// fibers, but exactly one context runs per event lane at any moment, so
// execution is sequentially deterministic. Every lane has one event loop:
// drain_lane() pops events on run()'s caller (or a pool worker) until one
// resumes a processor, and from then on whichever processor yields or blocks
// drives its own lane inline (see processor.h). runtime::System always runs
// windowed (below); an Engine that never calls enable_windows() is lane 0
// alone, with no cap — the bare event loop unit tests and host-cost probes
// drive directly.
//
// The queue is built for host throughput: closures live in a slab of
// fixed-size slots recycled through a freelist (no per-event heap
// allocation; see sim/inline_fn.h), and ordering is a 4-ary implicit heap
// whose entries carry the (time, seq) key inline so sift operations never
// dereference the slab.
//
// ---- Windowed (lane) mode -------------------------------------------------
//
// enable_windows() switches the engine to a conservative-window organization:
// every simulated node owns a private event *lane* (its own heap, slab,
// sequence counter and clock), and run() proceeds in global windows. Each
// window computes the low watermark (the minimum pending event time across
// lanes), sets every lane's cap to watermark + W where W is the window width
// (at most the network's minimum cross-node latency, see
// net::Network::min_latency), drains every lane independently up to its cap,
// and then runs the registered *boundary operations* in a fixed slot order —
// network mailbox flush, space growth gates, barrier scan, oracle replay,
// trace sequence stamping. Lanes share no mutable state during a drain: all
// cross-node effects are staged and applied at the boundary, and protocol
// state lives with its home or node (Stache's pending-request pools are per
// home, ccached's counters per node). So the lanes may be drained in any
// order — or concurrently by a worker pool (Backend::kParallel,
// sim/parallel.h) — and the result is bit-identical to draining them
// serially in lane order.
//
// Run-ahead: a processor computing between events yields only when its
// clock passes the next event of its lane *below the cap* (yield_horizon), so
// a processor whose lane has nothing below the cap runs on past the cap to
// its next block. Stolen handler time is charged only while a processor is
// not parked (proto/protocol.cc), so a message that arrives during that span
// and is handled after the processor has parked is not charged to it. This
// is a deliberate approximation (DESIGN.md §2): a yield at the cap would
// charge it, at a large host cost.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/fiber.h"
#include "sim/inline_fn.h"
#include "sim/time.h"
#include "util/check.h"

namespace presto::trace {
class Hooks;
}  // namespace presto::trace

namespace presto::sim {

class Processor;
class WindowPool;
struct WindowPoolStats;

// Fixed boundary-operation slots, run in enum order at every window
// boundary (serial, on run()'s caller). Re-registering a slot overwrites it,
// so a subsystem replaced mid-setup (e.g. a tracer re-attached by
// enable_oracle) simply installs its new callback over the old one.
enum class BoundaryOp {
  kNet = 0,   // flush staged cross-node messages, in source order
  kSpace,     // service deferred allocation/growth gates, in lane order
  kBarrier,   // scan deferred barrier arrivals, fold reductions, release
  kOracle,    // replay buffered shadow-image checks in canonical order
  kTrace,     // assign trace sequence numbers to this window's events
};
inline constexpr int kNumBoundaryOps = 5;

class Engine {
 public:
  explicit Engine(Backend backend = default_backend());
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  Backend backend() const { return backend_; }

  // Schedules fn to run in engine context at absolute time t (clamped to the
  // current time if in the past). Events at equal times run in schedule
  // order. In windowed mode the event lands on the calling context's lane.
  template <typename F>
  void schedule_at(Time t, F&& fn) {
    push_event(t, InlineFn(std::forward<F>(fn)));
  }
  template <typename F>
  void schedule_in(Time delay, F&& fn) {
    check_delay(delay);
    push_event(now() + delay, InlineFn(std::forward<F>(fn)));
  }
  // Windowed mode: schedules onto an explicit lane (cross-lane effects at a
  // window boundary, processor wakes). Equivalent to schedule_at on lane 0
  // when windows are off.
  template <typename F>
  void schedule_on(int lane, Time t, F&& fn) {
    push_event_on(lane, t, InlineFn(std::forward<F>(fn)));
  }

  // An event's ordering key: events run in (t, seq) order on their lane.
  struct EventKey {
    Time t;
    std::uint64_t seq;
  };
  // Reserves the key schedule_on(lane, t, ...) would assign at this instant
  // (t clamped to the lane's clock, the lane's next sequence number) without
  // scheduling anything. A FIFO of future events (a channel's deliveries, a
  // node's handler dispatches) reserves each item's key at the moment one
  // event per item would be scheduled, and keeps only its head in the heap;
  // since keys are totally ordered, pushing a reserved key later pops it
  // exactly where it would have popped had it been pushed at reservation.
  // Callable only by the context that owns the lane (see drain_lane).
  EventKey reserve_key(int lane_id, Time t) {
    Lane& l = lane(lane_id);
    return EventKey{t < l.now ? l.now : t, l.seq++};
  }
  // Schedules fn under a key from reserve_key on the same lane. The key must
  // not be in the lane's past.
  template <typename F>
  void schedule_key(int lane_id, EventKey k, F&& fn) {
    Lane& l = lane(lane_id);
    PRESTO_CHECK(k.t >= l.now,
                 "event key " << k.t << " in the lane's past " << l.now);
    push_keyed(l, k, InlineFn(std::forward<F>(fn)));
  }

  // Time of the event currently executing (or the last one executed) on the
  // calling context's lane. Outside any lane in windowed mode this is the
  // current window's watermark.
  Time now() const {
    if (!windowed_) return lane0_->now;
    return tls_engine_ == this ? lanes_[static_cast<std::size_t>(tls_lane_)]->now
                               : global_now_;
  }

  // Earliest pending event time on the calling context's lane that will
  // still execute in the current window, or kTimeNever. Running processors
  // yield when their local clock passes it, so cross-processor effects
  // interleave at event granularity; an event beyond the lane's cap cannot
  // run until the next window, so a computing processor need not yield for
  // it (a bare single-lane engine has no cap: this is the queue head).
  Time yield_horizon() const {
    const Lane& l =
        windowed_ && tls_engine_ == this
            ? *lanes_[static_cast<std::size_t>(tls_lane_)]
            : *lane0_;
    if (l.heap.empty()) return kTimeNever;
    const Time h = l.heap[0].t;
    return h < l.cap ? h : kTimeNever;
  }

  // ---- Windowed mode --------------------------------------------------------

  // Switches to windowed (lane-per-node) execution: `lanes` event lanes,
  // window width `window` (>= 1; must not exceed the network's minimum
  // cross-node latency or staged deliveries could land in a lane's past).
  // With backend kParallel, `workers` persistent worker threads drain the
  // lanes concurrently (clamped to [1, lanes]); kFiber drains serially and
  // ignores `workers`. Must be called before any processor or event exists.
  void enable_windows(Time window, int lanes, int workers);
  bool windowed() const { return windowed_; }
  Time window() const { return window_; }
  int num_lanes() const { return static_cast<int>(lanes_.size()); }
  int workers() const { return workers_; }

  // Window-synchronization attribution (sim/parallel.h); all-zero when no
  // worker pool is active. Host-side observability only.
  WindowPoolStats window_stats();

  // Registers (or overwrites) a boundary operation; null clears the slot.
  void set_boundary_op(BoundaryOp slot, std::function<void()> fn);

  // Runs fn with exclusive access to cross-lane state: immediately when
  // windows are off or the caller is not inside a lane drain; otherwise the
  // calling processor blocks and fn runs at the next window boundary (slot
  // kSpace, lane order), after which the processor is woken at its lane's
  // current time. fn must not touch lane-private state of other lanes.
  void boundary_gate(std::function<void()> fn);

  // True when the calling context is executing inside one of this engine's
  // lane drains (windowed mode only).
  bool in_lane_context() const { return windowed_ && tls_engine_ == this; }

  // Lane the calling context is draining (0 when not in a lane).
  int current_lane() const { return in_lane_context() ? tls_lane_ : 0; }

  // Per-lane clock: time of the last event executed on that lane.
  Time lane_now(int lane) const {
    return lanes_[static_cast<std::size_t>(lane)]->now;
  }

  // Drains one lane up to its cap; resumed processors drive it inline
  // meanwhile. Called by run() (lane 0 alone on a bare engine, every lane per
  // window when windowed) or concurrently by a WindowPool; lanes share no
  // mutable state during a drain, so any order gives the identical result.
  void drain_lane(int lane);

  // ---------------------------------------------------------------------------

  // Creates a processor; valid until the engine is destroyed.
  Processor& add_processor();
  Processor& processor(int id) { return *processors_[static_cast<std::size_t>(id)]; }
  int num_processors() const { return static_cast<int>(processors_.size()); }

  // Runs events until the queue drains. Aborts (deadlock) if any processor
  // is still blocked with no pending events.
  void run();

  // Statistics (host-side observability; never part of simulated results).
  std::uint64_t events_executed() const;
  // Switches into a resumed processor's fiber from a different context (a
  // drain loop or another processor's fiber; one stack switch each).
  std::uint64_t handoffs() const;
  // Resume events that popped while their own processor was driving its
  // lane — the fast path costing zero stack switches. Windowed lanes get
  // them too, for resumes that fall before the lane's cap.
  std::uint64_t direct_resumes() const;
  // Windows executed (windowed mode only).
  std::uint64_t windows_run() const { return windows_run_; }

  // Per-fiber stack size for processors created after this call (tests use
  // tiny stacks to exercise overflow detection). Defaults to
  // Fiber::default_stack_size(), i.e. the PRESTO_STACK_SIZE environment
  // variable.
  void set_fiber_stack_size(std::size_t bytes) { fiber_stack_size_ = bytes; }
  std::size_t fiber_stack_size() const { return fiber_stack_size_; }

  // Event tracer (trace/tracer.h): processors emit block/resume events
  // through this. Null in untraced runs; observation only.
  void set_trace_hooks(trace::Hooks* h) { trace_hooks_ = h; }
  trace::Hooks* trace_hooks() const { return trace_hooks_; }

 private:
  friend class Processor;
  friend class WindowPool;

  // Heap entries carry the ordering key so sifts are slab-free; the closure
  // itself sits in a slab slot recycled through the lane's freelist.
  struct HeapEntry {
    Time t;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  static bool before(const HeapEntry& a, const HeapEntry& b) {
    return a.t != b.t ? a.t < b.t : a.seq < b.seq;
  }

  // 32 slots (2 KiB) per slab chunk: a lane holds few pending events once
  // channel and dispatch FIFOs keep only their head in the heap, so a small
  // first chunk keeps the cost of a machine's many mostly idle lanes low.
  static constexpr std::uint32_t kSlabShift = 5;
  static constexpr std::uint32_t kSlabSize = 1u << kSlabShift;

  // One event lane: a private queue + clock. Legacy mode is exactly one
  // lane; windowed mode has one per simulated node. Heap-allocated (vector
  // of unique_ptr) so lane addresses are stable and lanes drained by
  // different workers do not share cache lines.
  struct Lane {
    std::vector<HeapEntry> heap;
    std::vector<std::unique_ptr<InlineFn[]>> slabs;
    std::vector<std::uint32_t> free;
    Processor* transfer_to = nullptr;  // set by a resume event mid-drain
    Time now = 0;
    Time cap = kTimeNever;  // exclusive drain horizon for the current window
    std::uint64_t seq = 0;
    std::uint64_t events = 0;
    std::uint64_t handoffs = 0;
    std::uint64_t direct_resumes = 0;
    // The drain loop's saved context while the lane's fibers drive it.
    FiberContext sched_ctx;
    // Windowed: a deferred cross-lane operation (boundary_gate).
    std::function<void()> gate;
    bool gate_pending = false;
  };

  InlineFn& slot(Lane& l, std::uint32_t i) {
    return l.slabs[i >> kSlabShift][i & (kSlabSize - 1)];
  }

  Lane& lane(int i) { return *lanes_[static_cast<std::size_t>(i)]; }

  void check_delay(Time delay) const;
  void push_event(Time t, InlineFn fn);             // calling context's lane
  void push_event_on(int lane, Time t, InlineFn fn);
  void push_into(Lane& l, Time t, InlineFn fn);
  void push_keyed(Lane& l, EventKey k, InlineFn fn);
  std::uint32_t pop_min(Lane& l);  // removes the root, returns its slot index

  // Executes the lane's next event; returns the processor it resumed, or
  // nullptr.
  Processor* step_one(Lane& l);
  // Pops the lane's events below its cap until one resumes a processor;
  // returns it, or nullptr once the lane is empty or at its cap.
  Processor* next_resumed(Lane& l);
  // The context to switch to after next_resumed returned `to`: its fiber
  // (counted as a handoff), or the lane's drain loop when null.
  FiberContext& switch_target(Lane& l, Processor* to);
  // Called by a processor that yielded or blocked: drives its own lane
  // inline and returns once control is back with self's app code — either
  // its own resume popped here (a direct resume), or control passed to
  // another processor or the drain loop and came back with that resume.
  void drive(Processor* self);
  // Drives `lane` on a fiber whose processor body just finished: returns the
  // context it must terminally switch to (the next resumed processor, or the
  // lane's drain loop once the lane is empty or at its cap).
  FiberContext* drive_exit_target(int lane);

  // Windowed run loop: watermark, caps, drain (serial or pooled), boundary.
  void run_windowed();
  void run_boundary();

  const Backend backend_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  Lane* lane0_;  // lanes_[0], cached for the bare engine's hot path

  bool windowed_ = false;
  Time window_ = 0;
  int workers_ = 1;
  Time global_now_ = 0;  // watermark of the current window
  std::uint64_t windows_run_ = 0;
  std::function<void()> boundary_ops_[kNumBoundaryOps];
  std::unique_ptr<WindowPool> pool_;

  // Calling context's lane, valid while tls_engine_ == the engine draining
  // on this thread. Lane drains never nest across engines on one thread.
  static thread_local int tls_lane_;
  static thread_local const Engine* tls_engine_;

  std::vector<std::unique_ptr<Processor>> processors_;
  std::size_t fiber_stack_size_;
  trace::Hooks* trace_hooks_ = nullptr;
};

}  // namespace presto::sim
