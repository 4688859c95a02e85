#include "sim/engine.h"

#include <chrono>

#include "sim/parallel.h"
#include "sim/processor.h"
#include "util/check.h"

namespace presto::sim {

thread_local int Engine::tls_lane_ = 0;
thread_local const Engine* Engine::tls_engine_ = nullptr;

Engine::Engine(Backend backend)
    : backend_(backend), fiber_stack_size_(Fiber::default_stack_size()) {
  lanes_.push_back(std::make_unique<Lane>());
  lane0_ = lanes_.front().get();
}

Engine::~Engine() {
  // Kill every suspended fiber before destroying any processor: an unwinding
  // body may still touch other processors or engine state (its captures'
  // destructors), so all of them must be alive while any fiber unwinds.
  for (auto& p : processors_) p->teardown();
  processors_.clear();
}

void Engine::enable_windows(Time window, int lanes, int workers) {
  PRESTO_CHECK(!windowed_, "enable_windows called twice");
  PRESTO_CHECK(window >= 1, "window width must be positive, got " << window);
  PRESTO_CHECK(lanes >= 1, "need at least one lane, got " << lanes);
  PRESTO_CHECK(processors_.empty() && lane0_->heap.empty() && lane0_->seq == 0,
               "enable_windows must be called before processors and events");
  windowed_ = true;
  window_ = window;
  lanes_.reserve(static_cast<std::size_t>(lanes));
  for (int i = 1; i < lanes; ++i) lanes_.push_back(std::make_unique<Lane>());
  workers_ = 1;
  if (backend_ == Backend::kParallel) {
    workers_ = workers < 1 ? 1 : (workers > lanes ? lanes : workers);
    if (workers_ > 1)
      pool_ = std::make_unique<WindowPool>(*this, workers_);
  }
}

WindowPoolStats Engine::window_stats() {
  return pool_ != nullptr ? pool_->collect_stats() : WindowPoolStats{};
}

void Engine::set_boundary_op(BoundaryOp slot, std::function<void()> fn) {
  boundary_ops_[static_cast<int>(slot)] = std::move(fn);
}

void Engine::check_delay(Time delay) const {
  PRESTO_CHECK(delay >= 0, "negative delay " << delay);
}

void Engine::push_into(Lane& l, Time t, InlineFn fn) {
  push_keyed(l, EventKey{t, l.seq++}, std::move(fn));
}

void Engine::push_keyed(Lane& l, EventKey k, InlineFn fn) {
  std::uint32_t s;
  if (!l.free.empty()) {
    s = l.free.back();
    l.free.pop_back();
  } else {
    s = static_cast<std::uint32_t>(l.slabs.size()) << kSlabShift;
    l.slabs.push_back(std::make_unique<InlineFn[]>(kSlabSize));
    for (std::uint32_t i = kSlabSize; i > 1; --i) l.free.push_back(s + i - 1);
  }
  slot(l, s) = std::move(fn);

  // 4-ary sift-up keyed on (t, seq).
  HeapEntry e{k.t, k.seq, s};
  std::size_t i = l.heap.size();
  l.heap.push_back(e);
  while (i > 0) {
    const std::size_t parent = (i - 1) >> 2;
    if (!before(e, l.heap[parent])) break;
    l.heap[i] = l.heap[parent];
    i = parent;
  }
  l.heap[i] = e;
}

void Engine::push_event(Time t, InlineFn fn) {
  Lane& l = lane(current_lane());
  if (t < l.now) t = l.now;
  push_into(l, t, std::move(fn));
}

void Engine::push_event_on(int lane_id, Time t, InlineFn fn) {
  Lane& l = lane(lane_id);
  if (t < l.now) t = l.now;
  push_into(l, t, std::move(fn));
}

std::uint32_t Engine::pop_min(Lane& l) {
  const std::uint32_t s = l.heap[0].slot;
  const HeapEntry last = l.heap.back();
  l.heap.pop_back();
  if (!l.heap.empty()) {
    // 4-ary sift-down of the former last element from the root.
    const std::size_t n = l.heap.size();
    std::size_t i = 0;
    for (;;) {
      const std::size_t first_child = (i << 2) + 1;
      if (first_child >= n) break;
      std::size_t best = first_child;
      const std::size_t end =
          first_child + 4 < n ? first_child + 4 : n;
      for (std::size_t c = first_child + 1; c < end; ++c)
        if (before(l.heap[c], l.heap[best])) best = c;
      if (!before(l.heap[best], last)) break;
      l.heap[i] = l.heap[best];
      i = best;
    }
    l.heap[i] = last;
  }
  return s;
}

Processor& Engine::add_processor() {
  const int id = static_cast<int>(processors_.size());
  PRESTO_CHECK(!windowed_ || id < num_lanes(),
               "windowed engine sized for " << num_lanes()
                                            << " lanes cannot hold processor "
                                            << id);
  processors_.push_back(std::make_unique<Processor>(*this, id));
  return *processors_.back();
}

Processor* Engine::step_one(Lane& l) {
  const Time t = l.heap[0].t;
  const std::uint32_t s = pop_min(l);
  PRESTO_CHECK(t >= l.now, "event time went backwards");
  l.now = t;
  ++l.events;
  // Move the closure out and recycle the slot before invoking: the event
  // body may schedule new events (and reuse this very slot).
  InlineFn fn = std::move(slot(l, s));
  l.free.push_back(s);
  fn();
  Processor* to = l.transfer_to;
  l.transfer_to = nullptr;
  return to;
}

Processor* Engine::next_resumed(Lane& l) {
  while (!l.heap.empty() && l.heap[0].t < l.cap)
    if (Processor* to = step_one(l)) return to;
  return nullptr;
}

FiberContext& Engine::switch_target(Lane& l, Processor* to) {
  if (to == nullptr) return l.sched_ctx;
  ++l.handoffs;
  return to->fiber_->context();
}

void Engine::drive(Processor* self) {
  Lane& l = lane(self->lane_);
  Processor* to = next_resumed(l);
  if (to == self) {
    ++l.direct_resumes;
    return;  // own resume: continue app code in place
  }
  fiber_switch(self->fiber_->context(), switch_target(l, to));
  // Control came back: our own resume popped in some other context's drive
  // or drain loop (possibly a later window's, on another worker).
  self->fiber_resumed();  // throws Killed on teardown
}

FiberContext* Engine::drive_exit_target(int lane_id) {
  Lane& l = lane(lane_id);
  return &switch_target(l, next_resumed(l));
}

void Engine::drain_lane(int lane_id) {
  Lane& l = lane(lane_id);
  // Under a worker pool a lane may be claimed by a different thread each
  // window; the saved drain-loop context must be re-bound to the thread
  // actually draining (TSan fiber-handle refresh; no-op otherwise).
  bind_host_context(l.sched_ctx);
  const int prev_lane = tls_lane_;
  const Engine* prev_engine = tls_engine_;
  tls_lane_ = lane_id;
  tls_engine_ = this;
  // Hand control to each resumed processor's context; it drives the lane
  // inline and switches back here once the lane is empty or at its cap.
  while (Processor* to = next_resumed(l))
    fiber_switch(l.sched_ctx, switch_target(l, to));
  tls_lane_ = prev_lane;
  tls_engine_ = prev_engine;
}

void Engine::boundary_gate(std::function<void()> fn) {
  if (!in_lane_context()) {
    fn();
    return;
  }
  // A windowed lane may not touch cross-lane state mid-drain: queue the
  // operation for the next boundary and block the requesting processor (lane
  // == node id in windowed mode) until it has run. The wake carries the
  // lane's current time, so the wait costs no simulated time beyond the
  // window granularity already inherent to the gate.
  Lane& l = lane(tls_lane_);
  PRESTO_CHECK(!l.gate_pending,
               "nested boundary gates on lane " << tls_lane_);
  l.gate = std::move(fn);
  l.gate_pending = true;
  Processor& p = processor(tls_lane_);
  while (l.gate_pending) p.block();
}

void Engine::run_boundary() {
  for (int i = 0; i < kNumBoundaryOps; ++i) {
    if (i == static_cast<int>(BoundaryOp::kSpace)) {
      // Service deferred gates in lane order before the registered op.
      for (int li = 0; li < num_lanes(); ++li) {
        Lane& l = lane(li);
        if (!l.gate_pending) continue;
        l.gate();
        l.gate = nullptr;
        l.gate_pending = false;
        if (li < num_processors()) processor(li).wake(l.now);
      }
    }
    if (boundary_ops_[i]) boundary_ops_[i]();
  }
}

void Engine::run_windowed() {
  bool final_boundary = false;
  for (;;) {
    Time watermark = kTimeNever;
    for (const auto& lp : lanes_)
      if (!lp->heap.empty() && lp->heap[0].t < watermark)
        watermark = lp->heap[0].t;
    if (watermark == kTimeNever) {
      // Every heap is empty, but staged cross-lane work (a held-back
      // mailbox, an unserviced gate) may still exist outside the queues. One
      // extra boundary pass either schedules it — and the loop continues —
      // or proves quiescence.
      if (final_boundary) break;
      run_boundary();
      final_boundary = true;
      continue;
    }
    final_boundary = false;
    global_now_ = watermark;
    // Events strictly below the cap execute this window. Staged cross-lane
    // deliveries depart at t < cap and arrive at t + latency >= cap (the
    // window never exceeds the minimum latency), so a flush can never land
    // in a lane's past.
    const Time cap = watermark <= kTimeNever - window_ ? watermark + window_
                                                       : kTimeNever;
    for (const auto& lp : lanes_) lp->cap = cap;
    ++windows_run_;
    if (pool_ != nullptr) {
      pool_->run_window();
      const auto t0 = std::chrono::steady_clock::now();
      run_boundary();
      pool_->stats().boundary_ns += static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0)
              .count());
    } else {
      // Lanes with nothing below the cap are skipped: no drain can add
      // to another lane's queue, so they stay idle all window.
      for (int li = 0; li < num_lanes(); ++li) {
        const Lane& l = lane(li);
        if (!l.heap.empty() && l.heap[0].t < cap) drain_lane(li);
      }
      run_boundary();
    }
  }
}

void Engine::run() {
  if (windowed_)
    run_windowed();
  else
    drain_lane(0);
  for (const auto& p : processors_) {
    PRESTO_CHECK(!p->started() || p->finished() || !p->parked_in_block(),
                 "deadlock: processor " << p->id()
                                        << " blocked with no pending events");
    PRESTO_CHECK(!p->started() || p->finished(),
                 "processor " << p->id()
                              << " neither finished nor blocked after drain");
  }
}

std::uint64_t Engine::events_executed() const {
  std::uint64_t n = 0;
  for (const auto& lp : lanes_) n += lp->events;
  return n;
}

std::uint64_t Engine::handoffs() const {
  std::uint64_t n = 0;
  for (const auto& lp : lanes_) n += lp->handoffs;
  return n;
}

std::uint64_t Engine::direct_resumes() const {
  std::uint64_t n = 0;
  for (const auto& lp : lanes_) n += lp->direct_resumes;
  return n;
}

}  // namespace presto::sim
