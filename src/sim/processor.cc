#include "sim/processor.h"

#include "sim/engine.h"
#include "trace/hooks.h"
#include "util/check.h"

namespace presto::sim {

Processor::Processor(Engine& engine, int id)
    : engine_(engine), id_(id), lane_(engine.lane_of(id)) {}

Processor::~Processor() { teardown(); }

void Processor::teardown() {
  if (fiber_ == nullptr) return;  // never started
  if (!finished_) {
    // Suspended mid-run (or never granted): switch in with the kill flag
    // set; the fiber unwinds via Killed and terminally switches back here.
    kill_ = true;
    FiberContext killer;
    kill_exit_ = &killer;
    fiber_switch(killer, fiber_->context());
    PRESTO_CHECK(finished_, "killed fiber did not unwind");
  }
  fiber_.reset();
}

void Processor::start(std::function<void()> body, Time start_time) {
  PRESTO_CHECK(!started_, "processor " << id_ << " started twice");
  started_ = true;
  clock_ = start_time;
  body_ = std::move(body);
  fiber_ = std::make_unique<Fiber>(&Processor::fiber_entry, this,
                                   engine_.fiber_stack_size());
  engine_.post(lane_, start_time, &Processor::resume_event, this);
}

bool Processor::run_body() {
  bool killed = false;
  try {
    // Scope the body so its captures are destroyed before the exit handoff.
    std::function<void()> body = std::move(body_);
    // A fiber only executes after control was switched to it, so the first
    // switch-in is the start-time resume event or a teardown kill.
    if (kill_) throw Killed{};
    body();
  } catch (const Killed&) {
    // Torn down mid-run (engine destroyed before completion); unwind quietly.
    killed = true;
  }
  finished_ = true;
  return killed;
}

FiberContext* Processor::fiber_entry(void* self_void) {
  auto* self = static_cast<Processor*>(self_void);
  if (self->run_body()) return self->kill_exit_;
  // Keep driving the lane on this (now dead-to-the-simulation) stack until
  // control must pass elsewhere; that switch is the fiber's last act. A stale
  // resume for this processor is a no-op (resume_event checks finished_).
  return self->engine_.drive_exit_target(self->lane_);
}

void Processor::resume_event(void* self_void) {
  auto* self = static_cast<Processor*>(self_void);
  if (self->finished_) return;
  self->resume_time_ = self->engine_.lane_now(self->lane_);
  self->engine_.lane(self->lane_).transfer_to = self;
}

void Processor::fiber_resumed() {
  PRESTO_CHECK(fiber_->canary_intact(),
               "fiber stack overflow on processor "
                   << id_ << " (" << fiber_->stack_size()
                   << " bytes); increase PRESTO_STACK_SIZE");
  if (kill_) throw Killed{};
}

void Processor::wake(Time t) {
  const Time lane_now = engine_.lane_now(lane_);
  if (t < lane_now) t = lane_now;
  if (blocked_) {
    blocked_ = false;
    engine_.post(lane_, t, &Processor::resume_event, this);
  } else {
    // Not parked yet (running or in a horizon yield): latch for the next
    // block() call so the wake cannot be lost.
    wake_pending_ = true;
    if (t > wake_time_) wake_time_ = t;
  }
}

void Processor::yield() {
  ++yields_;
  engine_.post(lane_, clock_, &Processor::resume_event, this);
  engine_.drive(this);
  if (resume_time_ > clock_) clock_ = resume_time_;
}

void Processor::block() {
  ++blocks_;
  trace::Hooks* h = engine_.trace_hooks();
  if (h != nullptr) [[unlikely]] h->on_ctx_block(id_, clock_);
  if (wake_pending_) {
    // Latched wake: consume it without parking.
    wake_pending_ = false;
    if (wake_time_ > clock_) clock_ = wake_time_;
    absorb_stolen();
  } else {
    blocked_ = true;
    engine_.drive(this);
    // Woken by wake(): the resume event carries the wake time.
    if (resume_time_ > clock_) clock_ = resume_time_;
    absorb_stolen();
  }
  if (h != nullptr) [[unlikely]] h->on_ctx_resume(id_, clock_);
}

}  // namespace presto::sim
