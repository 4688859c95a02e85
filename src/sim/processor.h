// A simulated processor running application code on its own user-level
// fiber (sim/fiber.h).
//
// Exactly one context executes per event lane at a time, so execution is
// sequentially deterministic. There is no dedicated engine thread handing
// out time slices: whichever application context yields (at the event
// horizon or in block()) drives its own lane's event loop inline
// (Engine::drive) until its own resume event pops, and switches away only
// when an event resumes a *different* processor or the lane is empty or at
// its window cap (back to the lane's drain loop). The common case, a
// processor yielding and resuming with no other processor scheduled in
// between, costs zero context switches.
// A switch costs one user-level stack switch (~tens of ns).
//
// Application code advances its local virtual clock with charge() and parks
// with block() until an engine-context event calls wake(). Protocol handlers
// execute in engine context (inside whichever context is driving); the cycles
// they consume on a node whose application thread is computing are
// accumulated via add_stolen() and folded into the application clock at the
// next charge() (a documented approximation, see DESIGN.md §2).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "sim/engine.h"
#include "sim/fiber.h"
#include "sim/time.h"
#include "util/check.h"

namespace presto::sim {

class Processor {
 public:
  Processor(Engine& engine, int id);
  ~Processor();

  Processor(const Processor&) = delete;
  Processor& operator=(const Processor&) = delete;

  int id() const { return id_; }
  Engine& engine() const { return engine_; }
  // Event lane this processor schedules on and parks against: its own node
  // lane in windowed mode, lane 0 (the only lane) otherwise.
  int lane() const { return lane_; }

  // ---- Engine-context interface -------------------------------------------

  // Creates the fiber and schedules the body to begin at start_time.
  void start(std::function<void()> body, Time start_time = 0);

  // Schedules a resume for a processor parked in block(). If the processor
  // is not parked yet (it is running or in a horizon yield), the wake is
  // latched and consumed by its next block() call, so wakes are never lost.
  void wake(Time t);

  // Records protocol handler occupancy that overlaps application compute.
  void add_stolen(Time d) { stolen_pending_ += d; }

  bool started() const { return started_; }
  bool finished() const { return finished_; }
  bool parked_in_block() const { return blocked_; }

  // ---- Application-context interface ---------------------------------------

  // Local virtual clock.
  Time now() const { return clock_; }

  // Advances the local clock by d plus any pending stolen handler time, then
  // yields if the clock passed its own lane's horizon (Engine::lane_horizon).
  // Inline: every shared access charges its check cost here.
  void charge(Time d) {
    PRESTO_CHECK(d >= 0, "negative charge " << d);
    clock_ += d;
    absorb_stolen();
    const Time h = engine_.lane_horizon(lane_);
    if (h != kTimeNever && clock_ >= h) yield();
  }

  // Parks until wake(); on return the clock has advanced to the wake time
  // (if later than the current clock).
  void block();

  // Explicitly lets all events scheduled at or before the current clock run.
  void yield();

  // ---- Accounting ----------------------------------------------------------

  Time stolen_total() const { return stolen_total_; }
  std::uint64_t yield_count() const { return yields_; }
  std::uint64_t block_count() const { return blocks_; }

 private:
  struct Killed {};

  // Body wrapper: initial kill check, body, Killed unwind; returns whether
  // the context was killed.
  bool run_body();
  // Fiber entry (sim/fiber.h): runs the body, then either drives the lane
  // onward via the engine's exit path or, when killed, switches back to the
  // context that performed the kill. The returned context is the fiber's
  // terminal switch target.
  static FiberContext* fiber_entry(void* self);

  // Engine-context resume event, posted with the processor as its object:
  // flags the engine to transfer control here.
  static void resume_event(void* self);
  // Called after a fiber switch lands back in this processor: validates the
  // stack canary and unwinds via Killed if the engine is being torn down.
  void fiber_resumed();
  // Destructor path: kill + unwind only when the fiber started and has not
  // finished; otherwise just reclaim its stack.
  void teardown();

  void absorb_stolen() {
    if (stolen_pending_ > 0) {
      clock_ += stolen_pending_;
      stolen_total_ += stolen_pending_;
      stolen_pending_ = 0;
    }
  }

  Engine& engine_;
  const int id_;
  const int lane_;

  std::unique_ptr<Fiber> fiber_;
  FiberContext* kill_exit_ = nullptr;  // killer's context during teardown

  std::function<void()> body_;  // held from start() until run_body() takes it
  bool kill_ = false;

  Time clock_ = 0;
  Time stolen_pending_ = 0;
  Time stolen_total_ = 0;

  bool started_ = false;
  bool finished_ = false;
  bool blocked_ = false;       // parked in block(), waiting for wake()
  bool wake_pending_ = false;  // wake() arrived while not parked
  Time wake_time_ = 0;
  Time resume_time_ = 0;

  std::uint64_t yields_ = 0;
  std::uint64_t blocks_ = 0;

  friend class Engine;
};

}  // namespace presto::sim
