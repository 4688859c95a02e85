#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <ostream>
#include <vector>

#include "sim/engine.h"
#include "sim/processor.h"

namespace presto::sim {
namespace {

TEST(Engine, EventsRunInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(30, [&] { order.push_back(3); });
  e.schedule_at(10, [&] { order.push_back(1); });
  e.schedule_at(20, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), 30);
  EXPECT_EQ(e.events_executed(), 3u);
}

TEST(Engine, TiesBreakByScheduleOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(5, [&] { order.push_back(1); });
  e.schedule_at(5, [&] { order.push_back(2); });
  e.schedule_at(5, [&] { order.push_back(3); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, PastEventsClampToNow) {
  Engine e;
  Time seen = -1;
  e.schedule_at(100, [&] {
    e.schedule_at(10, [&] { seen = e.now(); });  // in the past
  });
  e.run();
  EXPECT_EQ(seen, 100);
}

TEST(Engine, NestedSchedulingFromEvents) {
  Engine e;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) e.schedule_in(7, recurse);
  };
  e.schedule_at(0, recurse);
  e.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(e.now(), 28);
}

// Posted (handler, object) events, scheduled closures and events under keys
// from reserve_key share one sequence per lane, so at equal times they run in
// exactly the order they were posted, scheduled or reserved, on a bare
// engine and on a windowed lane.
TEST(Engine, PostedEventsAndClosuresRunInOneKeyOrder) {
  struct Mark {
    std::vector<int>* log;
    int id;
  };
  const Engine::EventFn record = [](void* m) {
    auto* mark = static_cast<Mark*>(m);
    mark->log->push_back(mark->id);
  };
  for (const bool windowed : {false, true}) {
    SCOPED_TRACE(windowed ? "windowed" : "bare");
    Engine e;
    if (windowed) e.enable_windows(/*window=*/10, /*lanes=*/4, /*workers=*/1);
    const int lane = e.lane_of(2);
    std::vector<int> log;
    Mark m1{&log, 1}, m3{&log, 3}, m4{&log, 4}, m6{&log, 6}, m8{&log, 8};
    e.schedule_on(lane, 7, [&] { log.push_back(5); });  // first at t 7
    const Engine::EventKey k3 = e.reserve_key(lane, 5);
    e.post(lane, 5, record, &m1);
    e.schedule_on(lane, 5, [&] { log.push_back(2); });
    e.post_key(lane, k3, record, &m3);  // reserved before 1 and 2: first
    const Engine::EventKey k4 = e.reserve_key(lane, 7);
    e.schedule_key(lane, k4, [&] { log.push_back(-4); });
    e.post(lane, 7, record, &m4);
    e.schedule_on(lane, 3, [&, lane] {
      // From inside an event: a key still orders by its reservation.
      const Engine::EventKey k8 = e.reserve_key(lane, 9);
      e.schedule_on(lane, 9, [&] { log.push_back(7); });
      e.post_key(lane, k8, record, &m8);
      e.post(lane, 1, record, &m6);  // in the past: clamped to t 3
    });
    e.run();
    EXPECT_EQ(log, (std::vector<int>{6, 3, 1, 2, 5, -4, 4, 8, 7}));
    EXPECT_EQ(e.events_executed(), 10u);
    EXPECT_EQ(e.lane_now(lane), 9);
  }
}

// A closure leaves its slot before it runs, so one it schedules from its
// own body on the same lane takes that very slot: the running closure's
// captures must survive it, on a bare engine and on a windowed lane.
TEST(Engine, ClosureSchedulingAClosureKeepsItsOwnCaptures) {
  struct Payload {
    std::uint64_t a, b, c, d;
    std::uint64_t sum() const { return a + b + c + d; }
  };
  for (const bool windowed : {false, true}) {
    SCOPED_TRACE(windowed ? "windowed" : "bare");
    Engine e;
    if (windowed) e.enable_windows(/*window=*/10, /*lanes=*/4, /*workers=*/1);
    const int lane = e.lane_of(3);
    std::vector<std::uint64_t> seen;
    e.schedule_on(lane, 5, [&, p = Payload{1, 2, 3, 4}] {
      e.schedule_on(lane, 5, [&, q = Payload{10, 20, 30, 40}] {
        seen.push_back(q.sum());
        e.schedule_on(lane, 6, [&, r = Payload{100, 0, 0, 0}] {
          seen.push_back(r.sum());
        });
        seen.push_back(q.sum());
      });
      seen.push_back(p.sum());
    });
    e.run();
    EXPECT_EQ(seen, (std::vector<std::uint64_t>{10, 100, 100, 100}));
    EXPECT_EQ(e.events_executed(), 3u);
  }
}

TEST(Processor, ChargeAdvancesLocalClock) {
  Engine e;
  auto& p = e.add_processor();
  Time end = -1;
  p.start([&] {
    p.charge(100);
    p.charge(50);
    end = p.now();
  });
  e.run();
  EXPECT_EQ(end, 150);
  EXPECT_TRUE(p.finished());
}

TEST(Processor, NegativeChargeDies) {
  auto negative = [] {
    Engine e;
    auto& p = e.add_processor();
    p.start([&] { p.charge(-1); });
    e.run();
  };
  EXPECT_DEATH(negative(), "negative charge -1");
}

TEST(Processor, BlockWakesAtWakeTime) {
  Engine e;
  auto& p = e.add_processor();
  Time resumed = -1;
  p.start([&] {
    p.block();
    resumed = p.now();
  });
  e.schedule_at(500, [&] { p.wake(500); });
  e.run();
  EXPECT_EQ(resumed, 500);
}

TEST(Processor, WakeBeforeBlockIsNotLost) {
  Engine e;
  auto& p = e.add_processor();
  Time resumed = -1;
  p.start([&] {
    p.charge(100);  // runs past the wake sender
    p.block();      // latched wake is consumed immediately
    resumed = p.now();
  });
  e.schedule_at(0, [&] { p.wake(40); });
  e.run();
  EXPECT_EQ(resumed, 100);  // wake time 40 already passed
}

TEST(Processor, HorizonYieldInterleavesProcessors) {
  Engine e;
  auto& a = e.add_processor();
  auto& b = e.add_processor();
  std::vector<std::pair<char, Time>> trace;
  a.start([&] {
    for (int i = 0; i < 3; ++i) {
      a.charge(10);
      trace.emplace_back('a', a.now());
    }
  });
  b.start([&] {
    for (int i = 0; i < 3; ++i) {
      b.charge(10);
      trace.emplace_back('b', b.now());
    }
  });
  e.run();
  ASSERT_EQ(trace.size(), 6u);
  // Clocks never run far apart: each records 10,20,30.
  for (const auto& [who, t] : trace) {
    (void)who;
    EXPECT_LE(t, 30);
  }
}

TEST(Processor, StolenCyclesFoldIntoNextCharge) {
  Engine e;
  auto& p = e.add_processor();
  Time end = -1;
  p.start([&] {
    p.charge(10);
    p.block();
    p.charge(5);
    end = p.now();
  });
  e.schedule_at(100, [&] {
    p.add_stolen(20);
    p.wake(100);
  });
  e.run();
  EXPECT_EQ(end, 125);  // 100 (wake) + 5 (charge) + 20 (stolen)
  EXPECT_EQ(p.stolen_total(), 20);
}

TEST(Processor, ManyProcessorsDeterministicFinish) {
  auto run_once = [] {
    Engine e;
    std::vector<Time> finish;
    const int n = 16;
    std::vector<Processor*> ps;
    for (int i = 0; i < n; ++i) ps.push_back(&e.add_processor());
    finish.resize(n);
    for (int i = 0; i < n; ++i) {
      Processor* p = ps[static_cast<std::size_t>(i)];
      finish[static_cast<std::size_t>(i)] = 0;
      p->start([p, i, &finish] {
        for (int k = 0; k < 20; ++k) p->charge(10 + (i * 7 + k) % 13);
        finish[static_cast<std::size_t>(i)] = p->now();
      });
    }
    e.run();
    return finish;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Processor, DeadlockIsDetected) {
  auto deadlock = [] {
    Engine e;
    auto& p = e.add_processor();
    p.start([&] { p.block(); });  // nobody ever wakes it
    e.run();
  };
  EXPECT_DEATH(deadlock(), "deadlock");
}

TEST(Engine, TeardownWithNeverRunProcessorDoesNotHang) {
  // A processor whose fiber was created but whose engine never ran must be
  // unwound cleanly by the destructor (kill path).
  auto e = std::make_unique<Engine>();
  auto& p = e->add_processor();
  p.start([&] { p.charge(10); });
  e.reset();  // engine destroyed without run()
  SUCCEED();
}

// Teardown must be uniform across engine shapes for every processor
// lifecycle stage: never started, started but never scheduled (engine never
// ran), and already finished. Each case exercises a distinct destructor path
// (no fiber at all / Killed unwind / plain free). The shapes cover a bare
// single-lane engine, serial windowed lanes, and lane drains on a live
// worker pool.
struct EngineShape {
  const char* name;
  Backend backend;
  bool windowed;
  int workers;
};

// Test names carry the printed parameter; print the name, not the bytes
// (the default dump would include the name's pointer value).
void PrintTo(const EngineShape& shape, std::ostream* os) { *os << shape.name; }

std::unique_ptr<Engine> make_engine(const EngineShape& shape) {
  auto e = std::make_unique<Engine>(shape.backend);
  // 16 lanes: one per processor in ManyProcessorsDeterministicFinish.
  if (shape.windowed)
    e->enable_windows(/*window=*/10, /*lanes=*/16, shape.workers);
  return e;
}

class BackendTeardownTest : public ::testing::TestWithParam<EngineShape> {};

TEST_P(BackendTeardownTest, NeverStartedProcessor) {
  auto e = make_engine(GetParam());
  e->add_processor();  // start() never called: no body, no context
  e.reset();
  SUCCEED();
}

TEST_P(BackendTeardownTest, StartedButNeverRunProcessor) {
  auto e = make_engine(GetParam());
  auto& p = e->add_processor();
  bool ran = false;
  p.start([&] { ran = true; });
  e.reset();  // engine destroyed without run(): body must NOT execute
  EXPECT_FALSE(ran);
}

TEST_P(BackendTeardownTest, FinishedProcessor) {
  auto e = make_engine(GetParam());
  auto& p = e->add_processor();
  p.start([&] { p.charge(10); });
  e->run();
  EXPECT_TRUE(p.finished());
  e.reset();
  SUCCEED();
}

TEST_P(BackendTeardownTest, MixedLifecyclesInOneEngine) {
  auto e = make_engine(GetParam());
  e->add_processor();  // never started
  auto& p = e->add_processor();
  p.start([&] { p.charge(5); });  // started, never run
  e.reset();
  SUCCEED();
}

TEST_P(BackendTeardownTest, DeadlockIsDetected) {
  const EngineShape shape = GetParam();
  auto deadlock = [shape] {
    auto e = make_engine(shape);
    auto& p = e->add_processor();
    p.start([&] { p.block(); });  // nobody ever wakes it
    e->run();
  };
  EXPECT_DEATH(deadlock(), "deadlock");
}

TEST_P(BackendTeardownTest, ManyProcessorsDeterministicFinish) {
  const EngineShape shape = GetParam();
  auto run_once = [shape] {
    auto e = make_engine(shape);
    const int n = 16;
    std::vector<Processor*> ps;
    for (int i = 0; i < n; ++i) ps.push_back(&e->add_processor());
    std::vector<Time> finish(n, 0);
    for (int i = 0; i < n; ++i) {
      Processor* p = ps[static_cast<std::size_t>(i)];
      p->start([p, i, &finish] {
        for (int k = 0; k < 20; ++k) p->charge(10 + (i * 7 + k) % 13);
        finish[static_cast<std::size_t>(i)] = p->now();
      });
    }
    e->run();
    return finish;
  };
  EXPECT_EQ(run_once(), run_once());
}

INSTANTIATE_TEST_SUITE_P(
    EngineShapes, BackendTeardownTest,
    ::testing::Values(EngineShape{"legacy_fiber", Backend::kFiber, false, 1},
                      EngineShape{"windowed_fiber", Backend::kFiber, true, 1},
                      EngineShape{"parallel2", Backend::kParallel, true, 2}),
    [](const ::testing::TestParamInfo<EngineShape>& info) {
      return std::string(info.param.name);
    });

namespace overflow {
// Recursion with a per-frame buffer small enough that every frame touches
// its page: the PROT_NONE guard below the fiber stack faults before the
// overflow can reach a neighbouring allocation.
int burn(int depth) {
  volatile char buf[512];
  buf[0] = static_cast<char>(depth);
  if (depth <= 0) return buf[0];
  return burn(depth - 1) + buf[0];
}
}  // namespace overflow

TEST(FiberBackend, StackOverflowDiesInsteadOfCorrupting) {
  auto overflow_run = [] {
    Engine e(Backend::kFiber);
    e.set_fiber_stack_size(64 * 1024);
    auto& p = e.add_processor();
    p.start([] { overflow::burn(1 << 20); });
    e.run();
  };
  // Death by guard-page fault (no message) or by the canary check's
  // "fiber stack overflow" diagnostic, depending on where the frames land.
  EXPECT_DEATH(overflow_run(), "");
}

TEST(FiberBackend, EngineReportsSwitchCounters) {
  // Two interleaving processors: horizon yields force real handoffs.
  Engine e(Backend::kFiber);
  auto& a = e.add_processor();
  auto& b = e.add_processor();
  a.start([&a] {
    for (int i = 0; i < 10; ++i) a.charge(10);
  });
  b.start([&b] {
    for (int i = 0; i < 10; ++i) b.charge(10);
  });
  e.run();
  EXPECT_EQ(e.backend(), Backend::kFiber);
  EXPECT_GT(e.handoffs(), 0u);

  // One processor alone: its blocked context drives the wake events inline
  // and resumes itself — the zero-switch fast path, never a handoff. On a
  // windowed lane the wakes at t = 100..500 all fall inside one window, so
  // they resume directly there too.
  for (const bool windowed : {false, true}) {
    SCOPED_TRACE(windowed ? "windowed" : "legacy");
    Engine solo(Backend::kFiber);
    if (windowed)
      solo.enable_windows(/*window=*/1000, /*lanes=*/1, /*workers=*/1);
    auto& p = solo.add_processor();
    p.start([&p] {
      for (int i = 0; i < 5; ++i) {
        p.charge(10);
        p.block();
      }
    });
    for (Time t = 1; t <= 5; ++t)
      solo.schedule_at(t * 100, [&p, t] { p.wake(t * 100); });
    solo.run();
    EXPECT_GT(solo.direct_resumes(), 0u);
  }
}

}  // namespace
}  // namespace presto::sim
