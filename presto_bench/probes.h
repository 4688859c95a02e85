// Unit-cost probes: each one times a single layer's public call in
// isolation and returns host nanoseconds per operation. The two protocol
// probes run a small System and return its counts instead, from which the
// cost of one whole miss or presend block follows.
//
// presto_bench multiplies these unit costs by the per-layer operation counts
// of a real run (stats::Report / stats::HostCounters) to build its host-cost
// budget, the method of PPT-Multicore (per-operation cost x counted
// operations) applied to the simulator's own host time. The bodies live in
// this header so a google-benchmark wrapper can call the same code (time one
// probe per iteration with UseManualTime and SetIterationTime).
//
// Every probe is set up outside its timed region and uses run-time data
// (operation counts, addresses, delays) so nothing folds away.
#pragma once

#include <chrono>
#include <cstdint>

#include "mem/global_space.h"
#include "net/network.h"
#include "runtime/system.h"
#include "sim/engine.h"
#include "sim/fiber.h"
#include "trace/tracer.h"

namespace presto::probes {

using Clock = std::chrono::steady_clock;

inline double ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

// Values the probes read land here, so the reads cannot be optimized out.
inline volatile std::int64_t sink_ = 0;

// ---- sim.engine: Engine::schedule_in + run over no-op events --------------

// Hold model: `depth` pending events, each of which schedules one successor
// until `n` events have run, so the heap stays at a fixed occupancy. The
// per-event cost grows with the depth (sift work and branch misses), so the
// budget probes the depth of the machine it explains. Delays are drawn from
// the cm5 cost model's latencies (self send, fault, handler, wire).
struct HoldState {
  sim::Engine* engine;
  std::int64_t left;
  std::uint64_t rng;
};

struct HoldEvent {
  HoldState* s;
  void operator()() const {
    static constexpr sim::Time kDelays[4] = {
        sim::microseconds(5), sim::microseconds(10), sim::microseconds(15),
        sim::microseconds(30)};
    if (s->left <= 0) return;
    --s->left;
    s->rng ^= s->rng << 13;
    s->rng ^= s->rng >> 7;
    s->rng ^= s->rng << 17;
    s->engine->schedule_in(kDelays[s->rng & 3], HoldEvent{s});
  }
};

inline double engine_ns_per_event(std::int64_t n, int depth) {
  sim::Engine engine(sim::Backend::kFiber);
  HoldState st{&engine, n, 0x9E3779B97F4A7C15ULL};
  for (int i = 0; i < depth; ++i)
    engine.schedule_at(static_cast<sim::Time>(i), HoldEvent{&st});
  const auto t0 = Clock::now();
  engine.run();
  const auto t1 = Clock::now();
  return ns_between(t0, t1) / static_cast<double>(engine.events_executed());
}

// ---- sim.fiber: fiber_switch ping-pong --------------------------------------

struct PingPong {
  sim::FiberContext* main;
  sim::Fiber* self;
  std::int64_t rounds;
};

inline sim::FiberContext* ping_pong_entry(void* arg) {
  auto* p = static_cast<PingPong*>(arg);
  for (std::int64_t i = 0; i < p->rounds; ++i)
    sim::fiber_switch(p->self->context(), *p->main);
  return p->main;
}

// One switch is one direction of a round trip; `n` switches in total.
inline double fiber_ns_per_switch(std::int64_t n) {
  sim::FiberContext main_ctx;
  PingPong pp{&main_ctx, nullptr, n / 2};
  sim::Fiber fiber(&ping_pong_entry, &pp);
  pp.self = &fiber;
  const auto t0 = Clock::now();
  // rounds + 1 switches in: the last one lets the entry return and exit.
  for (std::int64_t i = 0; i <= pp.rounds; ++i)
    sim::fiber_switch(main_ctx, fiber.context());
  const auto t1 = Clock::now();
  return ns_between(t0, t1) / static_cast<double>(2 * pp.rounds + 2);
}

// ---- net: Network::send_msg -------------------------------------------------

struct NullSink final : net::Network::MsgSink {
  std::uint64_t bytes = 0;
  void on_msg(int, const std::byte*, std::size_t len) override { bytes += len; }
};

// Times send_msg alone (routing, FIFO clamp, record copy into the channel
// ring, delivery-event push); the delivery runs untimed between batches and
// is counted as an engine event in the budget.
inline double net_ns_per_msg(std::int64_t n) {
  sim::Engine engine(sim::Backend::kFiber);
  net::Network net(engine, 4, net::NetConfig{});
  NullSink sink;
  net.set_msg_sink(&sink);
  // A protocol data message: small header plus one 32-byte block.
  std::byte header[24] = {};
  std::byte payload[32] = {};
  constexpr std::int64_t kBatch = 256;
  double ns = 0.0;
  std::int64_t sent = 0;
  while (sent < n) {
    const auto t0 = Clock::now();
    for (std::int64_t i = 0; i < kBatch; ++i) {
      const int src = static_cast<int>((sent + i) & 3);
      net.send_msg(src, (src + 1) & 3, sizeof header + sizeof payload,
                   engine.now(), header, sizeof header, payload,
                   sizeof payload);
    }
    ns += ns_between(t0, Clock::now());
    sent += kBatch;
    engine.run();
  }
  return ns / static_cast<double>(sent);
}

// ---- System-level probes ----------------------------------------------------

// Counts of one probe run, so the costs of the layers measured above can be
// subtracted from it (what is left is the layer under test).
struct RunCounts {
  double run_s = 0.0;
  std::uint64_t events = 0;
  std::uint64_t handoffs = 0;
  std::uint64_t msgs = 0;
  std::uint64_t accesses = 0;
  std::uint64_t faults = 0;
  std::uint64_t presend_blocks = 0;
};

inline RunCounts counts_of(const stats::Report& r) {
  RunCounts c;
  c.run_s = r.host.run_wall_s;
  c.events = r.host.events;
  c.handoffs = r.host.handoffs;
  c.msgs = r.msgs;
  c.accesses = r.shared_accesses;
  c.faults = r.faults;
  c.presend_blocks = r.presend_blocks;
  return c;
}

// A cm5 machine on the legacy fiber engine, whatever PRESTO_BACKEND says.
inline runtime::MachineConfig fiber_machine(int nodes) {
  auto m = runtime::MachineConfig::cm5_blizzard(nodes, 32);
  m.backend = sim::Backend::kFiber;
  return m;
}

// ---- mem: NodeCtx::read / write on a permitted block ------------------------

// One node, 64 local blocks, `n` alternating reads and writes: the access
// path a workload's shared_accesses count goes through (tag check, copy,
// counter, compute charge), with no fault after the first touch.
inline double mem_ns_per_access(std::int64_t n) {
  runtime::System sys(fiber_machine(1), runtime::ProtocolKind::kStache);
  const mem::Addr a = sys.space().alloc_on_node(0, 64 * 32);
  std::int64_t sum = 0;
  sys.run([&](runtime::NodeCtx& c) {
    for (std::int64_t i = 0; i < n; i += 2) {
      const mem::Addr at = a + static_cast<mem::Addr>((i >> 1) & 63) * 32;
      c.write<std::int64_t>(at, i);
      sum += c.read<std::int64_t>(at);
    }
  });
  sink_ = sum;
  const RunCounts rc = counts_of(sys.report(""));
  return rc.run_s * 1e9 / static_cast<double>(rc.accesses);
}

// ---- proto: Stache remote read miss -----------------------------------------

// Node 1 reads `n` distinct blocks homed at node 0: one cold remote miss
// each (fault, request, home handler, data reply, install, resume).
inline RunCounts stache_misses(std::int64_t n) {
  runtime::System sys(fiber_machine(2), runtime::ProtocolKind::kStache);
  const mem::Addr a =
      sys.space().alloc_on_node(0, static_cast<std::size_t>(n) * 32);
  std::int64_t sum = 0;
  sys.run([&](runtime::NodeCtx& c) {
    if (c.id() != 1) return;
    for (std::int64_t i = 0; i < n; ++i)
      sum += c.read<std::int32_t>(a + static_cast<mem::Addr>(i) * 32);
  });
  sink_ = sum;
  return counts_of(sys.report(""));
}

// ---- proto: predictive presend, coalescing off ------------------------------

// Producer/consumer over `blocks` blocks homed at node 0, predictive protocol
// with coalescing off. In each round node 0 writes value(r, b) to every
// block, then node 1 reads them all and passes each to check(r, b, v). After
// the first round every block the consumer reads arrives by presend in its
// own BulkData message. presto_bench's presend_stream workload runs this
// same program at full length, so the presend probe has its shape.
template <typename Value, typename Check>
stats::Report producer_consumer(const runtime::MachineConfig& cfg, int blocks,
                                int rounds, Value&& value, Check&& check) {
  runtime::System sys(cfg, runtime::ProtocolKind::kPredictive);
  sys.predictive()->set_coalescing(false);
  const std::size_t bs = cfg.mem.block_size;
  const mem::Addr a =
      sys.space().alloc_on_node(0, static_cast<std::size_t>(blocks) * bs);
  auto at = [&](int b) { return a + static_cast<mem::Addr>(b) * bs; };
  sys.run([&](runtime::NodeCtx& c) {
    for (int r = 0; r < rounds; ++r) {
      c.phase(0);
      if (c.id() == 0)
        for (int b = 0; b < blocks; ++b)
          c.write<std::int32_t>(at(b), value(r, b));
      c.barrier();
      c.phase(1);
      if (c.id() == 1)
        for (int b = 0; b < blocks; ++b)
          check(r, b, c.read<std::int32_t>(at(b)));
      c.barrier();
    }
  });
  return sys.report("");
}

inline RunCounts presend_blocks(int blocks, int rounds) {
  return counts_of(producer_consumer(
      fiber_machine(2), blocks, rounds,
      [](int r, int b) { return static_cast<std::int32_t>(r + b); },
      [](int, int, std::int32_t) {}));
}

// ---- sim.parallel: one conservative window, 4 workers -----------------------

// Each of the `workers` lanes holds one no-op event per window (the event
// reschedules itself one window later), so every window is the fixed
// watermark + cap + drain + boundary cost with no simulated work.
struct WindowTick {
  sim::Engine* engine;
  std::int64_t left;
  void operator()() {
    if (--left <= 0) return;
    engine->schedule_in(engine->window(), WindowTick{engine, left});
  }
};

inline double parallel_ns_per_window(std::int64_t n, int workers = 4) {
  sim::Engine engine(sim::Backend::kParallel);
  engine.enable_windows(sim::microseconds(30), workers, workers);
  for (int lane = 0; lane < workers; ++lane)
    engine.schedule_on(lane, 0, WindowTick{&engine, n});
  const auto t0 = Clock::now();
  engine.run();
  const auto t1 = Clock::now();
  return ns_between(t0, t1) / static_cast<double>(engine.windows_run());
}

// ---- trace: Tracer::on_msg_send into memory ---------------------------------

inline double trace_ns_per_event(std::int64_t n) {
  mem::GlobalSpace space(4, mem::MemConfig{});
  trace::TraceConfig cfg;
  cfg.enabled = true;
  cfg.max_events_per_node = static_cast<std::uint64_t>(n);
  trace::Tracer tracer(cfg, space, nullptr);
  const auto t0 = Clock::now();
  for (std::int64_t i = 0; i < n; ++i)
    tracer.on_msg_send(static_cast<int>(i & 3), static_cast<int>((i + 1) & 3),
                       1, static_cast<std::uint64_t>(i), 1, 56,
                       static_cast<sim::Time>(i));
  const auto t1 = Clock::now();
  return ns_between(t0, t1) / static_cast<double>(n);
}

}  // namespace presto::probes
