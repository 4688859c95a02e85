// Host-speed gates that presto_bench (presto_bench/, the host benchmark with
// committed records) cannot express, plus the host cost of the
// synchronization runtime, which none of its probes covers:
//
//   * "micro" — producer/consumer over 512 blocks on 4 nodes, predictive
//     with coalescing off, so every presend block travels in its own
//     BulkData/BulkAck pair: the event queue, message transport and handler
//     dispatch dominate host time. Best of 5 untraced reps after one
//     discarded warm-up. --min-micro-eps=N exits 1 below N events/s; CI's
//     perf-smoke job holds a floor there. presto_bench's presend_stream is
//     the same program at 40x the rounds.
//   * "ring" (--backend=parallel only) — every node writes its own blocks
//     and reads its neighbour's, run serial windowed and then on the worker
//     pool with --workers=N. The two must simulate the same events and
//     messages; --min-parallel-speedup=X exits 1 below X.
//   * "barrier" and "lock" — back-to-back barriers on the 32-node machine,
//     and shared-lock handoffs among 4 nodes. Printed only.
//
// --micro-nodes=N sets the node count of the micro and the ring.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "runtime/lock.h"
#include "runtime/system.h"
#include "util/check.h"
#include "util/cli.h"

using namespace presto;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct StreamResult {
  std::uint64_t events = 0;
  double wall_s = 0.0;
  double events_per_sec = 0.0;
  std::uint64_t msgs = 0;
  stats::HostCounters host;
};

// Producer/consumer over `blocks` 32-byte blocks for `rounds` rounds, with
// coalescing off so the event count scales with blocks, not runs. Without
// `ring`, node 0 writes and node 1 reads (the micro): only 2 of N nodes are
// busy, so the worker pool would rightly keep its windows on the caller.
// With `ring`, every node writes its own blocks and reads its neighbour's —
// the paper's near-neighbour iterative sharing — so every lane drains
// protocol work each window and every home serves requests, and worker
// scaling is limited by the window barrier alone.
StreamResult run_stream(int nodes, int blocks, int rounds, bool ring,
                        sim::Backend backend, int workers = 0) {
  auto cfg = runtime::MachineConfig::cm5_blizzard(nodes, 32);
  cfg.backend = backend;
  cfg.workers = workers;
  runtime::System sys(cfg, runtime::ProtocolKind::kPredictive);
  sys.predictive()->set_coalescing(false);
  std::vector<mem::Addr> base(static_cast<std::size_t>(ring ? nodes : 1));
  for (std::size_t i = 0; i < base.size(); ++i)
    base[i] = sys.space().alloc_on_node(
        static_cast<int>(i), static_cast<std::size_t>(blocks) * 32);

  const auto t0 = Clock::now();
  sys.run([&](runtime::NodeCtx& c) {
    const int id = c.id();
    const mem::Addr mine = base[ring ? static_cast<std::size_t>(id) : 0];
    const mem::Addr left =
        base[ring ? static_cast<std::size_t>((id + 1) % c.nodes()) : 0];
    for (int r = 0; r < rounds; ++r) {
      c.phase(0);
      if (ring || id == 0)
        for (int b = 0; b < blocks; ++b)
          c.write<int>(mine + static_cast<mem::Addr>(b) * 32, r + b);
      c.barrier();
      c.phase(1);
      if (ring || id == 1)
        for (int b = 0; b < blocks; ++b) {
          volatile int v = c.read<int>(left + static_cast<mem::Addr>(b) * 32);
          (void)v;
        }
      c.barrier();
    }
  });
  StreamResult res;
  res.wall_s = seconds_since(t0);
  res.events = sys.engine().events_executed();
  res.events_per_sec = static_cast<double>(res.events) / res.wall_s;
  res.msgs = sys.network().messages_sent();
  res.host = sys.recorder().host();
  return res;
}

// Where the worker pool's wall clock went: the caller's lane drains, the
// post-drain boundary ops, the caller's wait at the window barrier, and how
// helpers were woken (spin acquisitions vs futex parks).
void print_window_stats(const stats::HostCounters& h) {
  std::printf("  windows: drain=%.1fms boundary=%.1fms barrier_wait=%.1fms "
              "park=%.1fms (%llu parks, %llu spin releases, %llu releases, "
              "%llu windows on the caller alone, %llu caller lanes in "
              "released windows)\n",
              h.win_drain_ns / 1e6, h.win_boundary_ns / 1e6,
              h.win_barrier_wait_ns / 1e6, h.win_park_ns / 1e6,
              (unsigned long long)h.win_parks,
              (unsigned long long)h.win_spin_releases,
              (unsigned long long)h.win_releases,
              (unsigned long long)h.win_serial_windows,
              (unsigned long long)h.win_adopted_drains);
}

// Host cost per operation of the synchronization runtime, with the simulated
// cost of one operation next to it.
struct SyncResult {
  double host_us_per_op = 0.0;
  double sim_us_per_op = 0.0;
};

// `rounds` barriers across `nodes` nodes with no work between them.
SyncResult run_barrier_latency(int nodes, int rounds) {
  runtime::System sys(runtime::MachineConfig::cm5_blizzard(nodes, 32),
                      runtime::ProtocolKind::kStache);
  sim::Time exec = 0;
  const auto t0 = Clock::now();
  sys.run([&](runtime::NodeCtx& c) {
    for (int r = 0; r < rounds; ++r) c.barrier();
    if (c.id() == 0) exec = c.proc().now();
  });
  const double host_s = seconds_since(t0);
  SyncResult res;
  res.host_us_per_op = host_s * 1e6 / rounds;
  res.sim_us_per_op = sim::to_micros(exec) / rounds;
  return res;
}

// Each round, every node takes one shared lock in turn, bumps a counter
// homed on node 0 under it, and meets the others at a barrier.
SyncResult run_lock_handoff(int nodes, int rounds) {
  runtime::System sys(runtime::MachineConfig::cm5_blizzard(nodes, 32),
                      runtime::ProtocolKind::kStache);
  auto lock = runtime::SharedLock::create(sys.space(), 0);
  const mem::Addr counter = sys.space().alloc_on_node(0, 64);
  const auto t0 = Clock::now();
  sys.run([&](runtime::NodeCtx& c) {
    for (int r = 0; r < rounds; ++r) {
      lock.acquire(c);
      c.rmw<std::uint64_t>(counter, [](std::uint64_t& v) { ++v; });
      lock.release(c);
      c.barrier();
    }
  });
  const double host_s = seconds_since(t0);
  const int handoffs = nodes * rounds;
  SyncResult res;
  res.host_us_per_op = host_s * 1e6 / handoffs;
  res.sim_us_per_op =
      sim::to_micros(sys.recorder().sum(&stats::NodeCounters::lock_wait)) /
      handoffs;
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const bool quick = cli.get_bool("quick");
  const int nodes = static_cast<int>(cli.get_int("micro-nodes", 4));
  const double min_micro_eps =
      static_cast<double>(cli.get_int("min-micro-eps", 0));
  // --backend=parallel adds the ring leg; fiber (the default) adds none.
  const std::string backend_s = cli.get("backend", "");
  sim::Backend backend = sim::Backend::kFiber;
  if (!backend_s.empty())
    PRESTO_CHECK(sim::backend_from_name(backend_s, &backend),
                 "--backend: unknown backend '"
                     << backend_s << "' (expected one of: "
                     << sim::backend_names() << ")");
  const int workers = static_cast<int>(cli.get_int("workers", 4));
  PRESTO_CHECK(workers >= 1, "--workers must be >= 1");
  // Off by default: a speedup floor only means something on a host with
  // real cores, so CI passes one only where it has them.
  const double min_parallel_speedup =
      cli.get_double("min-parallel-speedup", 0.0);
  cli.reject_unknown();
  int status = 0;

  const int blocks = quick ? 64 : 512;
  const int rounds = quick ? 4 : 192;
  const int reps = quick ? 1 : 5;
  std::printf("micro: nodes=%d blocks=%d rounds=%d reps=%d ...\n", nodes,
              blocks, rounds, reps);
  std::fflush(stdout);
  // One discarded warm-up run, then the best of `reps`: the workload is
  // deterministic, so host noise only ever adds time.
  (void)run_stream(nodes, blocks, rounds, false, sim::default_backend());
  StreamResult micro;
  for (int i = 0; i < reps; ++i) {
    StreamResult r =
        run_stream(nodes, blocks, rounds, false, sim::default_backend());
    if (i == 0 || r.wall_s < micro.wall_s) micro = r;
  }
  std::printf("micro: %llu events in %.3fs -> %.0f events/sec (%llu msgs; "
              "backend=%s, %llu handoffs, %llu direct resumes)\n",
              (unsigned long long)micro.events, micro.wall_s,
              micro.events_per_sec, (unsigned long long)micro.msgs,
              micro.host.backend, (unsigned long long)micro.host.handoffs,
              (unsigned long long)micro.host.direct_resumes);
  if (min_micro_eps > 0 && micro.events_per_sec < min_micro_eps) {
    std::fprintf(stderr,
                 "FAIL: micro events/sec %.0f below floor %.0f "
                 "(host throughput regression)\n",
                 micro.events_per_sec, min_micro_eps);
    status = 1;
  }

  // The worker pool against the serial windowed engine. The two simulate
  // bit-identically (tests/parallel_equivalence_test.cc proves it event by
  // event; the cheap invariants are re-checked here), so the only question
  // is host speed.
  if (backend == sim::Backend::kParallel) {
    const int rblocks = quick ? 16 : 64;
    const int rrounds = quick ? 2 : 12;
    const int hw_cpus = std::max(1u, std::thread::hardware_concurrency());
    // Both run the cm5 model's 30 us window, derived from its wire latency.
    const StreamResult serial = run_stream(nodes, rblocks, rrounds, true,
                                           sim::Backend::kFiber);
    std::printf("ring/windowed: nodes=%d blocks=%d rounds=%d -> %.0f "
                "events/sec (serial fiber, window=30us)\n",
                nodes, rblocks, rrounds, serial.events_per_sec);
    const StreamResult par = run_stream(nodes, rblocks, rrounds, true,
                                        sim::Backend::kParallel, workers);
    PRESTO_CHECK(par.events == serial.events && par.msgs == serial.msgs,
                 "parallel backend diverged from the serial windowed canon "
                 "(events " << par.events << " vs " << serial.events
                            << ", msgs " << par.msgs << " vs "
                            << serial.msgs << ")");
    const double speedup = serial.wall_s / par.wall_s;
    std::printf("ring/parallel: workers=%d -> %.0f events/sec (%.2fx vs "
                "serial windowed; host has %d cpu(s))\n",
                workers, par.events_per_sec, speedup, hw_cpus);
    if (workers > 1) print_window_stats(par.host);
    if (min_parallel_speedup > 0 && speedup < min_parallel_speedup) {
      std::fprintf(stderr,
                   "FAIL: parallel speedup %.2fx below floor %.2fx at "
                   "workers=%d\n",
                   speedup, min_parallel_speedup, workers);
      status = 1;
    }
  }

  const int sync_rounds = quick ? 64 : 1024;
  const auto barrier = run_barrier_latency(32, sync_rounds);
  std::printf("barrier: nodes=32 rounds=%d -> %.2f us host per barrier "
              "(%.2f us simulated)\n",
              sync_rounds, barrier.host_us_per_op, barrier.sim_us_per_op);
  const auto lock = run_lock_handoff(4, sync_rounds);
  std::printf("lock: nodes=4 rounds=%d -> %.2f us host per handoff "
              "(%.2f us simulated lock wait)\n",
              sync_rounds, lock.host_us_per_op, lock.sim_us_per_op);
  return status;
}
