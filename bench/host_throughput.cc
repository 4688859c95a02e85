// Host-throughput harness: how fast does the simulator itself run?
//
// Three workloads bracket the hot paths:
//   * "micro"  — a protocol-message-dominated producer/consumer sweep on the
//     predictive protocol with coalescing disabled, so every presend block
//     travels in its own BulkData/BulkAck pair: the event queue, message
//     transport, and handler dispatch dominate host time.
//   * "barnes" — a Barnes–Hut N-body run (the paper's Fig. 6 shape): a mix
//     of application compute, fine-grain access checks, schedule recording,
//     and presend traffic.
//   * "water"  — the paper's §5.3 molecular-dynamics workload: static
//     repetitive producer-consumer sharing on positions, heavy on schedule
//     recording and directory probes at a few hot home nodes.
//   * "ranker" — pagerank push over a drifting graph, run under stache and
//     ccached: the merge-traffic extreme, exercising the commutative-update
//     log/flush path against the invalidation path on the same program.
//   * "barrier" and "lock" — back-to-back barriers on the 32-node machine,
//     and shared-lock handoffs among 4 nodes: the synchronization runtime,
//     which presto_bench's unit-cost probes do not cover. Printed only.
//
// Emits results/BENCH_host.json with host events/sec (micro), wall-clock
// (barnes/water/ranker), and the metadata-layer counters (directory probes,
// schedule lookups, resident metadata bytes), next to the pre-rewrite
// baselines captured at the same scale so every future PR sees the perf
// trajectory. See docs/performance.md.
//
// --min-micro-eps=N exits non-zero if micro events/sec lands below N — the
// CI perf-smoke job passes a conservative floor so a hot-path regression
// fails the build instead of landing silently.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "apps/barnes/barnes.h"
#include "apps/ranker/ranker.h"
#include "apps/water/water.h"
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

struct MicroResult {
  std::uint64_t events = 0;
  double wall_s = 0.0;
  double events_per_sec = 0.0;
  std::uint64_t msgs = 0;
  std::uint64_t dir_probes = 0;
  std::uint64_t sched_lookups = 0;
  std::uint64_t trace_events = 0;  // traced variant only
  stats::HostCounters host;
};

// Where the worker pool's wall clock went (parallel backend only): the
// caller's lane drains, the post-drain boundary ops, the caller's wait at the
// window barrier, and how helpers were woken (spin acquisitions vs futex
// parks).
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

void print_host(const stats::HostCounters& h) {
  const double switch_rate =
      h.run_wall_s > 0 ? static_cast<double>(h.handoffs) / h.run_wall_s : 0.0;
  std::printf("  host: backend=%s handoffs=%llu direct_resumes=%llu "
              "(%.0f switches/sec, run wall %.3fs, metadata %llu bytes)\n",
              h.backend, (unsigned long long)h.handoffs,
              (unsigned long long)h.direct_resumes, switch_rate, h.run_wall_s,
              (unsigned long long)h.metadata_bytes);
}

// Producer/consumer over `blocks` blocks for `rounds` rounds; coalescing is
// disabled so the event count scales with blocks, not runs. With `traced`
// the full event tracer records in memory (no file write), measuring the
// tracer-enabled overhead against the untraced run. `backend`/`window`/
// `workers` select the engine (kParallel implies windowed; see
// runtime/machine.h) — the simulated results are identical either way, only
// host speed differs.
MicroResult run_micro(int nodes, int blocks, int rounds, bool traced = false,
                      sim::Backend backend = sim::default_backend(),
                      sim::Time window = 0, int workers = 0, int batch = 0) {
  auto cfg = runtime::MachineConfig::cm5_blizzard(nodes, 32);
  cfg.trace.enabled = traced;
  cfg.backend = backend;
  cfg.window = window;
  cfg.workers = workers;
  cfg.batch_windows = batch;
  runtime::System sys(cfg, runtime::ProtocolKind::kPredictive);
  sys.predictive()->set_coalescing(false);
  const mem::Addr a = sys.space().alloc_on_node(
      0, static_cast<std::size_t>(blocks) * cfg.mem.block_size);

  const auto t0 = Clock::now();
  sys.run([&](runtime::NodeCtx& c) {
    for (int r = 0; r < rounds; ++r) {
      c.phase(0);
      if (c.id() == 0)
        for (int b = 0; b < blocks; ++b)
          c.write<int>(a + static_cast<mem::Addr>(b) * 32, r + b);
      c.barrier();
      c.phase(1);
      if (c.id() == 1)
        for (int b = 0; b < blocks; ++b) {
          volatile int v = c.read<int>(a + static_cast<mem::Addr>(b) * 32);
          (void)v;
        }
      c.barrier();
    }
  });
  MicroResult res;
  res.wall_s = seconds_since(t0);
  res.events = sys.engine().events_executed();
  res.events_per_sec = static_cast<double>(res.events) / res.wall_s;
  res.msgs = sys.network().messages_sent();
  res.dir_probes = sys.recorder().sum(&stats::NodeCounters::dir_probes);
  res.sched_lookups = sys.recorder().sum(&stats::NodeCounters::sched_lookups);
  if (sys.tracer() != nullptr)
    res.trace_events = sys.tracer()->summary().events;
  res.host = sys.recorder().host();
  return res;
}

// Best-of-`reps` wall clock for the untraced and traced micro variants,
// measured interleaved (U T U T ...). Two independent back-to-back series
// don't work here: a single measurement is hostage to allocator/page-cache
// warm-up and scheduler noise, and on a small host the drift *between* two
// series easily exceeds the tracer overhead being measured (it once made
// the traced run, measured second and warm, look faster than the untraced
// one). Interleaving puts both variants under the same noise regime, and
// min-of-N is the right estimator for a deterministic workload — host noise
// only ever adds time. Callers do one discarded warm-up run first.
struct MicroPair {
  MicroResult untraced;
  MicroResult traced;
};

MicroPair run_micro_pair(int nodes, int blocks, int rounds, int reps) {
  MicroPair best;
  for (int i = 0; i < reps; ++i) {
    MicroResult u = run_micro(nodes, blocks, rounds, /*traced=*/false);
    MicroResult t = run_micro(nodes, blocks, rounds, /*traced=*/true);
    if (i == 0 || u.wall_s < best.untraced.wall_s) best.untraced = u;
    if (i == 0 || t.wall_s < best.traced.wall_s) best.traced = t;
  }
  return best;
}

// All-lanes-active variant for the parallel worker sweep: every node
// produces its own blocks and consumes its left neighbor's — the paper's
// near-neighbor iterative sharing shape. The plain micro workload keeps only
// 2 of N nodes busy, so the worker pool (correctly) runs its short windows on
// the caller alone: a worker sweep over it measures workload starvation, not
// the synchronization hot path. Here every lane drains real
// protocol work each window and every home node serves requests, so worker
// scaling is limited by the barrier/staging design — the thing this bench
// exists to watch.
MicroResult run_ring(int nodes, int blocks, int rounds, sim::Backend backend,
                     sim::Time window, int workers = 0, int batch = 0) {
  auto cfg = runtime::MachineConfig::cm5_blizzard(nodes, 32);
  cfg.backend = backend;
  cfg.window = window;
  cfg.workers = workers;
  cfg.batch_windows = batch;
  runtime::System sys(cfg, runtime::ProtocolKind::kPredictive);
  sys.predictive()->set_coalescing(false);
  std::vector<mem::Addr> base(static_cast<std::size_t>(nodes));
  for (int i = 0; i < nodes; ++i)
    base[static_cast<std::size_t>(i)] = sys.space().alloc_on_node(
        i, static_cast<std::size_t>(blocks) * cfg.mem.block_size);

  const auto t0 = Clock::now();
  sys.run([&](runtime::NodeCtx& c) {
    const mem::Addr mine = base[static_cast<std::size_t>(c.id())];
    const mem::Addr left =
        base[static_cast<std::size_t>((c.id() + 1) % c.nodes())];
    for (int r = 0; r < rounds; ++r) {
      c.phase(0);
      for (int b = 0; b < blocks; ++b)
        c.write<int>(mine + static_cast<mem::Addr>(b) * 32, r + b);
      c.barrier();
      c.phase(1);
      for (int b = 0; b < blocks; ++b) {
        volatile int v = c.read<int>(left + static_cast<mem::Addr>(b) * 32);
        (void)v;
      }
      c.barrier();
    }
  });
  MicroResult res;
  res.wall_s = seconds_since(t0);
  res.events = sys.engine().events_executed();
  res.events_per_sec = static_cast<double>(res.events) / res.wall_s;
  res.msgs = sys.network().messages_sent();
  res.host = sys.recorder().host();
  return res;
}

// Resident protocol+network metadata for a wide machine running a bounded
// workload, next to what the pre-sparse dense layouts (nodes² channels,
// per-node full tag arrays) would have allocated. Recorded in the JSON so
// the sub-quadratic scaling claim stays a measured number, not prose.
struct ScaleMeta {
  int nodes = 0;
  std::size_t metadata_bytes = 0;
  std::size_t dense_equiv_bytes = 0;
};

ScaleMeta measure_scale_meta(int nodes) {
  auto cfg = runtime::MachineConfig::cm5_blizzard(nodes, 32);
  cfg.mem.page_size = 512;
  runtime::System sys(cfg, runtime::ProtocolKind::kStache);
  const mem::Addr a = sys.space().alloc_on_node(0, 256);
  sys.run([&](runtime::NodeCtx& c) {
    if (c.id() == 0)
      for (int i = 0; i < 8; ++i) c.write<int>(a + 4 * i, i);
    c.barrier();
    if (c.id() % 37 == 1) {
      volatile int v = c.read<int>(a);
      (void)v;
    }
    c.barrier();
  });
  ScaleMeta s;
  s.nodes = nodes;
  s.metadata_bytes =
      sys.protocol().metadata_bytes() + sys.network().metadata_bytes();
  const std::size_t nblocks =
      sys.space().size_bytes() / sys.space().block_size();
  s.dense_equiv_bytes = net::Network::dense_equiv_bytes(nodes) +
                        static_cast<std::size_t>(nodes) * nblocks;
  return s;
}

struct AppBenchResult {
  double wall_s = 0.0;
  double checksum = 0.0;
  std::uint64_t msgs = 0;
  std::uint64_t faults = 0;
  std::uint64_t cc_flushes = 0;
  std::uint64_t exec_ns = 0;
  std::uint64_t dir_probes = 0;
  std::uint64_t sched_lookups = 0;
  stats::HostCounters host;
};

AppBenchResult from_app(const apps::AppResult& r, double wall_s) {
  AppBenchResult res;
  res.wall_s = wall_s;
  res.checksum = r.checksum;
  res.msgs = r.report.msgs;
  res.faults = r.report.faults;
  res.cc_flushes = r.report.cc_flushes;
  res.exec_ns = static_cast<std::uint64_t>(r.report.exec);
  res.dir_probes = r.report.dir_probes;
  res.sched_lookups = r.report.sched_lookups;
  res.host = r.report.host;
  return res;
}

AppBenchResult run_barnes_shaped(int nodes, std::size_t bodies, int steps) {
  apps::BarnesParams params;
  params.bodies = bodies;
  params.steps = steps;
  const auto machine = runtime::MachineConfig::cm5_blizzard(nodes, 32);
  const auto t0 = Clock::now();
  const auto r = apps::run_barnes(params, machine,
                                  runtime::ProtocolKind::kPredictive,
                                  /*directives=*/true);
  return from_app(r, seconds_since(t0));
}

AppBenchResult run_water_shaped(int nodes, std::size_t molecules, int steps) {
  apps::WaterParams params;
  params.molecules = molecules;
  params.steps = steps;
  const auto machine = runtime::MachineConfig::cm5_blizzard(nodes, 32);
  const auto t0 = Clock::now();
  const auto r = apps::run_water(params, machine,
                                 runtime::ProtocolKind::kPredictive,
                                 /*directives=*/true);
  return from_app(r, seconds_since(t0));
}

// Ranker is the merge-traffic extreme of the app matrix: run it under both
// stache (every push is an invalidation fault) and ccached (pushes privatize
// into per-node logs, one flush per dirty block per phase) so the JSON
// trajectory records both the host cost and the simulated win of the
// commutative-update path on the same program.
AppBenchResult run_ranker_shaped(int nodes, std::size_t vertices, int iters,
                                 runtime::ProtocolKind kind) {
  apps::RankerParams params;
  params.vertices = vertices;
  params.iters = iters;
  const auto machine = runtime::MachineConfig::cm5_blizzard(nodes, 32);
  const auto t0 = Clock::now();
  const auto r = apps::run_ranker(params, machine, kind, /*directives=*/false);
  return from_app(r, seconds_since(t0));
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

// Historical numbers at the default scale so BENCH_host.json always records
// the trajectory; update alongside any future hot-path change.
//   * seed: std::function event queue, closure-based message delivery,
//     std::function fault indirection, std::map schedules, thread backend.
//   * PR 1: zero-allocation events, typed dispatch, flat schedules — still
//     one OS thread per simulated processor (mutex/condvar handoffs).
//   * PR 3: fiber backend (cooperative single-thread scheduling).
// Workloads: micro at nodes=4 blocks=512 rounds=192; barnes at nodes=8
// bodies=2048 steps=2; water (added in the metadata-flattening PR, no
// earlier baseline) at nodes=8 molecules=512 steps=2.
constexpr double kSeedMicroEventsPerSec = 1012973.0;
constexpr double kSeedBarnesWallS = 6.960;
constexpr double kPr1MicroEventsPerSec = 9235779.0;
constexpr double kPr1BarnesWallS = 2.1863;
constexpr double kPr3MicroEventsPerSec = 11312053.0;
constexpr double kPr3BarnesWallS = 0.2865;

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const bool quick = cli.get_bool("quick");
  const int micro_nodes = static_cast<int>(cli.get_int("micro-nodes", 4));
  const int blocks = static_cast<int>(cli.get_int("blocks", quick ? 64 : 512));
  const int rounds = static_cast<int>(cli.get_int("rounds", quick ? 4 : 192));
  const int barnes_nodes = static_cast<int>(cli.get_int("barnes-nodes", 8));
  const std::size_t bodies = static_cast<std::size_t>(
      cli.get_int("bodies", quick ? 256 : 2048));
  const int steps = static_cast<int>(cli.get_int("steps", 2));
  const int water_nodes = static_cast<int>(cli.get_int("water-nodes", 8));
  const std::size_t molecules = static_cast<std::size_t>(
      cli.get_int("molecules", quick ? 128 : 512));
  const int water_steps = static_cast<int>(cli.get_int("water-steps", 2));
  const int ranker_nodes = static_cast<int>(cli.get_int("ranker-nodes", 8));
  const std::size_t ranker_vertices = static_cast<std::size_t>(
      cli.get_int("ranker-vertices", quick ? 256 : 1024));
  const int ranker_iters =
      static_cast<int>(cli.get_int("ranker-iters", quick ? 2 : 8));
  const double min_micro_eps =
      static_cast<double>(cli.get_int("min-micro-eps", 0));
  // --backend=parallel adds the parallel leg; fiber (the default) adds none.
  const std::string backend_s = cli.get("backend", "");
  sim::Backend backend = sim::Backend::kFiber;
  if (!backend_s.empty())
    PRESTO_CHECK(sim::backend_from_name(backend_s, &backend),
                 "--backend: unknown backend '"
                     << backend_s << "' (expected one of: "
                     << sim::backend_names() << ")");
  const bool parallel_leg = backend == sim::Backend::kParallel;
  const int req_workers = static_cast<int>(cli.get_int("workers", 4));
  PRESTO_CHECK(req_workers >= 1, "--workers must be >= 1");
  // Host-only tuning knob: cap on consecutive spin-acquired window releases
  // per helper before it must park (0 = uncapped). Results-invariant.
  const int batch_windows = static_cast<int>(cli.get_int("batch-windows", 0));
  PRESTO_CHECK(batch_windows >= 0, "--batch-windows must be >= 0");
  // Off by default: a single-core host serializes the worker pool, so a
  // speedup floor only means something on a machine with real cores. CI legs
  // that want to gate scaling pass e.g. --min-parallel-speedup=3.0.
  const double min_parallel_speedup =
      cli.get_double("min-parallel-speedup", 0.0);
  const std::string json_path =
      cli.get("json", quick ? "" : "results/BENCH_host.json");
  cli.reject_unknown();

  // One discarded warm-up run, then interleaved best-of-N for the
  // untraced/traced comparison (see run_micro_pair).
  const int reps = quick ? 1 : 5;
  std::printf("micro: nodes=%d blocks=%d rounds=%d reps=%d ...\n",
              micro_nodes, blocks, rounds, reps);
  std::fflush(stdout);
  (void)run_micro(micro_nodes, blocks, rounds);  // warm-up, not timed
  const auto pair = run_micro_pair(micro_nodes, blocks, rounds, reps);
  const auto& micro = pair.untraced;
  std::printf("micro: %llu events in %.3fs -> %.0f events/sec (%llu msgs, "
              "%llu dir probes, %llu sched lookups)\n",
              (unsigned long long)micro.events, micro.wall_s,
              micro.events_per_sec, (unsigned long long)micro.msgs,
              (unsigned long long)micro.dir_probes,
              (unsigned long long)micro.sched_lookups);
  print_host(micro.host);

  // Same workload with the event tracer recording in memory: the cost of
  // `--trace` when someone actually wants a trace (the disabled-tracer cost
  // is a null-pointer test, covered by the zero-overhead tests).
  const auto& traced = pair.traced;
  const double trace_overhead_pct =
      micro.wall_s > 0 ? (traced.wall_s / micro.wall_s - 1.0) * 100.0 : 0.0;
  std::printf("micro+trace: %.0f events/sec (%+.1f%% wall vs untraced, "
              "%llu trace events)\n",
              traced.events_per_sec, trace_overhead_pct,
              (unsigned long long)traced.trace_events);

  // ---- Parallel worker-pool engine vs the serial windowed canon ----------
  // Runs when requested (--backend=parallel, the CI smoke leg) or whenever
  // the JSON trajectory is written. The two engines produce bit-identical
  // simulations (tests/parallel_equivalence_test.cc proves it event-by-event;
  // the cheap invariants are re-checked here), so the only question is host
  // speed: events/sec per worker count against the serial windowed run.
  struct ParallelPoint {
    int workers = 0;
    MicroResult r;
  };
  std::vector<ParallelPoint> ppoints;
  MicroResult serial_windowed;
  const int hw_cpus =
      std::max(1u, std::thread::hardware_concurrency());
  // The multi-worker sweep only measures scaling when the host has cores to
  // scale onto. Below 4 CPUs an unforced sweep is skipped — and says so, in
  // the output and the JSON — instead of recording "speedups" that are
  // really scheduler-contention numbers. An explicit --backend=parallel run
  // is always honored (the caller asked for this host's truth, whatever it
  // is).
  const bool sweep_meaningful = hw_cpus >= 4;
  const bool bench_parallel =
      parallel_leg || (!json_path.empty() && sweep_meaningful);
  const bool sweep_skipped =
      !parallel_leg && !json_path.empty() && !sweep_meaningful;
  const int pnodes = parallel_leg ? micro_nodes : 64;
  // Per-node block count and round count for the ring workload, sized so a
  // full sweep stays a few seconds while every window carries real work.
  const int pblocks = quick ? 16 : 64;
  const int prounds = quick ? 2 : 12;
  // Window = the cm5 wire latency, the widest conservative window the
  // network's lookahead admits.
  const sim::Time pwindow = sim::microseconds(30);
  if (sweep_skipped)
    std::printf("ring/parallel: SKIPPED multi-worker sweep (host has %d "
                "cpu(s), < 4: the pool would serialize and the numbers would "
                "measure contention, not scaling)\n",
                hw_cpus);
  if (bench_parallel) {
    serial_windowed = run_ring(pnodes, pblocks, prounds, sim::Backend::kFiber,
                               pwindow);
    std::printf("ring/windowed: nodes=%d blocks=%d rounds=%d -> %.0f "
                "events/sec (serial fiber, window=30us)\n",
                pnodes, pblocks, prounds, serial_windowed.events_per_sec);
    std::vector<int> wlist{1, 2, 4, 8};
    if (parallel_leg) wlist = {req_workers};
    for (const int w : wlist) {
      ParallelPoint p;
      p.workers = w;
      p.r = run_ring(pnodes, pblocks, prounds, sim::Backend::kParallel,
                     pwindow, w, batch_windows);
      PRESTO_CHECK(p.r.events == serial_windowed.events &&
                       p.r.msgs == serial_windowed.msgs,
                   "parallel backend diverged from the serial windowed canon "
                   "(events " << p.r.events << " vs "
                              << serial_windowed.events << ")");
      const double speedup = serial_windowed.wall_s > 0
                                 ? serial_windowed.wall_s / p.r.wall_s
                                 : 0.0;
      std::printf("ring/parallel: workers=%d -> %.0f events/sec "
                  "(%.2fx vs serial windowed; host has %d cpu(s))\n",
                  w, p.r.events_per_sec, speedup, hw_cpus);
      if (w > 1) print_window_stats(p.r.host);
      ppoints.push_back(std::move(p));
    }
    if (min_parallel_speedup > 0) {
      const double best =
          serial_windowed.wall_s / ppoints.back().r.wall_s;
      if (best < min_parallel_speedup) {
        std::fprintf(stderr,
                     "FAIL: parallel speedup %.2fx below floor %.2fx at "
                     "workers=%d\n",
                     best, min_parallel_speedup, ppoints.back().workers);
        return 1;
      }
    }
  }

  std::printf("barnes: nodes=%d bodies=%zu steps=%d ...\n", barnes_nodes,
              bodies, steps);
  std::fflush(stdout);
  const auto barnes = run_barnes_shaped(barnes_nodes, bodies, steps);
  std::printf("barnes: wall %.3fs, checksum %.9f (%llu msgs, %llu dir "
              "probes, %llu sched lookups)\n",
              barnes.wall_s, barnes.checksum, (unsigned long long)barnes.msgs,
              (unsigned long long)barnes.dir_probes,
              (unsigned long long)barnes.sched_lookups);
  print_host(barnes.host);

  std::printf("water: nodes=%d molecules=%zu steps=%d ...\n", water_nodes,
              molecules, water_steps);
  std::fflush(stdout);
  const auto water = run_water_shaped(water_nodes, molecules, water_steps);
  std::printf("water: wall %.3fs, checksum %.9f (%llu msgs, %llu dir "
              "probes, %llu sched lookups)\n",
              water.wall_s, water.checksum, (unsigned long long)water.msgs,
              (unsigned long long)water.dir_probes,
              (unsigned long long)water.sched_lookups);
  print_host(water.host);

  std::printf("ranker: nodes=%d vertices=%zu iters=%d ...\n", ranker_nodes,
              ranker_vertices, ranker_iters);
  std::fflush(stdout);
  const auto ranker_st = run_ranker_shaped(ranker_nodes, ranker_vertices,
                                           ranker_iters,
                                           runtime::ProtocolKind::kStache);
  const auto ranker_cc = run_ranker_shaped(ranker_nodes, ranker_vertices,
                                           ranker_iters,
                                           runtime::ProtocolKind::kCCached);
  PRESTO_CHECK(ranker_st.checksum == ranker_cc.checksum,
               "ranker checksum diverged across protocols ("
                   << ranker_st.checksum << " vs " << ranker_cc.checksum
                   << ")");
  std::printf("ranker/stache:  wall %.3fs, sim exec %.3fs, %llu faults, "
              "%llu msgs\n",
              ranker_st.wall_s, static_cast<double>(ranker_st.exec_ns) / 1e9,
              (unsigned long long)ranker_st.faults,
              (unsigned long long)ranker_st.msgs);
  std::printf("ranker/ccached: wall %.3fs, sim exec %.3fs, %llu faults, "
              "%llu cc flushes, %llu msgs (sim exec %.2fx of stache)\n",
              ranker_cc.wall_s, static_cast<double>(ranker_cc.exec_ns) / 1e9,
              (unsigned long long)ranker_cc.faults,
              (unsigned long long)ranker_cc.cc_flushes,
              (unsigned long long)ranker_cc.msgs,
              ranker_st.exec_ns > 0
                  ? static_cast<double>(ranker_cc.exec_ns) /
                        static_cast<double>(ranker_st.exec_ns)
                  : 0.0);

  const int sync_rounds = quick ? 64 : 1024;
  const auto barrier = run_barrier_latency(32, sync_rounds);
  std::printf("barrier: nodes=32 rounds=%d -> %.2f us host per barrier "
              "(%.2f us simulated)\n",
              sync_rounds, barrier.host_us_per_op, barrier.sim_us_per_op);
  const auto lock = run_lock_handoff(4, sync_rounds);
  std::printf("lock: nodes=4 rounds=%d -> %.2f us host per handoff "
              "(%.2f us simulated lock wait)\n",
              sync_rounds, lock.host_us_per_op, lock.sim_us_per_op);

  // Metadata scaling spot-checks: resident bytes vs the dense-layout
  // equivalent across the machine widths the scale sweep covers in depth
  // (bench/scale_sweep.cc has the full block-size grid).
  std::vector<ScaleMeta> smeta;
  if (!json_path.empty()) {
    for (const int n : {8, 64, 256, 1024}) {
      smeta.push_back(measure_scale_meta(n));
      std::printf("metadata: nodes=%4d resident=%zu bytes "
                  "(dense-layout equivalent %zu)\n",
                  n, smeta.back().metadata_bytes,
                  smeta.back().dense_equiv_bytes);
    }
  }

  if (!json_path.empty()) {
    FILE* f = std::fopen(json_path.c_str(), "w");
    PRESTO_CHECK(f != nullptr, "cannot open " << json_path
                                              << " (run from the repo root)");
    const double micro_vs_seed = micro.events_per_sec / kSeedMicroEventsPerSec;
    const double micro_vs_pr1 = micro.events_per_sec / kPr1MicroEventsPerSec;
    const double micro_vs_pr3 = micro.events_per_sec / kPr3MicroEventsPerSec;
    const double barnes_vs_seed = kSeedBarnesWallS / barnes.wall_s;
    const double barnes_vs_pr1 = kPr1BarnesWallS / barnes.wall_s;
    const double barnes_vs_pr3 = kPr3BarnesWallS / barnes.wall_s;
    std::fprintf(f,
                 "{\n"
                 "  \"micro\": {\n"
                 "    \"nodes\": %d, \"blocks\": %d, \"rounds\": %d,\n"
                 "    \"events\": %llu,\n"
                 "    \"wall_s\": %.4f,\n"
                 "    \"events_per_sec\": %.0f,\n"
                 "    \"msgs\": %llu,\n"
                 "    \"dir_probes\": %llu,\n"
                 "    \"sched_lookups\": %llu,\n"
                 "    \"metadata_bytes\": %llu\n"
                 "  },\n"
                 "  \"micro_traced\": {\n"
                 "    \"events_per_sec\": %.0f,\n"
                 "    \"wall_s\": %.4f,\n"
                 "    \"overhead_pct\": %.1f,\n"
                 "    \"trace_events\": %llu\n"
                 "  },\n"
                 "  \"barnes\": {\n"
                 "    \"nodes\": %d, \"bodies\": %zu, \"steps\": %d,\n"
                 "    \"wall_s\": %.4f,\n"
                 "    \"checksum\": %.9f,\n"
                 "    \"msgs\": %llu,\n"
                 "    \"dir_probes\": %llu,\n"
                 "    \"sched_lookups\": %llu,\n"
                 "    \"metadata_bytes\": %llu\n"
                 "  },\n"
                 "  \"water\": {\n"
                 "    \"nodes\": %d, \"molecules\": %zu, \"steps\": %d,\n"
                 "    \"wall_s\": %.4f,\n"
                 "    \"checksum\": %.9f,\n"
                 "    \"msgs\": %llu,\n"
                 "    \"dir_probes\": %llu,\n"
                 "    \"sched_lookups\": %llu,\n"
                 "    \"metadata_bytes\": %llu\n"
                 "  },\n"
                 "  \"ranker\": {\n"
                 "    \"nodes\": %d, \"vertices\": %zu, \"iters\": %d,\n"
                 "    \"stache\": {\"wall_s\": %.4f, \"sim_exec_ns\": %llu, "
                 "\"faults\": %llu, \"msgs\": %llu},\n"
                 "    \"ccached\": {\"wall_s\": %.4f, \"sim_exec_ns\": %llu, "
                 "\"faults\": %llu, \"cc_flushes\": %llu, \"msgs\": %llu}\n"
                 "  },\n",
                 micro_nodes, blocks, rounds,
                 (unsigned long long)micro.events, micro.wall_s,
                 micro.events_per_sec, (unsigned long long)micro.msgs,
                 (unsigned long long)micro.dir_probes,
                 (unsigned long long)micro.sched_lookups,
                 (unsigned long long)micro.host.metadata_bytes,
                 traced.events_per_sec, traced.wall_s, trace_overhead_pct,
                 (unsigned long long)traced.trace_events,
                 barnes_nodes, bodies, steps, barnes.wall_s, barnes.checksum,
                 (unsigned long long)barnes.msgs,
                 (unsigned long long)barnes.dir_probes,
                 (unsigned long long)barnes.sched_lookups,
                 (unsigned long long)barnes.host.metadata_bytes,
                 water_nodes, molecules, water_steps, water.wall_s,
                 water.checksum, (unsigned long long)water.msgs,
                 (unsigned long long)water.dir_probes,
                 (unsigned long long)water.sched_lookups,
                 (unsigned long long)water.host.metadata_bytes,
                 ranker_nodes, ranker_vertices, ranker_iters,
                 ranker_st.wall_s, (unsigned long long)ranker_st.exec_ns,
                 (unsigned long long)ranker_st.faults,
                 (unsigned long long)ranker_st.msgs,
                 ranker_cc.wall_s, (unsigned long long)ranker_cc.exec_ns,
                 (unsigned long long)ranker_cc.faults,
                 (unsigned long long)ranker_cc.cc_flushes,
                 (unsigned long long)ranker_cc.msgs);
    std::fprintf(f, "  \"metadata_scale\": [\n");
    for (std::size_t i = 0; i < smeta.size(); ++i)
      std::fprintf(f,
                   "    {\"nodes\": %d, \"metadata_bytes\": %zu, "
                   "\"dense_equiv_bytes\": %zu}%s\n",
                   smeta[i].nodes, smeta[i].metadata_bytes,
                   smeta[i].dense_equiv_bytes,
                   i + 1 < smeta.size() ? "," : "");
    std::fprintf(f, "  ],\n");
    if (sweep_skipped) {
      // No numbers is better than wrong numbers: record that the sweep was
      // skipped and why, so a reader of the trajectory doesn't mistake a
      // missing section for a regression — or a contention number for a
      // scaling one.
      std::fprintf(f,
                   "  \"parallel\": {\n"
                   "    \"host_cpus\": %d,\n"
                   "    \"skipped\": true,\n"
                   "    \"reason\": \"host has %d cpu(s), < 4: a multi-worker "
                   "sweep would measure scheduler contention, not scaling; "
                   "run with --backend=parallel to force, or re-record on a "
                   ">= 4-cpu host\"\n"
                   "  },\n",
                   hw_cpus, hw_cpus);
    }
    if (!ppoints.empty()) {
      // Worker-pool trajectory. Honest numbers from THIS host — on a
      // single-core machine the pool serializes and workers > 1 only add
      // coordination cost; the analytic scaling model and reference
      // multi-core expectations live in docs/performance.md §9.
      std::fprintf(f,
                   "  \"parallel\": {\n"
                   "    \"workload\": \"ring\", \"nodes\": %d, \"blocks\": "
                   "%d, \"rounds\": %d,\n"
                   "    \"window_ns\": %llu, \"host_cpus\": %d, "
                   "\"batch_windows\": %d,\n"
                   "    \"serial_windowed_events_per_sec\": %.0f,\n"
                   "    \"serial_windowed_wall_s\": %.4f,\n"
                   "    \"workers\": [\n",
                   pnodes, pblocks, prounds, (unsigned long long)pwindow,
                   hw_cpus, batch_windows, serial_windowed.events_per_sec,
                   serial_windowed.wall_s);
      for (std::size_t i = 0; i < ppoints.size(); ++i) {
        const ParallelPoint& p = ppoints[i];
        const double speedup = serial_windowed.wall_s > 0
                                   ? serial_windowed.wall_s / p.r.wall_s
                                   : 0.0;
        const stats::HostCounters& h = p.r.host;
        std::fprintf(f,
                     "      {\"workers\": %d, \"events_per_sec\": %.0f, "
                     "\"wall_s\": %.4f, \"speedup_vs_serial\": %.2f,\n"
                     "       \"win_drain_ns\": %llu, \"win_boundary_ns\": "
                     "%llu, \"win_barrier_wait_ns\": %llu, \"win_park_ns\": "
                     "%llu,\n"
                     "       \"win_parks\": %llu, \"win_spin_releases\": "
                     "%llu, \"win_releases\": %llu, \"win_serial_windows\": "
                     "%llu, \"win_adopted_drains\": %llu}%s\n",
                     p.workers, p.r.events_per_sec, p.r.wall_s, speedup,
                     (unsigned long long)h.win_drain_ns,
                     (unsigned long long)h.win_boundary_ns,
                     (unsigned long long)h.win_barrier_wait_ns,
                     (unsigned long long)h.win_park_ns,
                     (unsigned long long)h.win_parks,
                     (unsigned long long)h.win_spin_releases,
                     (unsigned long long)h.win_releases,
                     (unsigned long long)h.win_serial_windows,
                     (unsigned long long)h.win_adopted_drains,
                     i + 1 < ppoints.size() ? "," : "");
      }
      std::fprintf(f,
                   "    ],\n"
                   "    \"note\": \"bit-identical to the serial windowed "
                   "canon at every worker count (parallel-equivalence "
                   "tier); measured on a %d-cpu host\"\n"
                   "  },\n",
                   hw_cpus);
    }
    std::fprintf(f,
                 "  \"host\": {\n"
                 "    \"backend\": \"%s\",\n"
                 "    \"host_cpus\": %d,\n"
                 "    \"micro_handoffs\": %llu,\n"
                 "    \"micro_direct_resumes\": %llu,\n"
                 "    \"barnes_handoffs\": %llu,\n"
                 "    \"barnes_direct_resumes\": %llu\n"
                 "  },\n"
                 "  \"baselines\": {\n"
                 "    \"seed\": {\n"
                 "      \"micro_events_per_sec\": %.0f,\n"
                 "      \"barnes_wall_s\": %.4f,\n"
                 "      \"note\": \"pre-rewrite simulation core, thread "
                 "backend\"\n"
                 "    },\n"
                 "    \"pr1\": {\n"
                 "      \"micro_events_per_sec\": %.0f,\n"
                 "      \"barnes_wall_s\": %.4f,\n"
                 "      \"note\": \"hot-path overhaul, thread backend\"\n"
                 "    },\n"
                 "    \"pr3\": {\n"
                 "      \"micro_events_per_sec\": %.0f,\n"
                 "      \"barnes_wall_s\": %.4f,\n"
                 "      \"note\": \"fiber backend, hash-map protocol "
                 "metadata\"\n"
                 "    }\n"
                 "  },\n"
                 "  \"vs_baselines\": {\n"
                 "    \"micro_speedup_vs_seed\": %.2f,\n"
                 "    \"micro_speedup_vs_pr1\": %.2f,\n"
                 "    \"micro_speedup_vs_pr3\": %.2f,\n"
                 "    \"barnes_speedup_vs_seed\": %.2f,\n"
                 "    \"barnes_speedup_vs_pr1\": %.2f,\n"
                 "    \"barnes_speedup_vs_pr3\": %.2f\n"
                 "  }\n"
                 "}\n",
                 micro.host.backend, hw_cpus,
                 (unsigned long long)micro.host.handoffs,
                 (unsigned long long)micro.host.direct_resumes,
                 (unsigned long long)barnes.host.handoffs,
                 (unsigned long long)barnes.host.direct_resumes,
                 kSeedMicroEventsPerSec, kSeedBarnesWallS,
                 kPr1MicroEventsPerSec, kPr1BarnesWallS,
                 kPr3MicroEventsPerSec, kPr3BarnesWallS, micro_vs_seed,
                 micro_vs_pr1, micro_vs_pr3, barnes_vs_seed, barnes_vs_pr1,
                 barnes_vs_pr3);
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }

  if (min_micro_eps > 0 && micro.events_per_sec < min_micro_eps) {
    std::fprintf(stderr,
                 "FAIL: micro events/sec %.0f below floor %.0f "
                 "(host throughput regression)\n",
                 micro.events_per_sec, min_micro_eps);
    return 1;
  }
  return 0;
}
