// presto_bench: how fast does the simulator run the paper's workloads, and
// where does its host time go?
//
// One closed-loop client: one simulation at a time, each timed repetition in
// a fresh child process (fork + wait4), so every rep pays cold start the way
// a user's bench process does and has its own peak RSS. Reps run
// round-robin across the selected workloads (rep 1 of each, then rep 2, ...)
// so a slow period on a shared host is spread over all of them. No process
// uses more than 4 threads (ocean_par4's worker pool is the only one with
// more than one).
//
// Every layer is measured from outside, through public APIs: counts come
// from stats::Report / stats::HostCounters after each rep, unit costs from
// timing isolated calls into each layer (probes.h). The host-cost budget is
// count x unit cost per layer, with the unexplained remainder reported as
// budget.residual. The simulated model is unvalidated (the repo holds no
// hardware reference), so simulated metrics carry no error figure.
//
// Usage:
//   presto_bench                       all four workloads, 5 reps, traced
//                                      pass, probes; writes a run record
//   presto_bench --quick               1/8 sizes, 1 rep (the ctest smoke)
//   presto_bench --workload=NAME --seed=N --seconds=S --trace=0|1
//                                      one workload, 5 reps and more until
//                                      S seconds passed; --trace=1 adds the
//                                      traced pass and probes and reports
//                                      per-layer metrics
// The last line of stdout is one JSON object: correct, attempted, failed
// and the metrics. The exit code is non-zero when any check failed.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "apps/barnes/barnes.h"
#include "apps/ocean/ocean.h"
#include "apps/ranker/ranker.h"
#include "probes.h"
#include "runtime/system.h"
#include "util/check.h"
#include "util/cli.h"
#include "util/table.h"

using namespace presto;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---- Workloads ---------------------------------------------------------------

enum class Workload { kBarnes, kRanker, kStream, kOcean };

struct WorkloadInfo {
  Workload id;
  const char* name;
  // Pending events per engine heap, for the engine probe: one per node on
  // the single-lane engine, about one per lane on the windowed engine.
  int heap_depth;
};

constexpr WorkloadInfo kWorkloads[] = {
    {Workload::kBarnes, "barnes_opt32", 32},
    {Workload::kRanker, "ranker_stache", 32},
    {Workload::kStream, "presend_stream", 4},
    {Workload::kOcean, "ocean_par4", 1},
};

constexpr std::uint64_t kDefaultSeed = 1;

// Problem sizes: one rep takes 2-7 s, long enough that a short burst of host
// contention is a small part of it. --quick divides each workload's run
// length by 8.
struct Sizes {
  std::size_t barnes_bodies = 16384;  // the paper's Fig 6 data set
  int barnes_steps = 3;               // the paper's steps: record, 2x presend
  std::size_t ranker_vertices = 16384;
  int ranker_iters = 40;
  int stream_blocks = 512;
  int stream_rounds = 7680;
  std::size_t ocean_n = 258;  // the paper's grid
  int ocean_iters = 600;
};

Sizes sizes_for(bool quick) {
  Sizes s;
  if (quick) {
    s.barnes_bodies /= 8;
    s.ranker_vertices /= 8;
    s.stream_rounds /= 8;
    s.ocean_iters /= 8;
  }
  return s;
}

// Every run's checksum must match a reference: the stream's closed form, or
// a run of the workload in a second configuration (Mode::kReference). At
// kDefaultSeed the reference must also equal these pins.
struct Pin {
  double full;
  double quick;
};
constexpr Pin kPins[] = {
    {73.722444812992705, 4.6272560962759348},  // barnes_opt32
    {7039952179.0, 879994014.0},               // ranker_stache
    {271830508847.0, 273382333146.0},          // presend_stream
    {459673.96011916088, 163029.39932356769},  // ocean_par4
};

// Relative tolerance for comparing checksums across configurations. The
// legacy engine folds reductions in arrival order, so a floating-point
// checksum may differ in its last bits between protocols or canons;
// integer-valued checksums (Ranker, the stream) must match exactly.
double checksum_tolerance(Workload w) {
  return w == Workload::kBarnes || w == Workload::kOcean ? 1e-12 : 0.0;
}

enum class Mode { kTimed, kTraced, kReference };

// What a child process sends back, written whole through a pipe.
struct RunOut {
  bool ok = false;  // the workload's own output check
  double checksum = 0.0;
  // Child time outside System::run: construction, input generation and
  // teardown. Fork, exit and the parent's wake-up are left out; they are
  // host costs that no change to presto moves.
  double setup_s = 0.0;
  sim::Time exec = 0;
  sim::Time remote_wait = 0;
  std::uint64_t accesses = 0;
  std::uint64_t faults = 0;
  std::uint64_t msgs = 0;
  std::uint64_t bytes = 0;
  std::uint64_t presend_blocks = 0;
  std::uint64_t dir_probes = 0;
  std::uint64_t sched_lookups = 0;
  double local_hit_pct = 0.0;
  stats::HostCounters host;
  std::uint64_t trace_events = 0;
  std::uint64_t trace_dropped = 0;
  std::uint64_t miss_cold = 0;
  std::uint64_t miss_invalidation = 0;
  std::uint64_t miss_merge = 0;
  std::uint64_t presend_hits = 0;
  std::uint64_t presend_waste = 0;
  std::uint64_t presend_unused = 0;
};

RunOut from_report(const stats::Report& r, double checksum) {
  RunOut o;
  o.ok = true;
  o.checksum = checksum;
  o.exec = r.exec;
  o.remote_wait = r.remote_wait;
  o.accesses = r.shared_accesses;
  o.faults = r.faults;
  o.msgs = r.msgs;
  o.bytes = r.bytes;
  o.presend_blocks = r.presend_blocks;
  o.dir_probes = r.dir_probes;
  o.sched_lookups = r.sched_lookups;
  o.local_hit_pct = r.local_hit_pct;
  o.host = r.host;
  o.trace_events = r.trace_events;
  o.trace_dropped = r.trace_dropped;
  o.miss_cold = r.miss_cold;
  o.miss_invalidation = r.miss_invalidation;
  o.miss_merge = r.miss_merge;
  o.presend_hits = r.presend_hits;
  o.presend_waste = r.presend_waste;
  o.presend_unused = r.presend_unused;
  return o;
}

// The simulated results a host-only change must leave identical.
bool same_simulation(const RunOut& a, const RunOut& b) {
  return a.exec == b.exec && a.remote_wait == b.remote_wait &&
         a.accesses == b.accesses && a.faults == b.faults &&
         a.msgs == b.msgs && a.bytes == b.bytes &&
         a.presend_blocks == b.presend_blocks;
}

runtime::MachineConfig machine(int nodes, std::uint64_t seed, Mode mode) {
  auto m = runtime::MachineConfig::cm5_blizzard(nodes, 32);
  m.seed = seed;
  // Pinned rather than taken from PRESTO_BACKEND, so the environment cannot
  // change what is measured.
  m.backend = sim::Backend::kFiber;
  if (mode == Mode::kTraced) {
    m.trace.enabled = true;  // in memory, no file
    m.trace.max_events_per_node = std::numeric_limits<std::uint64_t>::max();
  }
  return m;
}

// Barnes-Hut in the paper's Fig 6 shape, optimized C** (predictive protocol
// + directives, 32 B blocks), legacy fiber engine. The seed jitters the
// bodies. Reference: the unoptimized version (Stache) on the same bodies, on
// the serial windowed engine, which runs it in under half a timed rep's time.
RunOut run_barnes(const Sizes& s, std::uint64_t seed, Mode mode) {
  apps::BarnesParams p;
  p.bodies = s.barnes_bodies;
  p.steps = s.barnes_steps;
  const bool ref = mode == Mode::kReference;
  auto m = machine(32, seed, mode);
  if (ref) m.window = m.net.wire_latency;
  const auto r = apps::run_barnes(
      p, m,
      ref ? runtime::ProtocolKind::kStache : runtime::ProtocolKind::kPredictive,
      /*directives=*/!ref);
  return from_report(r.report, r.checksum);
}

// Ranker pagerank push under Stache: every push is a remote atomic
// read-modify-write, a storm of write faults and invalidations. Reference:
// the commutative-update protocol on the serial windowed engine, whose
// integer ranks match exactly.
RunOut run_ranker(const Sizes& s, std::uint64_t seed, Mode mode) {
  apps::RankerParams p;
  p.vertices = s.ranker_vertices;
  p.iters = s.ranker_iters;
  p.seed = seed;
  auto m = machine(32, seed, mode);
  if (mode == Mode::kReference) m.window = m.net.wire_latency;
  const auto r = apps::run_ranker(p, m,
                                  mode == Mode::kReference
                                      ? runtime::ProtocolKind::kCCached
                                      : runtime::ProtocolKind::kStache,
                                  /*directives=*/false);
  return from_report(r.report, r.checksum);
}

// Value the stream producer writes to block b in round r.
std::int32_t stream_value(std::uint64_t seed, int r, int b) {
  std::uint64_t x = seed * 0x9E3779B97F4A7C15ULL +
                    static_cast<std::uint64_t>(r) * 0xBF58476D1CE4E5B9ULL +
                    static_cast<std::uint64_t>(b) * 0x94D049BB133111EBULL;
  x ^= x >> 31;
  x *= 0xD6E8FEB86659FD93ULL;
  x ^= x >> 32;
  return static_cast<std::int32_t>(x & 0x3FFFFFFF);
}

// Sum of the last round's values: what the consumer must read back.
double stream_expected(const Sizes& s, std::uint64_t seed) {
  double sum = 0.0;
  for (int b = 0; b < s.stream_blocks; ++b)
    sum += stream_value(seed, s.stream_rounds - 1, b);
  return sum;
}

// Producer -> consumer over 512 blocks on 4 nodes, predictive protocol with
// coalescing off, so every block travels by presend in its own message (the
// presend probe's program, probes::producer_consumer). The consumer checks
// every value it reads against what the producer wrote.
RunOut run_stream(const Sizes& s, std::uint64_t seed, Mode mode) {
  std::uint64_t wrong = 0;
  double last_round = 0.0;
  const stats::Report rep = probes::producer_consumer(
      machine(4, seed, mode), s.stream_blocks, s.stream_rounds,
      [&](int r, int b) { return stream_value(seed, r, b); },
      [&](int r, int b, std::int32_t v) {
        if (v != stream_value(seed, r, b)) ++wrong;
        if (r == s.stream_rounds - 1) last_round += v;
      });
  RunOut o = from_report(rep, last_round);
  o.ok = wrong == 0;
  return o;
}

// Ocean red-black stencil on the paper's 258x258 grid, predictive protocol
// with directives, parallel backend with 4 workers on the windowed engine.
// The seed sets the boundary potential. Reference: Stache on the serial
// windowed engine, which folds the checksum in the same node order.
RunOut run_ocean(const Sizes& s, std::uint64_t seed, Mode mode) {
  apps::OceanParams p;
  p.n = s.ocean_n;
  p.iters = s.ocean_iters;
  p.hot = 100.0 + static_cast<double>(seed % 64);
  auto m = machine(32, seed, mode);
  const bool ref = mode == Mode::kReference;
  if (ref) {
    m.window = m.net.wire_latency;
  } else {
    m.backend = sim::Backend::kParallel;
    m.workers = 4;
  }
  const auto r = apps::run_ocean(
      p, m,
      ref ? runtime::ProtocolKind::kStache : runtime::ProtocolKind::kPredictive,
      /*directives=*/!ref);
  return from_report(r.report, r.checksum);
}

RunOut run_workload(Workload w, const Sizes& s, std::uint64_t seed,
                    Mode mode) {
  const auto t0 = Clock::now();
  RunOut o;
  switch (w) {
    case Workload::kBarnes: o = run_barnes(s, seed, mode); break;
    case Workload::kRanker: o = run_ranker(s, seed, mode); break;
    case Workload::kStream: o = run_stream(s, seed, mode); break;
    case Workload::kOcean: o = run_ocean(s, seed, mode); break;
  }
  o.setup_s = seconds_since(t0) - o.host.run_wall_s;
  return o;
}

// ---- Child processes -----------------------------------------------------------

template <typename T>
struct Child {
  bool exited = false;  // exit code 0 and a complete result
  double wall_s = 0.0;  // fork to reaped, as the parent saw it
  double rss_mib = 0.0;
  T out{};
};

// Runs fn() in a forked child and returns its result with the child's wall
// time and peak RSS. T must be trivially copyable: it crosses a pipe.
template <typename T, typename Fn>
Child<T> in_child(Fn&& fn) {
  static_assert(std::is_trivially_copyable_v<T>);
  int fds[2];
  PRESTO_CHECK(pipe(fds) == 0, "pipe failed: errno " << errno);
  std::fflush(stdout);
  std::fflush(stderr);
  const auto t0 = Clock::now();
  const pid_t pid = fork();
  PRESTO_CHECK(pid >= 0, "fork failed: errno " << errno);
  if (pid == 0) {
    close(fds[0]);
    const T out = fn();
    const char* p = reinterpret_cast<const char*>(&out);
    std::size_t left = sizeof out;
    while (left > 0) {
      const ssize_t k = write(fds[1], p, left);
      if (k < 0 && errno == EINTR) continue;
      if (k <= 0) _exit(3);
      p += k;
      left -= static_cast<std::size_t>(k);
    }
    _exit(0);
  }
  close(fds[1]);
  Child<T> c;
  char* p = reinterpret_cast<char*>(&c.out);
  std::size_t got = 0;
  while (got < sizeof c.out) {
    const ssize_t k = read(fds[0], p + got, sizeof c.out - got);
    if (k < 0 && errno == EINTR) continue;
    if (k <= 0) break;
    got += static_cast<std::size_t>(k);
  }
  close(fds[0]);
  int status = 0;
  rusage ru{};
  while (wait4(pid, &status, 0, &ru) < 0) {
    PRESTO_CHECK(errno == EINTR, "wait4 failed: errno " << errno);
  }
  c.wall_s = seconds_since(t0);
  c.rss_mib = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
  c.exited = got == sizeof c.out && WIFEXITED(status) &&
             WEXITSTATUS(status) == 0;
  return c;
}

// ---- Unit-cost probes ------------------------------------------------------------

// Engine heap depths probed: 1 (windowed lanes), 4 and 32 (the single-lane
// workloads' machine widths).
constexpr int kEngineDepths[] = {1, 4, 32};
constexpr int kNumEngineDepths = sizeof kEngineDepths / sizeof kEngineDepths[0];

// Operations one miss or one presend block performs in the other layers.
struct OpMix {
  double events = 0.0;
  double switches = 0.0;
  double msgs = 0.0;
  double accesses = 0.0;
};

struct UnitCosts {
  double engine_ns_per_event[kNumEngineDepths] = {};
  double fiber_ns_per_switch = 0.0;
  double net_ns_per_msg = 0.0;
  double mem_ns_per_access = 0.0;
  // A Stache remote miss and a presend block are timed whole, their engine
  // events, switches, messages and accesses included; the mixes count those
  // operations so the budget does not charge them twice.
  double proto_ns_per_miss = 0.0;
  double proto_ns_per_presend_block = 0.0;
  OpMix miss_mix;
  OpMix presend_mix;
  double parallel_ns_per_window = 0.0;
  double trace_ns_per_event = 0.0;
};

// Median of the samples, the mean of the middle two for an even count (as
// Python's statistics.median).
double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double engine_ns(const UnitCosts& u, int depth) {
  int i = 0;
  while (i + 1 < kNumEngineDepths && kEngineDepths[i] != depth) ++i;
  PRESTO_CHECK(kEngineDepths[i] == depth,
               "engine depth " << depth << " was not probed");
  return u.engine_ns_per_event[i];
}

// The operations of a probe run per unit of `per`, less `minus_n` units of
// `minus` (the presend probe's first-round misses).
OpMix mix_of(const probes::RunCounts& rc, double per, double minus_n = 0.0,
             const OpMix& minus = {}) {
  auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  return {(d(rc.events) - minus_n * minus.events) / per,
          (d(rc.handoffs) - minus_n * minus.switches) / per,
          (d(rc.msgs) - minus_n * minus.msgs) / per,
          (d(rc.accesses) - minus_n * minus.accesses) / per};
}

// Each probe runs `kProbeReps` times; the median is reported. `scale`
// divides every operation count (--quick).
UnitCosts measure_unit_costs(std::int64_t scale) {
  constexpr int kProbeReps = 5;
  UnitCosts u;
  auto med = [&](auto&& probe) {
    std::vector<double> v;
    for (int i = 0; i < kProbeReps; ++i) v.push_back(probe());
    return median(std::move(v));
  };
  for (int i = 0; i < kNumEngineDepths; ++i)
    u.engine_ns_per_event[i] = med([&] {
      return probes::engine_ns_per_event(1'000'000 / scale, kEngineDepths[i]);
    });
  u.fiber_ns_per_switch =
      med([&] { return probes::fiber_ns_per_switch(4'000'000 / scale); });
  u.net_ns_per_msg =
      med([&] { return probes::net_ns_per_msg(1'000'000 / scale); });
  u.mem_ns_per_access =
      med([&] { return probes::mem_ns_per_access(8'000'000 / scale); });
  // The counts repeat exactly, so the mixes come from the last probe run.
  probes::RunCounts rc;
  u.proto_ns_per_miss = med([&] {
    rc = probes::stache_misses(40'000 / scale);
    return rc.run_s * 1e9 / static_cast<double>(rc.faults);
  });
  u.miss_mix = mix_of(rc, static_cast<double>(rc.faults));
  u.proto_ns_per_presend_block = med([&] {
    rc = probes::presend_blocks(512, static_cast<int>(64 / scale));
    return (rc.run_s * 1e9 -
            static_cast<double>(rc.faults) * u.proto_ns_per_miss) /
           static_cast<double>(rc.presend_blocks);
  });
  u.presend_mix = mix_of(rc, static_cast<double>(rc.presend_blocks),
                         static_cast<double>(rc.faults), u.miss_mix);
  u.parallel_ns_per_window =
      med([&] { return probes::parallel_ns_per_window(200'000 / scale); });
  u.trace_ns_per_event =
      med([&] { return probes::trace_ns_per_event(1'000'000 / scale); });
  return u;
}

// ---- Statistics and metrics --------------------------------------------------------

// An end-to-end metric's value is the median of the run's reps, reported
// with min, max and n. With the 5 to 10 reps of a run no percentile above
// the median has ten samples beyond it.
struct Stat {
  double median = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::vector<double> samples;
};

struct EndToEnd {
  const char* name;
  const char* unit;
  const char* better;
};

// failed_frac is 0 on a healthy run, so the one-line result carries it as
// attempted/failed instead of as a metric.
constexpr EndToEnd kEndToEnd[] = {
    {"wall_s", "s", "lower"},
    {"accesses_per_s", "accesses/s", "higher"},
    {"setup_s", "s", "lower"},
    {"peak_rss_mb", "MiB", "lower"},
    {"failed_frac", "fraction", "lower"},
};
constexpr int kNumEndToEnd = sizeof kEndToEnd / sizeof kEndToEnd[0];

Stat stat_of(std::vector<double> v) {
  Stat s;
  s.samples = v;
  if (v.empty()) return s;
  s.median = median(v);
  s.min = *std::min_element(v.begin(), v.end());
  s.max = *std::max_element(v.begin(), v.end());
  return s;
}

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

// One term of the host-cost budget: a layer's operation count times the
// unit cost its probe measured.
struct BudgetTerm {
  const char* layer;
  const char* ops;
  double count;
  double ns_per_op;
  double seconds() const { return count * ns_per_op * 1e-9; }
};

// Everything measured for one workload in this invocation.
struct WorkloadRun {
  WorkloadInfo info;
  std::vector<Child<RunOut>> reps;
  // Child runs checked (reference, timed reps, traced pass) and failed.
  int attempted = 0;
  int failed = 0;
  std::vector<std::string> failures;
  double reference = 0.0;  // checksum every run must match
  bool have_traced = false;
  Child<RunOut> traced;
  Stat e2e[kNumEndToEnd];
  std::vector<Metric> layers;  // per-layer metrics (traced invocations)
  std::vector<BudgetTerm> budget;
  double run_s = 0.0;  // the run time the budget explains
};

bool checksum_matches(Workload w, double got, double want) {
  const double tol = checksum_tolerance(w) * std::fabs(want);
  return std::fabs(got - want) <= tol;
}

// Checks one child run; returns an empty string when it passes.
std::string check_run(const WorkloadRun& wr, const Child<RunOut>& c,
                      const RunOut* first) {
  char buf[256];
  if (!c.exited) return "child process failed";
  if (!c.out.ok) return "workload output check failed";
  if (!checksum_matches(wr.info.id, c.out.checksum, wr.reference)) {
    std::snprintf(buf, sizeof buf, "checksum %.17g, expected %.17g",
                  c.out.checksum, wr.reference);
    return buf;
  }
  if (first != nullptr && !same_simulation(c.out, *first))
    return "simulated counters differ from the first rep";
  return "";
}

// Counts one checked child run; `why` is empty when it passed.
void tally(WorkloadRun& wr, const std::string& label, const std::string& why) {
  ++wr.attempted;
  if (why.empty()) return;
  ++wr.failed;
  std::fprintf(stderr, "presto_bench: %s: %s: %s\n", wr.info.name,
               label.c_str(), why.c_str());
  wr.failures.push_back(label + ": " + why);
}

// Median of the untraced reps' value of `f`.
template <typename F>
double rep_median(const WorkloadRun& wr, F&& f) {
  std::vector<double> v;
  for (const auto& c : wr.reps)
    if (c.exited) v.push_back(f(c));
  return median(std::move(v));
}

void compute_end_to_end(WorkloadRun& wr) {
  std::vector<double> wall, aps, setup, rss;
  for (const auto& c : wr.reps) {
    if (!c.exited) continue;
    wall.push_back(c.wall_s);
    aps.push_back(static_cast<double>(c.out.accesses) / c.out.host.run_wall_s);
    setup.push_back(c.out.setup_s);
    rss.push_back(c.rss_mib);
  }
  const std::vector<double>* samples[] = {&wall, &aps, &setup, &rss};
  for (int i = 0; i < 4; ++i) wr.e2e[i] = stat_of(*samples[i]);
  wr.e2e[4] = stat_of({wr.attempted == 0 ? 1.0
                                         : static_cast<double>(wr.failed) /
                                               static_cast<double>(wr.attempted)});
}

// Per-layer counts, unit costs, the budget and the traced pass's model
// attribution. Counts are deterministic, so any exited rep gives them; the
// budget explains the untraced reps' median run time.
void compute_layers(WorkloadRun& wr, const UnitCosts& u) {
  const Child<RunOut>* any = nullptr;
  for (const auto& c : wr.reps)
    if (c.exited) any = &c;
  if (any == nullptr) return;
  const RunOut& o = any->out;
  const stats::HostCounters& h = o.host;
  const double run_s = rep_median(
      wr, [](const Child<RunOut>& c) { return c.out.host.run_wall_s; });
  // Window-pool time as a share of run time (0 off the parallel backend).
  auto pct_of_run = [&](std::uint64_t stats::HostCounters::* ns) {
    return rep_median(wr, [&](const Child<RunOut>& c) {
      return 100.0 * static_cast<double>(c.out.host.*ns) * 1e-9 /
             c.out.host.run_wall_s;
    });
  };
  auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  const double ns_per_event = engine_ns(u, wr.info.heap_depth);
  auto& L = wr.layers;
  L = {
      {"sim.engine.events", "count", d(h.events)},
      {"sim.engine.ns_per_event", "ns", ns_per_event},
      {"sim.fiber.handoffs", "count", d(h.handoffs)},
      {"sim.fiber.direct_resumes", "count", d(h.direct_resumes)},
      {"sim.fiber.ns_per_switch", "ns", u.fiber_ns_per_switch},
      {"net.msgs", "count", d(o.msgs)},
      {"net.bytes", "bytes", d(o.bytes)},
      {"net.ns_per_msg", "ns", u.net_ns_per_msg},
      {"mem.accesses", "count", d(o.accesses)},
      {"mem.faults", "count", d(o.faults)},
      {"mem.local_hit_pct", "%", o.local_hit_pct},
      {"mem.ns_per_access", "ns", u.mem_ns_per_access},
      {"proto.dir_probes", "count", d(o.dir_probes)},
      {"proto.sched_lookups", "count", d(o.sched_lookups)},
      {"proto.presend_blocks", "count", d(o.presend_blocks)},
      {"proto.ns_per_miss", "ns", u.proto_ns_per_miss},
      {"proto.ns_per_presend_block", "ns", u.proto_ns_per_presend_block},
      {"sim.parallel.windows", "count", d(h.windows)},
      {"sim.parallel.drain_pct", "%",
       pct_of_run(&stats::HostCounters::win_drain_ns)},
      {"sim.parallel.boundary_pct", "%",
       pct_of_run(&stats::HostCounters::win_boundary_ns)},
      {"sim.parallel.barrier_wait_pct", "%",
       pct_of_run(&stats::HostCounters::win_barrier_wait_ns)},
      {"sim.parallel.park_pct", "%",
       pct_of_run(&stats::HostCounters::win_park_ns)},
      {"sim.parallel.releases", "count", d(h.win_releases)},
      {"sim.parallel.serial_windows", "count", d(h.win_serial_windows)},
      {"sim.parallel.adopted_drains", "count", d(h.win_adopted_drains)},
      {"sim.parallel.ns_per_window", "ns", u.parallel_ns_per_window},
  };

  // Budget: count x unit cost per layer. Misses and presend blocks are
  // charged whole, so the other layers are charged only for the operations
  // those terms do not already include. A windowed handoff is two fiber
  // switches (drain loop -> processor -> drain loop), a legacy one is one.
  const double misses = d(o.faults);
  const double blocks = d(o.presend_blocks);
  auto other = [&](double total, double OpMix::* op) {
    return std::max(0.0, total - misses * (u.miss_mix.*op) -
                             blocks * (u.presend_mix.*op));
  };
  const double switches = d(h.handoffs) * (h.windows > 0 ? 2.0 : 1.0);
  wr.run_s = run_s;
  wr.budget = {
      {"proto", "misses", misses, u.proto_ns_per_miss},
      {"proto", "presend blocks", blocks, u.proto_ns_per_presend_block},
      {"engine", "other events", other(d(h.events), &OpMix::events),
       ns_per_event},
      {"fiber", "other switches", other(switches, &OpMix::switches),
       u.fiber_ns_per_switch},
      {"net", "other msgs", other(d(o.msgs), &OpMix::msgs), u.net_ns_per_msg},
      {"mem", "other accesses", other(d(o.accesses), &OpMix::accesses),
       u.mem_ns_per_access},
      {"parallel", "windows", d(h.windows), u.parallel_ns_per_window},
  };
  L.push_back({"budget.run_s", "s", run_s});
  double explained = 0.0;
  for (const BudgetTerm& t : wr.budget) {
    explained += t.seconds();
    const std::string name = std::string("budget.") + t.layer + "_pct";
    if (L.back().name == name)  // a layer's second term (proto)
      L.back().value += 100.0 * t.seconds() / run_s;
    else
      L.push_back({name, "%", 100.0 * t.seconds() / run_s});
  }
  L.push_back({"budget.residual_pct", "%", 100.0 * (run_s - explained) / run_s});
  L.push_back({"budget.explained_pct", "%", 100.0 * explained / run_s});

  if (!wr.have_traced || !wr.traced.exited) return;
  const RunOut& t = wr.traced.out;
  const double presend_resolved =
      d(t.presend_hits + t.presend_waste + t.presend_unused);
  L.push_back({"trace.events", "count", d(t.trace_events)});
  L.push_back({"trace.dropped", "count", d(t.trace_dropped)});
  L.push_back({"trace.overhead_pct", "%",
               100.0 * (t.host.run_wall_s / run_s - 1.0)});
  L.push_back({"trace.ns_per_event", "ns", u.trace_ns_per_event});
  L.push_back({"model.exec_s", "sim_s", static_cast<double>(t.exec) * 1e-9});
  L.push_back({"model.remote_wait_s", "sim_s",
               static_cast<double>(t.remote_wait) * 1e-9});
  L.push_back({"model.miss_cold", "count", d(t.miss_cold)});
  L.push_back({"model.miss_invalidation", "count", d(t.miss_invalidation)});
  L.push_back({"model.miss_merge", "count", d(t.miss_merge)});
  L.push_back({"model.presend_useful_ratio", "ratio",
               presend_resolved > 0 ? d(t.presend_hits) / presend_resolved
                                    : 0.0});
}

// ---- Output ------------------------------------------------------------------------

std::string fmt(double v) {
  char buf[64];
  const double a = std::fabs(v);
  if (v == std::floor(v) && a < 1e15)
    std::snprintf(buf, sizeof buf, "%.0f", v);
  else if (a >= 1e6 || (a > 0 && a < 1e-3))
    std::snprintf(buf, sizeof buf, "%.4e", v);
  else
    std::snprintf(buf, sizeof buf, "%.4f", v);
  return buf;
}

void print_workload(const WorkloadRun& wr) {
  std::printf("\n== %s ==  (%zu timed reps; %d of %d checked runs failed)\n",
              wr.info.name, wr.reps.size(), wr.failed, wr.attempted);
  util::Table e2e(
      {"end-to-end metric", "unit", "median", "min", "max", "n"});
  for (int i = 0; i < kNumEndToEnd; ++i)
    e2e.add_row({kEndToEnd[i].name, kEndToEnd[i].unit, fmt(wr.e2e[i].median),
                 fmt(wr.e2e[i].min), fmt(wr.e2e[i].max),
                 std::to_string(wr.e2e[i].samples.size())});
  std::printf("%s", e2e.to_string().c_str());
  if (wr.have_traced)
    std::printf("traced pass: run %.3f s, peak RSS %.1f MiB\n",
                wr.traced.out.host.run_wall_s, wr.traced.rss_mib);
  if (wr.layers.empty()) return;
  util::Table layers({"per-layer metric", "unit", "value"});
  for (const Metric& m : wr.layers)
    if (m.name.rfind("budget.", 0) != 0)
      layers.add_row({m.name, m.unit, fmt(m.value)});
  std::printf("%s", layers.to_string().c_str());
  util::Table budget({"budget layer", "operations", "count", "ns/op", "s",
                      "% of run"});
  double explained = 0.0;
  for (const BudgetTerm& t : wr.budget) {
    explained += t.seconds();
    budget.add_row({t.layer, t.ops, fmt(std::round(t.count)), fmt(t.ns_per_op),
                    fmt(t.seconds()), fmt(100.0 * t.seconds() / wr.run_s)});
  }
  budget.add_row({"residual", "", "", "", fmt(wr.run_s - explained),
                  fmt(100.0 * (wr.run_s - explained) / wr.run_s)});
  budget.add_row({"run", "median of reps", "", "", fmt(wr.run_s), "100"});
  std::printf("%s", budget.to_string().c_str());
}

// JSON number: finite values with all their digits, null otherwise.
std::string jnum(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string jstr(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) < 0x20) continue;
    out += ch;
  }
  return out + "\"";
}

std::string utc_stamp(const char* format) {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&now, &tm);
  char buf[64];
  std::strftime(buf, sizeof buf, format, &tm);
  return buf;
}

struct Options {
  std::uint64_t seed = kDefaultSeed;
  int reps = 5;          // timed reps per workload, at least
  double seconds = 0.0;  // when > 0, more reps until this much time passed
  bool traced = true;    // traced pass + probes + per-layer metrics
  bool quick = false;
  std::string record_dir;
};

void write_record(const Options& opt, const Sizes& s,
                  const std::vector<WorkloadRun>& runs, const UnitCosts& u,
                  bool have_units, const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "presto_bench: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"schema\": \"presto_bench/1\",\n");
  std::fprintf(f, "  \"git_sha\": %s,\n  \"git_dirty\": %s,\n",
               jstr(PRESTO_BENCH_GIT_SHA).c_str(),
               PRESTO_BENCH_GIT_DIRTY ? "true" : "false");
  std::fprintf(f, "  \"build_type\": %s,\n  \"compiler\": %s,\n",
               jstr(PRESTO_BENCH_BUILD_TYPE).c_str(),
               jstr(PRESTO_BENCH_COMPILER).c_str());
  std::fprintf(f, "  \"host_cpus\": %u,\n  \"utc\": %s,\n",
               std::thread::hardware_concurrency(),
               jstr(utc_stamp("%Y-%m-%dT%H:%M:%SZ")).c_str());
  std::fprintf(f,
               "  \"seed\": %llu,\n  \"min_reps\": %d,\n  \"seconds\": %s,\n"
               "  \"quick\": %s,\n  \"traced\": %s,\n",
               static_cast<unsigned long long>(opt.seed), opt.reps,
               jnum(opt.seconds).c_str(), opt.quick ? "true" : "false",
               opt.traced ? "true" : "false");
  std::fprintf(f,
               "  \"sizes\": {\"barnes_bodies\": %zu, \"barnes_steps\": %d, "
               "\"ranker_vertices\": %zu, \"ranker_iters\": %d, "
               "\"stream_blocks\": %d, \"stream_rounds\": %d, \"ocean_n\": "
               "%zu, \"ocean_iters\": %d},\n",
               s.barnes_bodies, s.barnes_steps, s.ranker_vertices,
               s.ranker_iters, s.stream_blocks, s.stream_rounds, s.ocean_n,
               s.ocean_iters);
  if (have_units) {
    std::fprintf(f, "  \"unit_costs_ns\": {");
    for (int i = 0; i < kNumEngineDepths; ++i)
      std::fprintf(f, "\"sim.engine.ns_per_event.depth%d\": %s, ",
                   kEngineDepths[i], jnum(u.engine_ns_per_event[i]).c_str());
    std::fprintf(
        f,
        "\"sim.fiber.ns_per_switch\": %s, \"net.ns_per_msg\": %s, "
        "\"mem.ns_per_access\": %s, \"proto.ns_per_miss\": %s, "
        "\"proto.ns_per_presend_block\": %s, "
        "\"sim.parallel.ns_per_window\": %s, \"trace.ns_per_event\": %s},\n",
        jnum(u.fiber_ns_per_switch).c_str(), jnum(u.net_ns_per_msg).c_str(),
        jnum(u.mem_ns_per_access).c_str(), jnum(u.proto_ns_per_miss).c_str(),
        jnum(u.proto_ns_per_presend_block).c_str(),
        jnum(u.parallel_ns_per_window).c_str(),
        jnum(u.trace_ns_per_event).c_str());
    auto mix = [](const OpMix& m) {
      return "{\"events\": " + jnum(m.events) + ", \"switches\": " +
             jnum(m.switches) + ", \"msgs\": " + jnum(m.msgs) +
             ", \"accesses\": " + jnum(m.accesses) + "}";
    };
    std::fprintf(f, "  \"ops_per_miss\": %s,\n  \"ops_per_presend_block\": %s,\n",
                 mix(u.miss_mix).c_str(), mix(u.presend_mix).c_str());
  }
  std::fprintf(f, "  \"workloads\": {\n");
  for (std::size_t w = 0; w < runs.size(); ++w) {
    const WorkloadRun& wr = runs[w];
    std::fprintf(f, "    %s: {\n", jstr(wr.info.name).c_str());
    std::fprintf(f,
                 "      \"attempted\": %d, \"failed\": %d, \"checksum\": %s,\n",
                 wr.attempted, wr.failed, jnum(wr.reference).c_str());
    std::fprintf(f, "      \"failures\": [");
    for (std::size_t i = 0; i < wr.failures.size(); ++i)
      std::fprintf(f, "%s%s", i ? ", " : "", jstr(wr.failures[i]).c_str());
    std::fprintf(f, "],\n      \"end_to_end\": {\n");
    for (int i = 0; i < kNumEndToEnd; ++i) {
      const Stat& st = wr.e2e[i];
      std::string samples;
      for (std::size_t k = 0; k < st.samples.size(); ++k)
        samples += (k ? ", " : "") + jnum(st.samples[k]);
      std::fprintf(f,
                   "        %s: {\"unit\": %s, \"better\": %s, \"median\": %s, "
                   "\"min\": %s, \"max\": %s, \"n\": %zu, \"samples\": [%s]}%s\n",
                   jstr(kEndToEnd[i].name).c_str(),
                   jstr(kEndToEnd[i].unit).c_str(),
                   jstr(kEndToEnd[i].better).c_str(),
                   jnum(st.median).c_str(), jnum(st.min).c_str(),
                   jnum(st.max).c_str(), st.samples.size(), samples.c_str(),
                   i + 1 < kNumEndToEnd ? "," : "");
    }
    std::fprintf(f, "      },\n      \"per_layer\": {");
    for (std::size_t i = 0; i < wr.layers.size(); ++i)
      std::fprintf(f, "%s\n        %s: {\"unit\": %s, \"value\": %s}",
                   i ? "," : "", jstr(wr.layers[i].name).c_str(),
                   jstr(wr.layers[i].unit).c_str(),
                   jnum(wr.layers[i].value).c_str());
    std::fprintf(f, "\n      },\n      \"budget\": [");
    double explained = 0.0;
    for (std::size_t i = 0; i < wr.budget.size(); ++i) {
      const BudgetTerm& t = wr.budget[i];
      explained += t.seconds();
      std::fprintf(f,
                   "%s\n        {\"layer\": %s, \"operations\": %s, \"count\": "
                   "%s, \"ns_per_op\": %s, \"s\": %s}",
                   i ? "," : "", jstr(t.layer).c_str(), jstr(t.ops).c_str(),
                   jnum(t.count).c_str(), jnum(t.ns_per_op).c_str(),
                   jnum(t.seconds()).c_str());
    }
    std::fprintf(f,
                 "\n      ],\n      \"budget.run_s\": %s, \"budget.residual_s\": "
                 "%s\n    }%s\n",
                 jnum(wr.run_s).c_str(), jnum(wr.run_s - explained).c_str(),
                 w + 1 < runs.size() ? "," : "");
  }
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  Options opt;
  opt.quick = cli.get_bool("quick");
  const std::string only = cli.get("workload", "");
  const std::int64_t seed = cli.get_int("seed", static_cast<std::int64_t>(kDefaultSeed));
  PRESTO_CHECK(seed >= 0, "--seed must be >= 0");
  opt.seed = static_cast<std::uint64_t>(seed);
  opt.seconds = cli.get_double("seconds", 0.0);
  PRESTO_CHECK(opt.seconds >= 0.0 && opt.seconds <= 120.0,
               "--seconds must be in [0, 120]");
  opt.reps = opt.quick ? 1 : 5;
  const std::int64_t trace = cli.get_int("trace", 1);
  PRESTO_CHECK(trace == 0 || trace == 1, "--trace must be 0 or 1");
  opt.traced = trace == 1;
  opt.record_dir = cli.get("record", "results/benchmark");
  cli.reject_unknown();

  std::vector<WorkloadRun> runs;
  for (const WorkloadInfo& wi : kWorkloads)
    if (only.empty() || only == wi.name) runs.emplace_back().info = wi;
  PRESTO_CHECK(!runs.empty(), "--workload: unknown workload '"
                                  << only
                                  << "' (expected barnes_opt32, "
                                     "ranker_stache, presend_stream or "
                                     "ocean_par4)");
  const Sizes sizes = sizes_for(opt.quick);
  std::string length =
      std::to_string(opt.reps) + (opt.reps == 1 ? " rep" : " reps");
  if (opt.seconds > 0) length += ", more until " + fmt(opt.seconds) + " s";
  std::printf("presto_bench: %zu workload(s), seed %llu, %s, %s\n",
              runs.size(), static_cast<unsigned long long>(opt.seed),
              length.c_str(), opt.traced ? "traced pass + probes" : "untraced");

  // Reference checksum each run must match: the stream's closed form, or a
  // run in a second configuration that must compute the same answer (and,
  // at the default seed, the pinned value).
  for (WorkloadRun& wr : runs) {
    const Workload w = wr.info.id;
    std::string why;
    if (w == Workload::kStream) {
      wr.reference = stream_expected(sizes, opt.seed);
    } else {
      const auto ref = in_child<RunOut>(
          [&] { return run_workload(w, sizes, opt.seed, Mode::kReference); });
      wr.reference = ref.out.checksum;
      if (!ref.exited || !ref.out.ok) {
        why = "run failed";
        wr.reference = std::numeric_limits<double>::quiet_NaN();
      }
    }
    if (why.empty() && opt.seed == kDefaultSeed) {
      const Pin& pin = kPins[static_cast<std::size_t>(w)];
      const double want = opt.quick ? pin.quick : pin.full;
      if (!checksum_matches(w, wr.reference, want)) {
        char buf[160];
        std::snprintf(buf, sizeof buf, "checksum %.17g, pinned %.17g",
                      wr.reference, want);
        why = buf;
      }
    }
    tally(wr, "reference", why);
  }

  // Timed reps, round-robin across workloads.
  const auto t0 = Clock::now();
  for (int rep = 0;; ++rep) {
    if (rep >= opt.reps && seconds_since(t0) >= opt.seconds) break;
    for (WorkloadRun& wr : runs) {
      const Workload w = wr.info.id;
      wr.reps.push_back(in_child<RunOut>(
          [&] { return run_workload(w, sizes, opt.seed, Mode::kTimed); }));
      const RunOut* first =
          wr.reps.front().exited ? &wr.reps.front().out : nullptr;
      tally(wr, "rep " + std::to_string(rep + 1),
            check_run(wr, wr.reps.back(), first));
    }
  }

  int attempted = 0;
  int failed = 0;
  UnitCosts units;
  if (opt.traced) {
    for (WorkloadRun& wr : runs) {
      const Workload w = wr.info.id;
      wr.have_traced = true;
      wr.traced = in_child<RunOut>(
          [&] { return run_workload(w, sizes, opt.seed, Mode::kTraced); });
      const RunOut* first = nullptr;
      for (const auto& c : wr.reps)
        if (c.exited && first == nullptr) first = &c.out;
      std::string why = check_run(wr, wr.traced, first);
      if (why.empty() && wr.traced.out.trace_dropped > 0)
        why = "dropped " + std::to_string(wr.traced.out.trace_dropped) +
              " trace events";
      tally(wr, "traced pass", why);
    }
    const auto probe = in_child<UnitCosts>(
        [&] { return measure_unit_costs(opt.quick ? 8 : 1); });
    units = probe.out;
    ++attempted;
    if (!probe.exited) {
      std::fprintf(stderr, "presto_bench: unit-cost probes failed\n");
      ++failed;
    }
  }

  for (WorkloadRun& wr : runs) {
    compute_end_to_end(wr);
    if (opt.traced) compute_layers(wr, units);
    print_workload(wr);
    attempted += wr.attempted;
    failed += wr.failed;
  }
  const bool correct = failed == 0;

  if (!opt.record_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(opt.record_dir, ec);
    const std::string sha = PRESTO_BENCH_GIT_SHA;
    const std::string path = opt.record_dir + "/" + sha.substr(0, 12) + "-" +
                             utc_stamp("%Y%m%dT%H%M%SZ") + ".json";
    write_record(opt, sizes, runs, units, opt.traced, path);
  }

  // One-line result: with --trace=1 the per-layer metrics, else the
  // end-to-end ones (failed_frac travels as attempted/failed). With several
  // workloads every name is prefixed by its workload.
  std::string metrics;
  for (const WorkloadRun& wr : runs) {
    const std::string prefix =
        runs.size() > 1 ? std::string(wr.info.name) + "." : "";
    auto add = [&](const std::string& name, const std::string& unit,
                   double v) {
      metrics += (metrics.empty() ? "" : ", ") + jstr(prefix + name) +
                 ": {\"value\": " + jnum(v) + ", \"unit\": " + jstr(unit) + "}";
    };
    if (opt.traced) {
      for (const Metric& m : wr.layers) add(m.name, m.unit, m.value);
    } else {
      for (int i = 0; i + 1 < kNumEndToEnd; ++i)
        add(kEndToEnd[i].name, kEndToEnd[i].unit, wr.e2e[i].median);
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false", attempted, failed, metrics.c_str());
  return correct ? 0 : 1;
}
