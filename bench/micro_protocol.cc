// Micro-benchmarks (google-benchmark) of the protocol building blocks: the
// Stache remote-miss round trip, the predictive presend per-block cost with
// and without coalescing, schedule recording, barriers, and shared locks.
// Reported times are *host* costs of simulating each operation, program
// setup included; the simulated (virtual) cost is printed as a counter.
#include <benchmark/benchmark.h>

#include "runtime/aggregate.h"
#include "runtime/lock.h"
#include "runtime/system.h"

using namespace presto;

namespace {

runtime::MachineConfig tiny(int nodes, std::uint32_t block = 32) {
  return runtime::MachineConfig::cm5_blizzard(nodes, block);
}

// Every bench below times whole simulated programs: each iteration builds a
// fresh System and runs the program from scratch, so the host time per item
// includes setup. The simulated cost of one item is reported as a counter.

// Remote read misses: the producer rewrites a block every round and a remote
// consumer misses on it.
void BM_StacheRemoteMiss(benchmark::State& state) {
  constexpr int kMisses = 64;
  sim::Time total_wait = 0;
  for (auto _ : state) {
    runtime::System sys(tiny(3), runtime::ProtocolKind::kStache);
    const auto a = sys.space().alloc_on_node(0, 64);
    sys.run([&](runtime::NodeCtx& c) {
      for (int i = 0; i < kMisses; ++i) {
        if (c.id() == 0) c.write<int>(a, i);
        c.barrier();
        if (c.id() == 1) benchmark::DoNotOptimize(c.read<int>(a));
        c.barrier();
      }
      if (c.id() == 1) total_wait = c.counters().remote_wait;
    });
  }
  state.SetItemsProcessed(state.iterations() * kMisses);
  state.counters["sim_miss_us"] =
      benchmark::Counter(sim::to_micros(total_wait) / kMisses);
}

void BM_PresendPerBlock(benchmark::State& state) {
  const bool coalesce = state.range(0) != 0;
  constexpr int kBlocks = 256;
  constexpr int kRounds = 6;
  sim::Time presend = 0;
  std::uint64_t pushed = 0;
  std::uint64_t msgs = 0;
  for (auto _ : state) {
    runtime::System sys(tiny(2), runtime::ProtocolKind::kPredictive);
    sys.predictive()->set_coalescing(coalesce);
    const auto a = sys.space().alloc_on_node(0, kBlocks * 32);
    sys.run([&](runtime::NodeCtx& c) {
      for (int r = 0; r < kRounds; ++r) {
        c.phase(0);
        if (c.id() == 0)
          for (int b = 0; b < kBlocks; ++b) c.write<int>(a + b * 32, r + b);
        c.barrier();
        c.phase(1);
        if (c.id() == 1)
          for (int b = 0; b < kBlocks; ++b)
            benchmark::DoNotOptimize(c.read<int>(a + b * 32));
        c.barrier();
      }
      if (c.id() == 0) {
        presend = c.counters().presend;
        pushed = c.counters().presend_blocks_sent;
      }
    });
    msgs = sys.recorder().node(0).presend_msgs;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(pushed));
  state.counters["sim_us_per_block"] = benchmark::Counter(
      sim::to_micros(presend) / std::max<double>(1.0, static_cast<double>(pushed)));
  state.counters["msgs"] = benchmark::Counter(static_cast<double>(msgs));
}

void BM_BarrierLatency(benchmark::State& state) {
  const int nodes = static_cast<int>(state.range(0));
  constexpr int kRounds = 64;
  sim::Time exec = 0;
  for (auto _ : state) {
    runtime::System sys(tiny(nodes), runtime::ProtocolKind::kStache);
    sys.run([&](runtime::NodeCtx& c) {
      for (int r = 0; r < kRounds; ++r) c.barrier();
      if (c.id() == 0) exec = c.proc().now();
    });
  }
  state.SetItemsProcessed(state.iterations() * kRounds);
  state.counters["sim_us_per_barrier"] =
      benchmark::Counter(sim::to_micros(exec) / kRounds);
}

void BM_SharedLockHandoff(benchmark::State& state) {
  constexpr int kNodes = 4;
  constexpr int kRounds = 32;
  for (auto _ : state) {
    runtime::System sys(tiny(kNodes), runtime::ProtocolKind::kStache);
    auto lock = runtime::SharedLock::create(sys.space(), 0);
    const auto counter = sys.space().alloc_on_node(0, 64);
    sys.run([&](runtime::NodeCtx& c) {
      for (int r = 0; r < kRounds; ++r) {
        lock.acquire(c);
        c.rmw<std::uint64_t>(counter, [](std::uint64_t& v) { ++v; });
        lock.release(c);
        c.barrier();
      }
    });
  }
  state.SetItemsProcessed(state.iterations() * kRounds * kNodes);
}

// Host-side cost of the fine-grain access check fast path.
void BM_AccessCheckFastPath(benchmark::State& state) {
  runtime::System sys(tiny(1), runtime::ProtocolKind::kStache);
  const auto a = sys.space().alloc_on_node(0, 4096);
  auto& space = sys.space();
  space.write_value<int>(0, a, 7);
  int v = 0;
  for (auto _ : state) {
    v += space.read_value<int>(0, a + static_cast<mem::Addr>((v & 63) * 32 % 4096));
    benchmark::DoNotOptimize(v);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

}  // namespace

BENCHMARK(BM_StacheRemoteMiss);
BENCHMARK(BM_PresendPerBlock)->Arg(1)->Arg(0);
BENCHMARK(BM_BarrierLatency)->Arg(2)->Arg(8)->Arg(32);
BENCHMARK(BM_SharedLockHandoff);
BENCHMARK(BM_AccessCheckFastPath);

BENCHMARK_MAIN();
