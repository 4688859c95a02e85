// Global barrier and reduction manager, modelling the CM-5 control network
// (hardware barriers and combines in a few microseconds).
//
// All nodes must participate in every collective, in the same order — the
// standard SPMD discipline. Release time is max(arrival) + latency
// (+ payload combine cost for reductions), which naturally exposes load
// imbalance as synchronization time (the effect the paper highlights for
// Adaptive in §5.1).
//
// The engine is windowed (sim/engine.h): arrivals from concurrently-draining
// lanes may not fold into shared accumulators, so each node records its
// arrival time and reduction contribution in a private per-node slot and
// parks; the window-boundary scan (BoundaryOp::kBarrier) detects a complete
// epoch, folds the contributions in node order — a fixed floating-point
// combine order, independent of arrival order and of how lanes were
// partitioned over workers — publishes the result, advances the epoch and
// wakes every node at the release time.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sim/engine.h"
#include "sim/processor.h"
#include "stats/recorder.h"

namespace presto::trace {
class Hooks;
}  // namespace presto::trace

namespace presto::runtime {

class BarrierManager {
 public:
  BarrierManager(sim::Engine& engine, stats::Recorder& rec, int nodes,
                 sim::Time latency, sim::Time per_byte);

  void barrier(int node);
  double reduce_sum(int node, double v);
  double reduce_max(int node, double v);
  // Element-wise sum across nodes; result written back into `inout`.
  void reduce_vec_sum(int node, std::span<double> inout);

  std::uint64_t barriers_completed() const { return epoch_; }

  // Event tracer (trace/tracer.h); null in untraced runs.
  void set_trace_hooks(trace::Hooks* h) { trace_ = h; }

 private:
  // Deferred arrival of one node: written only by the owning node's lane
  // during a window, read and reset only by the boundary scan — the pool's
  // window barrier orders the two.
  struct Slot {
    enum class Op : std::uint8_t { kNone, kSum, kMax, kVec };
    bool arrived = false;
    Op op = Op::kNone;
    sim::Time arrive = 0;
    std::size_t bytes = 0;
    double scalar = 0.0;
    std::vector<double> vec;
  };

  // Generic collective: contribute, wait for the epoch to advance. `bytes`
  // models combine payload through the control network.
  void arrive_and_wait(int node, std::size_t bytes);
  // Window-boundary scan: completes the epoch once every slot has arrived.
  void boundary_scan();

  sim::Engine& engine_;
  stats::Recorder& rec_;
  const int nodes_;
  const sim::Time latency_;
  const sim::Time per_byte_;
  trace::Hooks* trace_ = nullptr;

  std::vector<Slot> slots_;  // [node]

  std::uint64_t epoch_ = 0;
  // Results, double-buffered by epoch parity so the next collective cannot
  // clobber a result before every node consumed it.
  double scalar_result_[2] = {0.0, 0.0};
  std::vector<double> vec_result_[2];
};

}  // namespace presto::runtime
