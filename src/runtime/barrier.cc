#include "runtime/barrier.h"

#include "trace/hooks.h"
#include "util/check.h"

namespace presto::runtime {

BarrierManager::BarrierManager(sim::Engine& engine, stats::Recorder& rec,
                               int nodes, sim::Time latency,
                               sim::Time per_byte)
    : engine_(engine),
      rec_(rec),
      nodes_(nodes),
      latency_(latency),
      per_byte_(per_byte),
      slots_(static_cast<std::size_t>(nodes)) {
  PRESTO_CHECK(engine.windowed(),
               "BarrierManager needs a windowed engine (runtime::System)");
  engine_.set_boundary_op(sim::BoundaryOp::kBarrier,
                          [this] { boundary_scan(); });
}

void BarrierManager::arrive_and_wait(int node, std::size_t bytes) {
  auto& p = engine_.processor(node);
  const sim::Time arrive = p.now();
  // epoch_ only advances at window boundaries, so this read is stable for
  // the whole drain.
  const std::uint64_t my_epoch = epoch_;
  trace::Hooks* const h = engine_.trace_hooks();
  if (h != nullptr) [[unlikely]] h->on_barrier_arrive(node, my_epoch, arrive);
  Slot& s = slots_[static_cast<std::size_t>(node)];
  PRESTO_CHECK(!s.arrived, "node " << node << " re-arrived before release");
  s.arrived = true;
  s.arrive = arrive;
  s.bytes = bytes;
  while (epoch_ == my_epoch) p.block();
  if (h != nullptr) [[unlikely]] h->on_barrier_release(node, my_epoch, p.now());
  rec_.node(node).barrier_wait += p.now() - arrive;
}

void BarrierManager::boundary_scan() {
  for (const Slot& s : slots_)
    if (!s.arrived) return;
  const Slot::Op op = slots_[0].op;
  const std::size_t bytes = slots_[0].bytes;
  sim::Time max_arrive = 0;
  for (const Slot& s : slots_) {
    PRESTO_CHECK(s.op == op && s.bytes == bytes,
                 "mismatched collectives in one epoch");
    if (s.arrive > max_arrive) max_arrive = s.arrive;
  }
  const sim::Time release =
      max_arrive + latency_ + static_cast<sim::Time>(bytes) * per_byte_;
  // Fold contributions in node order: a fixed floating-point combine order.
  switch (op) {
    case Slot::Op::kNone:
      break;
    case Slot::Op::kSum: {
      double acc = slots_[0].scalar;
      for (int n = 1; n < nodes_; ++n)
        acc += slots_[static_cast<std::size_t>(n)].scalar;
      scalar_result_[epoch_ & 1] = acc;
      break;
    }
    case Slot::Op::kMax: {
      double acc = slots_[0].scalar;
      for (int n = 1; n < nodes_; ++n) {
        const double v = slots_[static_cast<std::size_t>(n)].scalar;
        if (v > acc) acc = v;
      }
      scalar_result_[epoch_ & 1] = acc;
      break;
    }
    case Slot::Op::kVec: {
      std::vector<double>& acc = vec_result_[epoch_ & 1];
      acc = slots_[0].vec;
      for (int n = 1; n < nodes_; ++n) {
        const std::vector<double>& v = slots_[static_cast<std::size_t>(n)].vec;
        PRESTO_CHECK(v.size() == acc.size(), "reduce_vec_sum size mismatch");
        for (std::size_t i = 0; i < acc.size(); ++i) acc[i] += v[i];
      }
      break;
    }
  }
  for (Slot& s : slots_) {
    s.arrived = false;
    s.op = Slot::Op::kNone;
    s.vec.clear();
  }
  // Results are published before the epoch advances; parked nodes observe
  // the new epoch only after their boundary-scheduled wake runs.
  ++epoch_;
  for (int n = 0; n < nodes_; ++n) engine_.processor(n).wake(release);
}

void BarrierManager::barrier(int node) { arrive_and_wait(node, 0); }

double BarrierManager::reduce_sum(int node, double v) {
  const std::uint64_t parity = epoch_ & 1;
  Slot& s = slots_[static_cast<std::size_t>(node)];
  s.op = Slot::Op::kSum;
  s.scalar = v;
  arrive_and_wait(node, sizeof(double));
  return scalar_result_[parity];
}

double BarrierManager::reduce_max(int node, double v) {
  const std::uint64_t parity = epoch_ & 1;
  Slot& s = slots_[static_cast<std::size_t>(node)];
  s.op = Slot::Op::kMax;
  s.scalar = v;
  arrive_and_wait(node, sizeof(double));
  return scalar_result_[parity];
}

void BarrierManager::reduce_vec_sum(int node, std::span<double> inout) {
  const std::uint64_t parity = epoch_ & 1;
  Slot& s = slots_[static_cast<std::size_t>(node)];
  s.op = Slot::Op::kVec;
  s.vec.assign(inout.begin(), inout.end());
  arrive_and_wait(node, inout.size() * sizeof(double));
  const auto& result = vec_result_[parity];
  for (std::size_t i = 0; i < inout.size(); ++i) inout[i] = result[i];
}

}  // namespace presto::runtime
