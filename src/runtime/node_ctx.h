// Per-node application context: the API that C**-compiled code (and our
// hand-written SPMD applications) runs against.
//
// Every shared-memory access goes through the fine-grain tag check (charging
// the Blizzard software check cost) and may fault into the coherence
// protocol. Compute is charged explicitly in flops/ops, and collectives go
// through the control-network barrier manager. The directives (phase(),
// flush_phase(), publish(), cc_add(), cc_flush()) call the protocol's
// virtuals, whose defaults let identical application code run in every
// configuration.
#pragma once

#include <cstdint>
#include <span>

#include "mem/global_space.h"
#include "proto/protocol.h"
#include "runtime/barrier.h"
#include "runtime/machine.h"
#include "sim/processor.h"
#include "stats/recorder.h"
#include "trace/hooks.h"
#include "util/rng.h"

namespace presto::runtime {

class NodeCtx {
 public:
  NodeCtx(int id, const MachineConfig& cfg, sim::Processor& proc,
          mem::GlobalSpace& space, stats::Recorder& rec,
          BarrierManager& barrier, proto::Protocol& protocol);

  int id() const { return id_; }
  int nodes() const { return cfg_.nodes; }
  sim::Processor& proc() { return proc_; }
  mem::GlobalSpace& space() { return space_; }
  proto::Protocol& protocol() { return protocol_; }
  util::Rng& rng() { return rng_; }
  const MachineConfig& machine() const { return cfg_; }

  // ---- Shared-memory access ------------------------------------------------

  template <typename T>
  T read(mem::Addr a) {
    proc_.charge(cfg_.access_check);
    ++rec_.node(id_).shared_reads;
    return space_.read_value<T>(id_, a);
  }
  template <typename T>
  void write(mem::Addr a, const T& v) {
    proc_.charge(cfg_.access_check);
    ++rec_.node(id_).shared_writes;
    space_.write_value<T>(id_, a, v);
  }
  void read_bytes(mem::Addr a, void* out, std::size_t n) {
    proc_.charge(cfg_.access_check);
    ++rec_.node(id_).shared_reads;
    space_.read(id_, a, out, n);
  }
  void write_bytes(mem::Addr a, const void* in, std::size_t n) {
    proc_.charge(cfg_.access_check);
    ++rec_.node(id_).shared_writes;
    space_.write(id_, a, in, n);
  }
  // Atomic read-modify-write on a value that does not straddle blocks.
  template <typename T, typename Fn>
  void rmw(mem::Addr a, Fn&& fn) {
    proc_.charge(cfg_.access_check);
    ++rec_.node(id_).shared_writes;
    space_.rmw(id_, a, sizeof(T),
               [&](void* p) { fn(*static_cast<T*>(p)); });
  }

  // ---- Commutative (reduction) updates --------------------------------------

  // Adds `delta` to the 64-bit word at a, which must lie 8-byte aligned
  // inside a mem::GlobalSpace::set_commutative region. Under the ccached
  // protocol the update is privatized into this node's log (made globally
  // visible by cc_flush); under every other protocol it degrades to an
  // ordinary atomic read-modify-write, so identical application code runs in
  // every configuration.
  void cc_add(mem::Addr a, std::int64_t delta) {
    proc_.charge(cfg_.access_check);
    ++rec_.node(id_).shared_writes;
    protocol_.cc_add(id_, a, delta);
  }
  // Flushes this node's pending commutative updates to their homes. No-op
  // under non-ccached protocols (there is nothing privatized to flush).
  void cc_flush() { protocol_.cc_flush(id_); }

  // ---- Compute cost model ---------------------------------------------------

  void charge(sim::Time t) { proc_.charge(t); }
  void charge_flops(std::int64_t n) { proc_.charge(n * cfg_.flop); }
  void charge_ops(std::int64_t n) { proc_.charge(n * cfg_.op); }

  // ---- Collectives -----------------------------------------------------------

  void barrier() { barrier_.barrier(id_); }
  double reduce_sum(double v) { return barrier_.reduce_sum(id_, v); }
  double reduce_max(double v) { return barrier_.reduce_max(id_, v); }
  void reduce_vec_sum(std::span<double> inout) {
    barrier_.reduce_vec_sum(id_, inout);
  }

  // ---- Directives ------------------------------------------------------------

  // Compiler-placed predictive-protocol phase directives.
  void phase(int phase_id) {
    trace::Hooks* h = proc_.engine().trace_hooks();
    if (h != nullptr) [[unlikely]] h->on_phase_begin(id_, phase_id, proc_.now());
    protocol_.phase_begin(id_, phase_id);
    if (h != nullptr) [[unlikely]] h->on_phase_ready(id_, phase_id, proc_.now());
  }
  void flush_phase(int phase_id) {
    trace::Hooks* h = proc_.engine().trace_hooks();
    if (h != nullptr) [[unlikely]]
      h->on_phase_flush(id_, phase_id, proc_.now());
    protocol_.phase_flush(id_, phase_id);
  }
  // Publishes this node's writes to [base, base+len) (write-update pushes
  // them to their readers). No-op under the other protocols, which keep
  // copies coherent themselves.
  void publish(mem::Addr base, std::size_t len) {
    protocol_.publish(id_, base, len);
  }

  // ---- Dynamic global allocation (homed at this node) ------------------------

  mem::Addr galloc(std::size_t bytes, std::size_t align = 8) {
    return space_.arena_alloc(id_, bytes, align);
  }
  std::size_t arena_mark() const { return space_.arena_mark(id_); }
  void arena_reset(std::size_t mark) { space_.arena_reset(id_, mark); }

  stats::NodeCounters& counters() { return rec_.node(id_); }

 private:
  const int id_;
  const MachineConfig& cfg_;
  sim::Processor& proc_;
  mem::GlobalSpace& space_;
  stats::Recorder& rec_;
  BarrierManager& barrier_;
  proto::Protocol& protocol_;
  util::Rng rng_;
};

}  // namespace presto::runtime
