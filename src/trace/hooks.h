// Trace hook interface — the observation points this subsystem adds on top
// of the mem::AccessObserver / proto::CoherenceObserver pair.
//
// Deliberately dependency-free (only <cstdint> + sim/time.h): sim/, proto/
// and runtime/ hold a `trace::Hooks*` behind a forward declaration and pay
// one null-pointer test when tracing is off — the same pattern the PR 2
// oracle proved costs ≤0.1% on host_throughput. Hooks are pure observation:
// implementations must never charge simulated time or schedule events, so
// simulated results are bit-identical with or without a tracer attached
// (tests/trace_test.cc pins this against the golden matrix).
//
// Each hook passes the relevant clock explicitly (the caller knows whether
// it runs on a node's processor clock or the engine clock), so the tracer
// needs no backdoor into either.
#pragma once

#include <cstdint>

#include "sim/time.h"

namespace presto::trace {

class Hooks {
 public:
  // Phase directives (runtime/node_ctx.h). `begin` fires before the
  // protocol's presend work, `ready` after presend + barrier complete.
  virtual void on_phase_begin(int node, int phase, sim::Time t) = 0;
  virtual void on_phase_ready(int node, int phase, sim::Time t) = 0;
  virtual void on_phase_flush(int node, int phase, sim::Time t) = 0;

  // Collectives (runtime/barrier.cc).
  virtual void on_barrier_arrive(int node, std::uint64_t epoch,
                                 sim::Time t) = 0;
  virtual void on_barrier_release(int node, std::uint64_t epoch,
                                  sim::Time t) = 0;

  // Shared locks (runtime/lock.cc); `lock_block` is the lock word's block.
  virtual void on_lock_acquire(int node, std::uint64_t lock_block,
                               sim::Time t) = 0;
  virtual void on_lock_acquired(int node, std::uint64_t lock_block,
                                sim::Time t, bool contended) = 0;
  virtual void on_lock_release(int node, std::uint64_t lock_block,
                               sim::Time t) = 0;

  // Remote-miss window (proto::Protocol::remote_miss, which every
  // protocol's misses and ccached's merge round trips run through). t0/t1
  // bracket exactly the interval the protocol adds to remote_wait.
  virtual void on_miss_start(int node, std::uint64_t block, bool is_write,
                             sim::Time t0) = 0;
  virtual void on_miss_end(int node, std::uint64_t block, bool is_write,
                           sim::Time t1) = 0;

  // Protocol messages (proto/protocol.cc). Send fires as the bytes are
  // copied into the channel ring; recv fires at the FIFO-clamped arrival
  // with the dispatch time (handler occupancy start) already resolved.
  virtual void on_msg_send(int src, int dst, std::uint8_t msg_type,
                           std::uint64_t block, std::uint32_t count,
                           std::uint32_t wire_bytes, sim::Time depart) = 0;
  virtual void on_msg_recv(int dst, int src, std::uint8_t msg_type,
                           std::uint64_t block, std::uint32_t wire_bytes,
                           sim::Time arrival, sim::Time dispatch) = 0;

  // A BulkData presend run installed `count` contiguous blocks at `node`
  // (proto/predictive.cc). Fires once per run, after the installs.
  virtual void on_presend_install(int node, int src, std::uint64_t block0,
                                  std::uint32_t count, sim::Time t) = 0;

  // Context switches (sim/processor.cc): park in block() / resume from it.
  virtual void on_ctx_block(int node, sim::Time t) = 0;
  virtual void on_ctx_resume(int node, sim::Time t) = 0;

 protected:
  ~Hooks() = default;
};

}  // namespace presto::trace
