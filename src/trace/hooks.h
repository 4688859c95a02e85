// The observer interface: every point at which a run can be watched, in one
// class. The coherence oracle (check/oracle.h) overrides the five hooks it
// checks (application reads and writes, commutative updates, message sends
// and installs); the tracer (trace/tracer.h) overrides every hook and
// forwards those five to the observer below it, so with both attached the
// oracle sees the call stream it would see alone.
//
// A run has at most one observer. sim::Engine holds the pointer; the
// processor, protocol, barrier, node context and shared locks read it
// through the engine, and mem::GlobalSpace keeps a copy for the per-access
// path. runtime::System sets both in one function. Unobserved runs pay one
// null-pointer test per hook site.
//
// Every hook has an empty default body, so an observer overrides only what
// it watches. The build makes -Woverloaded-virtual and -Wsuggest-override
// errors: an override whose signature went stale would otherwise compile
// into a silent no-op.
//
// Hooks are pure observation: implementations must never charge simulated
// time or schedule events, so simulated results are bit-identical with or
// without an observer (tests/trace_test.cc pins this against the golden
// matrix).
//
// Deliberately light (<cstddef>, <cstdint>, sim/time.h and forward
// declarations), so sim/, mem/ and proto/ include it freely. Hooks that
// run on a known clock pass it explicitly (the caller knows whether it runs
// on a node's processor clock or the engine clock); the access and install
// hooks pass none.
#pragma once

#include <cstddef>
#include <cstdint>

#include "sim/time.h"

namespace presto::mem {
enum class Tag : std::uint8_t;
}  // namespace presto::mem

namespace presto::proto {
struct Msg;
}  // namespace presto::proto

namespace presto::trace {

class Hooks {
 public:
  // ---- Application accesses (mem/global_space.h) ---------------------------
  // Every completed access, once per block touched, on the accessing node's
  // thread after the bytes moved, with the tag still held.
  virtual void on_app_read(int /*node*/, std::uint64_t /*block*/,
                           std::size_t /*off*/, const void* /*seen*/,
                           std::size_t /*n*/) {}
  virtual void on_app_write(int /*node*/, std::uint64_t /*block*/,
                            std::size_t /*off*/, const void* /*data*/,
                            std::size_t /*n*/) {}
  // Privatized commutative update (ccached, NodeCtx::cc_add): `delta` will
  // be added to the 64-bit word at byte offset `off` of the block when the
  // node's update log merges at the home.
  virtual void on_cc_update(int /*node*/, std::uint64_t /*block*/,
                            std::size_t /*off*/, std::int64_t /*delta*/) {}

  // ---- Phase directives (runtime/node_ctx.h) --------------------------------
  // `begin` fires before the protocol's presend work, `ready` after presend
  // + barrier complete.
  virtual void on_phase_begin(int /*node*/, int /*phase*/, sim::Time /*t*/) {}
  virtual void on_phase_ready(int /*node*/, int /*phase*/, sim::Time /*t*/) {}
  virtual void on_phase_flush(int /*node*/, int /*phase*/, sim::Time /*t*/) {}

  // ---- Collectives (runtime/barrier.cc) -------------------------------------
  virtual void on_barrier_arrive(int /*node*/, std::uint64_t /*epoch*/,
                                 sim::Time /*t*/) {}
  virtual void on_barrier_release(int /*node*/, std::uint64_t /*epoch*/,
                                  sim::Time /*t*/) {}

  // ---- Shared locks (runtime/lock.cc); the lock word's block ---------------
  virtual void on_lock_acquire(int /*node*/, std::uint64_t /*lock_block*/,
                               sim::Time /*t*/) {}
  virtual void on_lock_acquired(int /*node*/, std::uint64_t /*lock_block*/,
                                sim::Time /*t*/, bool /*contended*/) {}
  virtual void on_lock_release(int /*node*/, std::uint64_t /*lock_block*/,
                               sim::Time /*t*/) {}

  // ---- Remote-miss window (proto::Protocol::remote_miss) --------------------
  // Every protocol's misses and ccached's merge round trips run through it;
  // t0/t1 bracket exactly the interval the protocol adds to remote_wait.
  virtual void on_miss_start(int /*node*/, std::uint64_t /*block*/,
                             bool /*is_write*/, sim::Time /*t0*/) {}
  virtual void on_miss_end(int /*node*/, std::uint64_t /*block*/,
                           bool /*is_write*/, sim::Time /*t1*/) {}

  // ---- Protocol messages (proto/protocol.cc) --------------------------------
  // Send fires once per message, as its header and payload are copied into
  // the channel ring (Protocol::post is the one send path); `m.data` is the
  // payload the message carries. Recv fires at the FIFO-clamped arrival
  // with the dispatch time (handler occupancy start) already resolved.
  virtual void on_send(int /*src*/, int /*dst*/, const proto::Msg& /*m*/,
                       std::uint32_t /*wire_bytes*/, sim::Time /*depart*/) {}
  virtual void on_msg_recv(int /*dst*/, int /*src*/, std::uint8_t /*msg_type*/,
                           std::uint64_t /*block*/,
                           std::uint32_t /*wire_bytes*/, sim::Time /*arrival*/,
                           sim::Time /*dispatch*/) {}

  // ---- Data movement (proto/) -----------------------------------------------
  // A block copy or permission change lands at a node, in engine context
  // (`data` null for a tag-only change).
  virtual void on_install(int /*node*/, std::uint64_t /*block*/,
                          const std::byte* /*data*/, mem::Tag /*tag*/) {}
  // A BulkData presend run installed `count` contiguous blocks at `node`
  // (proto/predictive.cc). Fires once per run, after the installs.
  virtual void on_presend_install(int /*node*/, int /*src*/,
                                  std::uint64_t /*block0*/,
                                  std::uint32_t /*count*/, sim::Time /*t*/) {}

  // ---- Context switches (sim/processor.cc): park in block() / resume --------
  virtual void on_ctx_block(int /*node*/, sim::Time /*t*/) {}
  virtual void on_ctx_resume(int /*node*/, sim::Time /*t*/) {}

 protected:
  ~Hooks() = default;
};

}  // namespace presto::trace
