// User-level coherence protocol framework (the Tempest handler interface).
//
// A protocol is a state machine driven by two kinds of events:
//   * access faults, raised on the faulting node's processor thread by the
//     fine-grain access-control check (mem::GlobalSpace); the handler blocks
//     that processor until the access is legal, and
//   * protocol messages, delivered in engine context by the network.
//
// Message handlers are serialized per node with a busy-until occupancy model
// (one protocol dispatch unit per node, as with Blizzard's software
// handlers); handler time overlapping application compute is charged to the
// application clock as stolen cycles.
//
// Transport is allocation-free in steady state: a Msg is a trivially
// copyable header plus a non-owning payload view. Sending copies header and
// payload once, into the network's per-channel record ring
// (net::Network::send_msg). At arrival the protocol names the dispatch time
// (handler occupancy) and the record waits in its channel; handle() reads it
// there. No std::function, no per-message heap allocation, no payload
// vector, no second copy.
#pragma once

#include <cstdint>
#include <cstring>
#include <functional>
#include <type_traits>
#include <vector>

#include "mem/global_space.h"
#include "net/network.h"
#include "sim/engine.h"
#include "sim/processor.h"
#include "stats/recorder.h"

namespace presto::trace {
class Hooks;
}  // namespace presto::trace

namespace presto::proto {

enum class MsgType : std::uint8_t {
  // Stache request/response (requester <-> home <-> owner).
  GetS,            // requester -> home: want ReadOnly copy
  GetX,            // requester -> home: want ReadWrite copy
  Inv,             // home -> reader
  InvAck,          // reader -> home
  RecallS,         // home -> owner: downgrade to ReadOnly, return data
  RecallX,         // home -> owner: invalidate, return data
  RecallAckData,   // owner -> home (carries data)
  DataS,           // home -> requester (carries data, install ReadOnly)
  DataX,           // home -> requester (carries data, install ReadWrite)
  // Predictive protocol presend traffic (§3.4).
  BulkData,        // home -> target: run of contiguous blocks + install tag
  BulkAck,         // target -> home
  BulkInv,         // home -> target: run of contiguous blocks to invalidate
  BulkInvAck,      // target -> home
  // Write-update protocol (hand-optimized SPMD baseline, [5]).
  WuGetS,          // reader -> home
  WuData,          // home -> reader
  WuWriteNote,     // writer -> home: writer took local ReadWrite
  UpdateData,      // writer -> home, or home -> readers: fresh block contents
  UpdateAck,       // final recipient -> home -> writer
  // Commutative-update protocol (ccached).
  CcFlush,         // node -> home: (word index, delta) entries for one block
  CcFlushAck,      // home -> node: deltas merged into the committed image
};

const char* msg_type_name(MsgType t);

struct Msg {
  MsgType type{};
  std::uint8_t tag = 0;     // mem::Tag to install (bulk/presend)
  int src = -1;
  std::uint32_t count = 1;  // run length for bulk messages
  std::uint32_t data_len = 0;
  mem::BlockId block = 0;
  std::uint64_t token = 0;  // ack matching
  // Non-owning payload view. When sending it points at the caller's bytes
  // (copied into the channel ring before the send returns, so a pointer
  // straight into GlobalSpace frames is fine); inside handle() it points
  // into the channel ring and is valid only for that call.
  const std::byte* data = nullptr;
};
static_assert(std::is_trivially_copyable_v<Msg>,
              "Msg rides the record rings by memcpy");

struct ProtoCosts {
  sim::Time fault = sim::microseconds(10);    // fault vectoring on the
                                              // faulting node (Blizzard SW)
  sim::Time handler = sim::microseconds(15);  // per-message handler occupancy
  sim::Time presend_per_block = sim::microseconds(1);
  std::size_t header_bytes = 16;
};

// Observer of protocol-level data movement, implemented by the coherence
// invariant oracle (check/oracle.h). Null in normal runs; hooks are pure
// observation (no time charged, no events scheduled), so simulated results
// are bit-identical with or without it.
//   on_data_send — a data-carrying message (DataS/DataX/RecallAckData/
//     BulkData/WuData/UpdateData) at the instant its payload is snapshotted
//     into the channel ring: the presend-coherence invariant is checked here.
//   on_install — a block copy or permission change lands at a node.
class CoherenceObserver {
 public:
  virtual void on_data_send(int src, int dst, const Msg& m) = 0;
  virtual void on_install(int node, mem::BlockId b, const std::byte* data,
                          mem::Tag tag) = 0;

 protected:
  ~CoherenceObserver() = default;
};

class Protocol : public net::Network::MsgSink, public mem::FaultHandler {
 public:
  Protocol(sim::Engine& engine, net::Network& net, mem::GlobalSpace& space,
           stats::Recorder& rec, const ProtoCosts& costs);
  virtual ~Protocol() = default;

  Protocol(const Protocol&) = delete;
  Protocol& operator=(const Protocol&) = delete;

  // Registers this protocol as the space's fault handler and the network's
  // message sink.
  void install();

  virtual const char* name() const = 0;

  // mem::FaultHandler — runs on the faulting node's processor thread;
  // returns once the access is permitted by the block tag.
  void on_fault(int node, mem::BlockId b, bool is_write) override = 0;

  // Compiler-placed directives (no-ops in the base protocols so identical
  // application code runs under every protocol).
  virtual void phase_begin(int node, int phase) {
    (void)node;
    (void)phase;
  }
  virtual void phase_flush(int node, int phase) {
    (void)node;
    (void)phase;
  }

  // Global barrier callback, wired by runtime::System (the predictive
  // protocol ends its presend with a barrier, §3.4).
  void set_barrier(std::function<void(int)> fn) { barrier_ = std::move(fn); }

  // Attaches the invariant oracle (or detaches with nullptr).
  void set_coherence_observer(CoherenceObserver* o) { observer_ = o; }
  CoherenceObserver* coherence_observer() const { return observer_; }

  // Attaches the event tracer (trace/tracer.h). Like the oracle, hooks are
  // pure observation; null in untraced runs so the hot paths stay branch-
  // predictable single null checks.
  void set_trace_hooks(trace::Hooks* h) { trace_ = h; }
  trace::Hooks* trace_hooks() const { return trace_; }

  const ProtoCosts& costs() const { return costs_; }

  // Host bytes held by protocol metadata (directories, schedules, reader
  // sets, pools, scratch). Base counts the framework's own
  // structures; protocols add their metadata on top. Surfaced as
  // stats::HostCounters::metadata_bytes at end of run.
  virtual std::size_t metadata_bytes() const;

  // net::Network::MsgSink — arrival: serialize on the destination's protocol
  // dispatch unit and return the end of its occupancy, when on_msg runs
  // handle() on the record.
  sim::Time on_arrival(int dst, const std::byte* rec, std::size_t len) final;
  void on_msg(int dst, const std::byte* rec, std::size_t len) final;

 protected:
  // Message dispatch in engine context; subclasses implement handle().
  virtual void handle(int self, const Msg& m) = 0;

  // Sends m (header + payload view) through the typed network path;
  // dispatch at the destination respects handler occupancy.
  void send_from_handler(int src, int dst, const Msg& m);  // engine context
  void send_from_app(int src, int dst, const Msg& m);      // node thread

  // Per-node scratch for assembling multi-block payloads (reused, grows to
  // the high-water mark). Per node because a charge() between fill and send
  // yields to other nodes' threads; the one remaining hazard is an
  // engine-context handler for the same node filling scratch while its app
  // thread is parked between fill and send — don't do that.
  std::byte* scratch(int node, std::size_t n) {
    auto& s = scratch_[static_cast<std::size_t>(node)];
    if (s.size() < n) s.resize(n);
    return s.data();
  }

  sim::Processor& proc(int node) { return engine_.processor(node); }

  // Installs a block copy (or permission change) at a node and wakes its
  // processor if it is waiting on this block.
  void install_block(int node, mem::BlockId b, const std::byte* data,
                     mem::Tag tag);

  // Oracle notification for handler sites that install block bytes without
  // going through install_block (e.g. RecallAckData landing at the home).
  void notify_install(int node, mem::BlockId b, const std::byte* data,
                      mem::Tag tag) {
    if (observer_ != nullptr) [[unlikely]]
      observer_->on_install(node, b, data, tag);
  }
  void set_waiting(int node, mem::BlockId b) { waiting_[static_cast<std::size_t>(node)] = static_cast<std::int64_t>(b); }
  void clear_waiting(int node) { waiting_[static_cast<std::size_t>(node)] = -1; }
  bool is_waiting_on(int node, mem::BlockId b) const {
    return waiting_[static_cast<std::size_t>(node)] == static_cast<std::int64_t>(b);
  }
  void wake_waiter(int node);

  sim::Engine& engine_;
  net::Network& net_;
  mem::GlobalSpace& space_;
  stats::Recorder& rec_;
  const ProtoCosts costs_;
  std::function<void(int)> barrier_;
  CoherenceObserver* observer_ = nullptr;
  trace::Hooks* trace_ = nullptr;

 private:
  void post(int src, int dst, const Msg& m, sim::Time depart);

  std::vector<sim::Time> busy_until_;     // protocol dispatch occupancy
  std::vector<std::int64_t> waiting_;     // block each node's app waits on
  std::vector<std::vector<std::byte>> scratch_;
};

}  // namespace presto::proto
