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
//
// The base class owns the transaction plumbing every protocol shares: the
// remote-miss window (remote_miss), the per-node ack count (expect_ack /
// ack / await_acks) and the handler chain (handle). A protocol plugs in by
// overriding on_fault and handle, taking its own message types and passing
// the rest to its base class, and overrides the directives it acts on
// (phase_begin / phase_flush, publish, cc_add / cc_flush); runtime::NodeCtx
// calls every directive through this class under every protocol.
//
// The run's observer (trace/hooks.h) is read through the engine: post()
// shows it each message once, install_block / notify_install each install,
// remote_miss each miss window.
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
#include "trace/hooks.h"

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

  // Directives, on the node's app thread. The defaults let identical
  // application code run under every protocol.
  //
  // Compiler-placed phase directives (the predictive protocol's schedule
  // and presend, §3.4); no-ops by default.
  virtual void phase_begin(int /*node*/, int /*phase*/) {}
  virtual void phase_flush(int /*node*/, int /*phase*/) {}
  // The SPMD program's explicit publish of [base, base+len) (write-update
  // pushes its dirty blocks to their readers, §3.2); no-op by default.
  virtual void publish(int /*node*/, mem::Addr /*base*/,
                       std::size_t /*len*/) {}
  // Adds delta to the 64-bit word at a, 8-byte aligned inside a
  // mem::GlobalSpace::set_commutative region: an atomic read-modify-write
  // by default; ccached privatizes it into the node's log instead.
  virtual void cc_add(int node, mem::Addr a, std::int64_t delta);
  // Makes the node's privatized commutative updates globally visible;
  // no-op by default (nothing is privatized).
  virtual void cc_flush(int /*node*/) {}

  // Global barrier callback, wired by runtime::System (the predictive
  // protocol ends its presend with a barrier, §3.4).
  void set_barrier(std::function<void(int)> fn) { barrier_ = std::move(fn); }

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
  // Message dispatch in engine context: the handler chain. A protocol
  // overrides handle(), takes its own message types and passes every other
  // one to its base class's handle(); the chain ends in a handle() that
  // fails on a type nobody took.
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
  // Points m's payload at node's copies of the m.count consecutive blocks
  // from m.block. A run can straddle page frames, so it is gathered into
  // the node's scratch.
  void gather_run(int node, Msg& m);

  sim::Processor& proc(int node) { return engine_.processor(node); }

  bool access_ok(int node, mem::BlockId b, bool is_write) const {
    const mem::Tag t = space_.tag(node, b);
    return is_write ? t == mem::Tag::ReadWrite : t != mem::Tag::Invalid;
  }

  // The remote-miss window, on the faulting node's app thread: charges
  // `cost` (fault vectoring, or a log's marshaling), sends `req` to `dst`
  // and parks until done() holds. The whole interval is bracketed as a miss
  // for the tracer and added to the node's remote_wait, so every protocol's
  // Σ miss latency == Σ remote_wait holds here.
  template <typename Done>
  void remote_miss(int node, mem::BlockId b, bool is_write, sim::Time cost,
                   int dst, const Msg& req, Done done) {
    sim::Processor& p = proc(node);
    const sim::Time t0 = p.now();
    trace::Hooks* const h = engine_.trace_hooks();
    if (h != nullptr) [[unlikely]] h->on_miss_start(node, b, is_write, t0);
    p.charge(cost);
    send_from_app(node, dst, req);
    std::int64_t& waiting = waiting_[static_cast<std::size_t>(node)];
    waiting = static_cast<std::int64_t>(b);
    while (!done()) p.block();
    waiting = -1;
    if (h != nullptr) [[unlikely]] h->on_miss_end(node, b, is_write, p.now());
    rec_.node(node).remote_wait += p.now() - t0;
  }

  // The node's ack count: its app thread calls expect_ack() for each
  // message it awaits a reply to (presend recalls and bulk runs, publishes,
  // merges), the handler taking a reply calls ack(), and await_acks() parks
  // the app thread until every reply is in.
  void expect_ack(int node) { ++acks_[static_cast<std::size_t>(node)]; }
  void ack(int node) {
    if (--acks_[static_cast<std::size_t>(node)] == 0) wake_waiter(node);
  }
  void await_acks(int node) {
    while (acks_pending(node)) proc(node).block();
  }
  bool acks_pending(int node) const {
    return acks_[static_cast<std::size_t>(node)] != 0;
  }

  // PRESTO_STACHE_TRACE=<block id>: the block whose protocol events are
  // logged to stderr (-1 when unset). Any value but a non-negative integer
  // aborts, naming the value.
  static long trace_block();

  // Installs a block copy (or permission change) at a node and wakes its
  // processor if it is waiting on this block.
  void install_block(int node, mem::BlockId b, const std::byte* data,
                     mem::Tag tag);

  // Observer notification for handler sites that install block bytes
  // without going through install_block (e.g. RecallAckData landing at the
  // home).
  void notify_install(int node, mem::BlockId b, const std::byte* data,
                      mem::Tag tag) {
    if (trace::Hooks* h = engine_.trace_hooks(); h != nullptr) [[unlikely]]
      h->on_install(node, b, data, tag);
  }
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

 private:
  // Every message leaves through here: it is counted (the sender's
  // msgs_sent/bytes_sent), shown once to the run's observer, and handed to
  // the network.
  void post(int src, int dst, const Msg& m, sim::Time depart);

  std::vector<sim::Time> busy_until_;     // protocol dispatch occupancy
  std::vector<std::int64_t> waiting_;     // block each node's miss waits on
  std::vector<int> acks_;                 // replies each node's app awaits
  std::vector<std::vector<std::byte>> scratch_;
};

}  // namespace presto::proto
