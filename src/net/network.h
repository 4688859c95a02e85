// Point-to-point interconnect model.
//
// Models a CM-5-style data network without contention: a message of b bytes
// sent at time t arrives at t + wire_latency + b * per_byte. Delivery between
// a fixed (src, dst) pair is FIFO — Stache's transaction serialization at the
// home node assumes ordered channels, which we enforce by clamping arrival
// times to be monotone per channel. Self-sends (protocol dispatch to the
// local node) use a cheaper loopback latency.
//
// send_msg writes the caller's header+payload bytes once, into the
// (src, dst) channel's record ring (net/record_ring.h), and the record stays
// there until the MsgSink is done with it: no heap allocation in steady
// state, no closure per message and no second copy.
//
// Arrival and dispatch. At a record's arrival the sink's on_arrival() names
// its dispatch time — the protocol layer's handler occupancy, or the arrival
// itself. Every record waits for dispatch in its channel, and the channel
// joins its destination's inbox, a FIFO of channels in arrival order; at
// dispatch on_msg reads the record in place and the channel pops it.
//
// Chained events. A channel's deliveries are FIFO (arrival times are clamped
// strictly monotone) and a node's dispatches are FIFO (occupancy ends are
// monotone), so each FIFO keeps only its head event in the engine's heap.
// Every record reserves the event key ((time, seq), sim::Engine::reserve_key)
// it would have been scheduled under at the moment it would have been
// scheduled, and stores it in its header; when the head event runs it
// posts the next record under that reserved key. The heap then pops every
// event in exactly the order one event per record would, while holding one
// entry per busy channel and per busy node instead of one per record. Each
// event is a plain (handler, object) pair (sim::Engine::post_key): a
// delivery's object is its channel and a dispatch's its destination's inbox,
// each of which knows its network and destination.
//
// Channels open lazily, at every machine width. Each source keeps a flat
// dst->slot index (built on the source's first send) and a chunked arena of
// channels opened on first use; an open channel is two array reads away. So
// the table grows with the channels a run uses — few, since the paper's
// workloads talk to neighbors and homes — not with nodes². Chunks never
// move, so the Channel pointers that delivery events hold stay valid, and both
// the index and the arena belong to the source: under the parallel windowed
// engine only the source's lane and the serial boundary flush touch them,
// so no lock is needed. An idle channel holds no ring chunk: chunks come
// from and return to a ChunkPool.
//
// Windowed engines (sim/engine.h): a cross-node send issued inside a lane
// drain may not touch the destination lane's state, so its record is
// appended to the channel's ring unpublished (net/record_ring.h), and the
// channel joins its source's staging list — routing (the FIFO clamp) still
// happens at send time, on state the source lane owns. The boundary flush
// (BoundaryOp::kNet) walks the window's sources in ascending order (only a
// lane the window drained can have sent, sim::Engine::window_lanes),
// reserves each unpublished record's delivery key on its destination lane
// in send order — exactly the keys a direct send would have taken — and
// publishes it where it lies: no byte is copied. During a drain the
// destination lane touches only the published part of the ring, the
// delivery cursor and its own inbox; the source lane touches only the FIFO
// clamp and the ring's tail. A channel whose ring drains joins its
// destination's drained list, and the boundary (again visiting only the
// window's lanes) hands an idle ring's last chunk back to a pool, so an idle
// channel holds no chunk. Chunks are drawn from and returned to the pool of the lane that
// touches them — one pool per lane under a worker pool (trimmed at each
// boundary), one shared pool when lanes drain on one thread. Staging is per
// source, not per worker, so the flush order — and with it every event key
// and every simulated result — does not depend on how lanes were
// partitioned over workers. Self-sends and sends from outside any lane
// (setup, boundary context) are published at once.
//
// The network counts and observes nothing: proto::Protocol::post, its only
// caller, counts each message once (the sender's msgs_sent/bytes_sent) and
// shows it to the oracle and the tracer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "net/record_ring.h"
#include "sim/engine.h"
#include "sim/time.h"

namespace presto::net {

struct NetConfig {
  sim::Time wire_latency = sim::microseconds(30);  // software messaging cost
  sim::Time per_byte = 100;                        // ~10 MB/s effective
  sim::Time self_latency = sim::microseconds(5);   // local protocol dispatch
};

class Network {
 public:
  // Receiver of typed messages (the protocol layer). The record bytes are
  // only valid for the duration of the call they are passed to.
  class MsgSink {
   public:
    // A record reached dst (engine context, at its arrival time). Returns
    // the time at which on_msg wants it, clamped up to now; the record waits
    // in its channel until then. Dispatch is FIFO per destination, so the
    // clamped times for one destination must not decrease. The default
    // dispatches every record at its arrival.
    virtual sim::Time on_arrival(int dst, const std::byte* rec,
                                 std::size_t len) {
      (void)dst;
      (void)rec;
      (void)len;
      return 0;
    }
    virtual void on_msg(int dst, const std::byte* rec, std::size_t len) = 0;

   protected:
    ~MsgSink() = default;
  };

  // Channels a source opens at once: its arena grows by chunks this size.
  static constexpr std::uint32_t kChannelChunk = 8;

  Network(sim::Engine& engine, int nodes, const NetConfig& cfg);
  ~Network();

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  void set_msg_sink(MsgSink* sink) { sink_ = sink; }

  // Typed fast path: copies header+payload into the channel ring; the sink
  // receives the concatenated record at its arrival (and dispatch) time.
  // `wire_bytes` is the simulated message size (it can differ from the host
  // record size).
  // Returns the arrival time. Callable from engine and processor threads.
  sim::Time send_msg(int src, int dst, std::size_t wire_bytes,
                     sim::Time depart, const void* header,
                     std::size_t header_len, const void* payload,
                     std::size_t payload_len);

  // Lower bound on cross-node delivery latency. A windowed engine's window
  // width must not exceed this: a message departing at t < cap then arrives
  // at t + min_latency() >= cap, so boundary flushes never land in a
  // destination lane's past.
  sim::Time min_latency() const { return min_latency(cfg_); }
  static sim::Time min_latency(const NetConfig& cfg) {
    return cfg.wire_latency;
  }

  // Host bytes held by the channel table (per-source headers, indexes and
  // arenas), the chunks of every record ring (channels, pools), the inboxes
  // and the staging lists.
  std::size_t metadata_bytes() const;

  // What a dense nodes² channel table would occupy for a machine this wide —
  // the baseline the scale benches report sub-quadratic metadata against.
  static std::size_t dense_equiv_bytes(int nodes) {
    return static_cast<std::size_t>(nodes) * static_cast<std::size_t>(nodes) *
           sizeof(Channel);
  }

 private:
  // A (src, dst) channel, the object of its delivery events. last_arrival
  // and staged are the source lane's; next and drained the destination
  // lane's; the ring is shared as record_ring.h describes.
  struct Channel {
    Network* net = nullptr;
    sim::Time last_arrival = 0;
    RecordRing ring;
    // First record not yet delivered; none when no delivery is pending. The
    // published records before it are delivered and held for dispatch.
    RecordRing::Pos next;
    bool staged = false;   // in the source's staging list this window
    bool drained = false;  // in the destination's drained list
    std::int32_t dst = 0;
  };

  // A channel its source appended to during the current window.
  struct Staged {
    Channel* ch;
    int dst;
  };

  // A node's held records awaiting dispatch, as the channels that hold them
  // (each entry is the oldest held record of its channel at its turn): a
  // circular buffer that grows by doubling. The object of the node's
  // dispatch events.
  struct Inbox {
    Network* net = nullptr;
    int dst = 0;
    std::vector<Channel*> q;
    std::size_t head = 0;
    std::size_t size = 0;
    void push(Channel* ch);
    Channel* front() const { return q[head]; }
    void pop() {
      head = head + 1 == q.size() ? 0 : head + 1;
      --size;
    }
  };

  // A source's open channels. The dst->slot index is built on the source's
  // first send; channels live in chunks of kChannelChunk that never move.
  struct SrcChannels {
    std::vector<std::uint32_t> slot;  // dst -> arena slot + 1; 0 = unopened
    std::vector<std::unique_ptr<Channel[]>> chunks;
    std::uint32_t count = 0;
  };
  // Free chunk bytes a lane's pool keeps across a boundary under a worker
  // pool, where chunks drift from senders' pools to receivers'.
  static constexpr std::size_t kPoolKeepBytes = 64 * 1024;

  // Computes the FIFO-clamped arrival time.
  sim::Time route(Channel& ch, int src, int dst, std::size_t bytes,
                  sim::Time depart);
  // The (src, dst) channel; every send looks it up, so the open case is
  // inline and only the first send on a pair calls open_channel.
  Channel& channel(int src, int dst) {
    SrcChannels& sc = sources_[static_cast<std::size_t>(src)];
    if (!sc.slot.empty()) [[likely]] {
      const std::uint32_t s = sc.slot[static_cast<std::size_t>(dst)];
      if (s != 0) [[likely]]
        return sc.chunks[(s - 1) / kChannelChunk][(s - 1) % kChannelChunk];
    }
    return open_channel(src, dst);
  }
  Channel& open_channel(int src, int dst);
  template <typename F>
  void for_each_channel(F&& f);

  // Chunk pool of the context running on `lane`.
  ChunkPool& pool(int lane) {
    return pools_[static_cast<std::size_t>(lane) & pool_mask_];
  }

  // Posts the delivery of ch's record at `next` (its reserved key).
  void schedule_delivery(Channel& ch, RecordRing::Pos next);
  static void deliver_event(void* channel);
  void deliver(Channel& ch);
  // Posts the dispatch of the inbox's front record (key in its header).
  void schedule_dispatch(Inbox& in, const Record& r);
  static void dispatch_event(void* inbox);
  void dispatch(Inbox& in);
  // Pops ch's front record on its destination's lane; a ring left empty
  // joins the destination's drained list.
  void pop_front(Channel& ch);
  // Boundary flush (BoundaryOp::kNet): the window's sources in order, then
  // the rings its lanes drained.
  void flush_staged();
  // Reserves the keys of the channel's unpublished records on st.dst's lane
  // and publishes them.
  void flush_entry(const Staged& st);

  sim::Engine& engine_;
  const int nodes_;
  const NetConfig cfg_;
  MsgSink* sink_ = nullptr;
  std::vector<SrcChannels> sources_;  // [src]
  std::vector<Inbox> inboxes_;  // [dst]
  // One pool per lane under a worker pool, else one shared (mask 0).
  std::vector<ChunkPool> pools_;
  std::size_t pool_mask_ = 0;
  // Windowed mode only (empty otherwise): [src] -> channels staged this
  // window; [dst lane] -> channels whose ring drained this window.
  std::vector<std::vector<Staged>> staged_;
  std::vector<std::vector<Channel*>> drained_;
  // Planted-bug state (check/bughook.h delay_window_flush): a one-shot hold
  // of source 1's staged records for a full window, recovered at the next
  // flush.
  std::vector<Staged> holdover_;
  bool flush_delayed_ = false;
};

}  // namespace presto::net
