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
// Arrival and dispatch. At a record's arrival the sink's on_arrival() says
// when it wants the record: at once (on_msg runs inside the arrival event),
// or at a later dispatch time — the protocol layer's handler occupancy. A
// held record stays in its channel and joins its destination's inbox, a FIFO
// of channels in arrival order; on_msg reads it in place at dispatch and the
// channel pops it afterwards.
//
// Chained events. A channel's deliveries are FIFO (arrival times are clamped
// strictly monotone) and a node's dispatches are FIFO (occupancy ends are
// monotone), so each FIFO keeps only its head event in the engine's heap.
// Every record reserves the event key ((time, seq), sim::Engine::reserve_key)
// it would have been scheduled under at the moment it would have been
// scheduled, and stores it in its header; when the head event runs it
// schedules the next record under that reserved key. The heap then pops
// every event in exactly the order one event per record would, while holding
// one entry per busy channel and per busy node instead of one per record.
//
// Channel state (FIFO clamp + ring) lives in one dense nodes² table indexed
// by src*nodes+dst on machines of up to kDenseNodeLimit nodes: a channel
// lookup is one multiply-add, and the table is allocated exactly once up
// front — Channel pointers captured by in-flight events stay stable because
// the vector never grows. An idle channel holds no chunk: chunks come from
// and return to a ChunkPool.
//
// Above kDenseNodeLimit the dense table would be the largest allocation in
// the simulator (nodes² channels for traffic that is overwhelmingly
// neighbor/home-patterned), so each source instead keeps a flat dst->slot
// index (built lazily on the source's first send) plus a chunked arena of
// channels materialized on first use. Chunks never move, so Channel pointers
// are as stable as the dense table's, and both the index and the arena are
// owned by the source — under the parallel windowed engine they are touched
// only on the source's lane and by the serial boundary flush, so no lock is
// needed. metadata_bytes then scales with channels actually used, not
// nodes².
//
// Windowed engines (sim/engine.h): a cross-node send issued inside a lane
// drain may not touch the destination lane's state, so its record is
// appended to the channel's ring unpublished (net/record_ring.h), and the
// channel joins its source's staging list — routing (the FIFO clamp, traffic
// counters, the observer call) still happens at send time, on state the
// source lane owns. The boundary flush (BoundaryOp::kNet) walks sources
// 0..N-1, reserves each unpublished record's delivery key on its destination
// lane in send order — exactly the keys a direct send would have taken —
// and publishes it where it lies: no byte is copied. During a drain the
// destination lane touches only the published part of the ring, the
// delivery cursor and its own inbox; the source lane touches only the FIFO
// clamp and the ring's tail. A channel whose ring drains joins its
// destination's drained list, and the boundary hands an idle ring's last
// chunk back to a pool, so an idle channel holds no chunk. Chunks are drawn
// from and returned to the pool of the lane that touches them — one pool per
// lane under a worker pool (trimmed at each boundary), one shared pool when
// lanes drain on one thread. Staging is per source, not per worker, so the
// flush order — and with it every event key and every simulated result —
// does not depend on how lanes were partitioned over workers. Self-sends
// and sends from outside any lane (setup, boundary context) are published
// at once.
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
    // on_arrival's answer for "hand the record over now".
    static constexpr sim::Time kDeliverNow = -1;

    // A record reached dst (engine context, at its arrival time). Returns
    // kDeliverNow to get on_msg at once, or the dispatch time (>= now) at
    // which on_msg wants it; the record then waits in its channel. A sink
    // that holds records must hold every record (dispatch is FIFO per
    // destination). The default delivers at once.
    virtual sim::Time on_arrival(int dst, const std::byte* rec,
                                 std::size_t len) {
      (void)dst;
      (void)rec;
      (void)len;
      return kDeliverNow;
    }
    virtual void on_msg(int dst, const std::byte* rec, std::size_t len) = 0;

   protected:
    ~MsgSink() = default;
  };

  // Observer of every routed message, used by the coherence oracle's event
  // ring for failure-trace triage. Pure observation: never charges time or
  // perturbs FIFO clamping.
  class Observer {
   public:
    virtual void on_message(int src, int dst, std::size_t bytes,
                            sim::Time depart, sim::Time arrival) = 0;

   protected:
    ~Observer() = default;
  };

  // Widest machine that gets the dense nodes² channel table; larger
  // machines use the per-source sparse tables.
  static constexpr int kDenseNodeLimit = 64;

  Network(sim::Engine& engine, int nodes, const NetConfig& cfg);
  ~Network();

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  void set_msg_sink(MsgSink* sink) { sink_ = sink; }
  void set_observer(Observer* o) { observer_ = o; }
  Observer* observer() const { return observer_; }

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

  std::uint64_t messages_sent() const;
  std::uint64_t bytes_sent() const;
  std::uint64_t messages_from(int src) const {
    return per_node_msgs_[static_cast<std::size_t>(src)];
  }
  std::uint64_t bytes_from(int src) const {
    return per_node_bytes_[static_cast<std::size_t>(src)];
  }
  const NetConfig& config() const { return cfg_; }
  int nodes() const { return nodes_; }

  // Host bytes held by the channel table, the chunks of every record ring
  // (channels, staging, pools), the inboxes and the staging lists.
  std::size_t metadata_bytes() const;

  // What the pre-sparse dense nodes² channel table would occupy for a
  // machine this wide — the baseline the scale benches report sub-quadratic
  // metadata against.
  static std::size_t dense_equiv_bytes(int nodes) {
    return static_cast<std::size_t>(nodes) * static_cast<std::size_t>(nodes) *
           sizeof(Channel);
  }

 private:
  // A (src, dst) channel. last_arrival and staged are the source lane's;
  // next and drained the destination lane's; the ring is shared as
  // record_ring.h describes.
  struct Channel {
    sim::Time last_arrival = 0;
    RecordRing ring;
    // First record not yet delivered; none when no delivery is pending. The
    // published records before it are delivered and held for dispatch.
    RecordRing::Pos next;
    bool staged = false;   // in the source's staging list this window
    bool drained = false;  // in the destination's drained list
  };

  // A channel its source appended to during the current window.
  struct Staged {
    Channel* ch;
    int dst;
  };

  // A node's held records awaiting dispatch, as the channels that hold them
  // (each entry is the oldest held record of its channel at its turn): a
  // circular buffer that grows by doubling.
  struct Inbox {
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

  // Sparse mode (> kDenseNodeLimit nodes): per-source open-channel table.
  // The dst->slot index array is built on the source's first send; channels
  // live in fixed-size chunks that never move.
  struct SrcChannels {
    std::vector<std::uint32_t> slot;  // dst -> arena slot + 1; 0 = unopened
    std::vector<std::unique_ptr<Channel[]>> chunks;
    std::uint32_t count = 0;
  };
  static constexpr std::uint32_t kSparseChunk = 8;  // channels per chunk
  // Free chunk bytes a lane's pool keeps across a boundary under a worker
  // pool, where chunks drift from senders' pools to receivers'.
  static constexpr std::size_t kPoolKeepBytes = 64 * 1024;

  // Computes the FIFO-clamped arrival time and records traffic stats.
  sim::Time route(Channel& ch, int src, int dst, std::size_t bytes,
                  sim::Time depart);
  Channel& channel(int src, int dst) {
    if (!channels_.empty())
      return channels_[static_cast<std::size_t>(src) *
                           static_cast<std::size_t>(nodes_) +
                       static_cast<std::size_t>(dst)];
    return sparse_channel(src, dst);
  }
  Channel& sparse_channel(int src, int dst);
  template <typename F>
  void for_each_channel(F&& f);

  // Lane a node's events run on (lane 0 when windows are off).
  int lane_of(int node) const { return engine_.windowed() ? node : 0; }
  // Chunk pool of the context running on `lane`.
  ChunkPool& pool(int lane) {
    return pools_[static_cast<std::size_t>(lane) & pool_mask_];
  }

  // Schedules the delivery of ch's record at `next` (its reserved key).
  void schedule_delivery(Channel& ch, int dst, RecordRing::Pos next);
  void deliver(Channel& ch, int dst);
  void schedule_dispatch(int dst, const Record& r);
  void dispatch(int dst);
  // Pops ch's front record on dst's lane; a ring left empty joins dst's
  // drained list.
  void pop_front(Channel& ch, int dst);
  // Boundary flush (BoundaryOp::kNet): sources 0..N-1, then idle rings.
  void flush_staged();
  // Reserves the keys of the channel's unpublished records on st.dst's lane
  // and publishes them.
  void flush_entry(const Staged& st);

  sim::Engine& engine_;
  const int nodes_;
  const NetConfig cfg_;
  MsgSink* sink_ = nullptr;
  Observer* observer_ = nullptr;
  // Dense nodes² table, [src*nodes + dst]; sized once in the constructor and
  // never resized (events hold Channel pointers). Empty above
  // kDenseNodeLimit, where sparse_ takes over.
  std::vector<Channel> channels_;
  std::vector<SrcChannels> sparse_;
  // Traffic counters are per-source (the source lane owns its own slots, so
  // concurrent lane drains never share a counter); totals are summed on read.
  std::vector<std::uint64_t> per_node_msgs_;
  std::vector<std::uint64_t> per_node_bytes_;
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
