// Point-to-point interconnect model.
//
// Models a CM-5-style data network without contention: a message of b bytes
// sent at time t arrives at t + wire_latency + b * per_byte. Delivery between
// a fixed (src, dst) pair is FIFO — Stache's transaction serialization at the
// home node assumes ordered channels, which we enforce by clamping arrival
// times to be monotone per channel. Self-sends (protocol dispatch to the
// local node) use a cheaper loopback latency.
//
// send_msg copies the caller's header+payload bytes into the (src, dst)
// channel's record ring and hands them to the registered MsgSink at arrival
// time: no heap allocation in steady state and no closure per message.
//
// Channel state (FIFO clamp + ring) lives in one dense nodes² table indexed
// by src*nodes+dst on machines of up to kDenseNodeLimit nodes: a channel
// lookup is one multiply-add, the FIFO clamp and ring head share a cache
// line, and the table is allocated exactly once up front — Channel pointers
// captured by in-flight delivery events stay stable because the vector never
// grows. Rings start empty, so an idle channel costs sizeof(Channel), not a
// ring arena.
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
// drain may not touch the destination lane's event queue, so it is *staged*
// in the source node's outbox — routing (the FIFO clamp, traffic counters,
// the observer call) still happens at send time, on state the source lane
// owns. The outbox is only a per-source byte buffer plus one small entry per
// record. The boundary flush (BoundaryOp::kNet) walks sources 0..N-1 in send
// order, pushes each record into its (src, dst) channel ring and schedules
// its delivery there, exactly as a direct send would, then clears the
// buffers (keeping their capacity). So every record reaches the sink through
// its channel ring. During a drain a cross-node ring is only popped, by its
// destination lane; the source lane touches only the channel's FIFO clamp.
// Staging is per source, not per worker, so the flush order — and with it
// message sequence numbers and every simulated result — does not depend on
// how lanes were partitioned over workers. Self-sends and sends from outside
// any lane (setup, boundary context) push into the ring at once.
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
  // only valid for the duration of the on_msg call.
  class MsgSink {
   public:
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

  void set_msg_sink(MsgSink* sink) { sink_ = sink; }
  void set_observer(Observer* o) { observer_ = o; }
  Observer* observer() const { return observer_; }

  // Typed fast path: copies header+payload into the channel ring; the sink
  // receives the concatenated record at the arrival time. `wire_bytes` is
  // the simulated message size (it can differ from the host record size).
  // Returns the arrival time. Callable from engine and processor threads.
  sim::Time send_msg(int src, int dst, std::size_t wire_bytes,
                     sim::Time depart, const void* header,
                     std::size_t header_len, const void* payload,
                     std::size_t payload_len);

  // Lower bound on cross-node delivery latency. A windowed engine's window
  // width must not exceed this: a message departing at t < cap then arrives
  // at t + min_latency() >= cap, so boundary flushes never land in a
  // destination lane's past.
  sim::Time min_latency() const { return cfg_.wire_latency; }

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

  // Host bytes held by the channel table, its record rings and the staging
  // outboxes.
  std::size_t metadata_bytes() const;

  // What the pre-sparse dense nodes² channel table would occupy for a
  // machine this wide — the baseline the scale benches report sub-quadratic
  // metadata against.
  static std::size_t dense_equiv_bytes(int nodes) {
    return static_cast<std::size_t>(nodes) * static_cast<std::size_t>(nodes) *
           sizeof(Channel);
  }

 private:
  struct Channel {
    sim::Time last_arrival = 0;
    RecordRing ring;
  };

  // One staged cross-node record (windowed mode): its header+payload bytes
  // are [off, off + len) of the source outbox's byte buffer.
  struct Staged {
    int dst;
    std::uint32_t len;
    std::size_t off;
    sim::Time arrival;
  };
  // Per-source staging for one window; entries are flushed in send order.
  struct Outbox {
    std::vector<Staged> entries;
    std::vector<std::byte> bytes;
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

  // Computes the FIFO-clamped arrival time and records traffic stats.
  sim::Time route(int src, int dst, std::size_t bytes, sim::Time depart);
  Channel& channel(int src, int dst) {
    if (!channels_.empty())
      return channels_[static_cast<std::size_t>(src) *
                           static_cast<std::size_t>(nodes_) +
                       static_cast<std::size_t>(dst)];
    return sparse_channel(src, dst);
  }
  Channel& sparse_channel(int src, int dst);

  // Pops the front record of ch and hands it to the sink at `arrival`, on
  // the destination's lane (lane 0 when windows are off — the legacy path).
  void schedule_record_delivery(Channel& ch, int dst, sim::Time arrival);
  // Boundary flush (BoundaryOp::kNet): sources 0..N-1 in send order.
  void flush_staged();
  // Pushes ob's records into src's channel rings, schedules their
  // deliveries, and empties ob.
  void flush_outbox(int src, Outbox& ob);

  sim::Engine& engine_;
  const int nodes_;
  const NetConfig cfg_;
  MsgSink* sink_ = nullptr;
  Observer* observer_ = nullptr;
  // Dense nodes² table, [src*nodes + dst]; sized once in the constructor and
  // never resized (delivery events hold Channel pointers). Empty above
  // kDenseNodeLimit, where sparse_ takes over.
  std::vector<Channel> channels_;
  std::vector<SrcChannels> sparse_;
  // Traffic counters are per-source (the source lane owns its own slots, so
  // concurrent lane drains never share a counter); totals are summed on read.
  std::vector<std::uint64_t> per_node_msgs_;
  std::vector<std::uint64_t> per_node_bytes_;
  // Windowed mode only (empty otherwise).
  std::vector<Outbox> outboxes_;
  // Planted-bug state (check/bughook.h delay_window_flush): a one-shot hold
  // of source 1's whole outbox for a full window, recovered at the next
  // flush.
  Outbox holdover_;
  bool flush_delayed_ = false;
};

}  // namespace presto::net
