#include "net/network.h"

#include "check/bughook.h"
#include "util/check.h"

namespace presto::net {

Network::Network(sim::Engine& engine, int nodes, const NetConfig& cfg)
    : engine_(engine),
      nodes_(nodes),
      cfg_(cfg),
      per_node_msgs_(static_cast<std::size_t>(nodes), 0),
      per_node_bytes_(static_cast<std::size_t>(nodes), 0) {
  if (nodes <= kDenseNodeLimit)
    channels_.resize(static_cast<std::size_t>(nodes) *
                     static_cast<std::size_t>(nodes));
  else
    sparse_.resize(static_cast<std::size_t>(nodes));
  if (engine_.windowed()) {
    PRESTO_CHECK(engine_.window() <= min_latency(),
                 "window width " << engine_.window()
                                 << " exceeds the network's minimum latency "
                                 << min_latency());
    outboxes_.resize(static_cast<std::size_t>(nodes));
    engine_.set_boundary_op(sim::BoundaryOp::kNet, [this] { flush_staged(); });
  }
}

std::uint64_t Network::messages_sent() const {
  std::uint64_t n = 0;
  for (const std::uint64_t m : per_node_msgs_) n += m;
  return n;
}

std::uint64_t Network::bytes_sent() const {
  std::uint64_t n = 0;
  for (const std::uint64_t b : per_node_bytes_) n += b;
  return n;
}

Network::Channel& Network::sparse_channel(int src, int dst) {
  SrcChannels& sc = sparse_[static_cast<std::size_t>(src)];
  if (sc.slot.empty()) sc.slot.resize(static_cast<std::size_t>(nodes_), 0);
  std::uint32_t& s = sc.slot[static_cast<std::size_t>(dst)];
  if (s == 0) {
    if (sc.count % kSparseChunk == 0)
      sc.chunks.push_back(std::make_unique<Channel[]>(kSparseChunk));
    s = ++sc.count;
  }
  const std::uint32_t idx = s - 1;
  return sc.chunks[idx / kSparseChunk][idx % kSparseChunk];
}

std::size_t Network::metadata_bytes() const {
  std::size_t n = channels_.capacity() * sizeof(Channel);
  for (const auto& ch : channels_) n += ch.ring.capacity_bytes();
  for (const auto& sc : sparse_) {
    n += sc.slot.capacity() * sizeof(std::uint32_t) +
         sc.chunks.capacity() * sizeof(sc.chunks[0]) +
         sc.chunks.size() * kSparseChunk * sizeof(Channel);
    for (std::uint32_t i = 0; i < sc.count; ++i)
      n += sc.chunks[i / kSparseChunk][i % kSparseChunk].ring.capacity_bytes();
  }
  for (const Outbox& ob : outboxes_)
    n += ob.entries.capacity() * sizeof(Staged) + ob.bytes.capacity();
  n += holdover_.entries.capacity() * sizeof(Staged) +
       holdover_.bytes.capacity();
  return n;
}

sim::Time Network::route(int src, int dst, std::size_t bytes,
                         sim::Time depart) {
  PRESTO_CHECK(src >= 0 && src < nodes_ && dst >= 0 && dst < nodes_,
               "bad endpoints " << src << "->" << dst);
  const sim::Time latency =
      (src == dst ? cfg_.self_latency
                  : cfg_.wire_latency +
                        static_cast<sim::Time>(bytes) * cfg_.per_byte);
  sim::Time arrival = depart + latency;

  Channel& ch = channel(src, dst);
  if (arrival <= ch.last_arrival) arrival = ch.last_arrival + 1;
  ch.last_arrival = arrival;

  ++per_node_msgs_[static_cast<std::size_t>(src)];
  per_node_bytes_[static_cast<std::size_t>(src)] += bytes;
  if (observer_ != nullptr) [[unlikely]]
    observer_->on_message(src, dst, bytes, depart, arrival);
  return arrival;
}

void Network::schedule_record_delivery(Channel& ch, int dst,
                                       sim::Time arrival) {
  // The channel is FIFO (arrival times are clamped monotone), so the event
  // pops the front record — a 16-byte capture, no per-message allocation.
  engine_.schedule_on(engine_.windowed() ? dst : 0, arrival,
                      [this, ch = &ch, dst] {
                        std::size_t len;
                        const std::byte* rec = ch->ring.front(&len);
                        ch->ring.pop();  // never moves bytes; rec stays valid
                        sink_->on_msg(dst, rec, len);
                      });
}

sim::Time Network::send_msg(int src, int dst, std::size_t wire_bytes,
                            sim::Time depart, const void* header,
                            std::size_t header_len, const void* payload,
                            std::size_t payload_len) {
  PRESTO_CHECK(sink_ != nullptr, "send_msg with no MsgSink registered");
  const sim::Time arrival = route(src, dst, wire_bytes, depart);
  if (src != dst && engine_.in_lane_context()) {
    PRESTO_CHECK(engine_.current_lane() == src,
                 "lane " << engine_.current_lane() << " sending as " << src);
    Outbox& ob = outboxes_[static_cast<std::size_t>(src)];
    const std::size_t off = ob.bytes.size();
    const auto* h = static_cast<const std::byte*>(header);
    ob.bytes.insert(ob.bytes.end(), h, h + header_len);
    if (payload_len > 0) {
      const auto* p = static_cast<const std::byte*>(payload);
      ob.bytes.insert(ob.bytes.end(), p, p + payload_len);
    }
    ob.entries.push_back(
        Staged{dst, static_cast<std::uint32_t>(header_len + payload_len), off,
               arrival});
    return arrival;
  }
  Channel& ch = channel(src, dst);
  ch.ring.push(header, header_len, payload, payload_len);
  schedule_record_delivery(ch, dst, arrival);
  return arrival;
}

void Network::flush_staged() {
  // An outbox held back by the planted delay bug is recovered first, so the
  // fault stays a one-window reordering rather than a lost message.
  if (!holdover_.entries.empty()) flush_outbox(1, holdover_);
  // The planted bug fires only under a pooled drain (workers > 1): it models
  // a worker-pool flush-coordination mistake, and gating it this way keeps a
  // serial windowed run in the same process (the differential's reference)
  // clean while the parallel run under test diverges.
  if (check::bug_hooks().delay_window_flush && !flush_delayed_ && nodes_ > 1 &&
      engine_.workers() > 1 && !outboxes_[1].entries.empty()) [[unlikely]] {
    // Planted bug (one-shot): hold source 1's outbox for a full window. The
    // messages physically sit in the outbox, so their wire departure — and
    // therefore arrival — slips by the window width (merely re-inserting the
    // events late would be invisible: delivery times are absolute stamps).
    flush_delayed_ = true;
    std::swap(holdover_, outboxes_[1]);
    for (Staged& s : holdover_.entries) s.arrival += engine_.window();
  }
  for (std::size_t src = 0; src < outboxes_.size(); ++src)
    flush_outbox(static_cast<int>(src), outboxes_[src]);
}

void Network::flush_outbox(int src, Outbox& ob) {
  for (const Staged& s : ob.entries) {
    Channel& ch = channel(src, s.dst);
    ch.ring.push(ob.bytes.data() + s.off, s.len, nullptr, 0);
    schedule_record_delivery(ch, s.dst, s.arrival);
  }
  ob.entries.clear();
  ob.bytes.clear();
}

}  // namespace presto::net
