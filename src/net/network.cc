#include "net/network.h"

#include "check/bughook.h"
#include "util/check.h"

namespace presto::net {

Network::Network(sim::Engine& engine, int nodes, const NetConfig& cfg)
    : engine_(engine),
      nodes_(nodes),
      cfg_(cfg),
      per_node_msgs_(static_cast<std::size_t>(nodes), 0),
      per_node_bytes_(static_cast<std::size_t>(nodes), 0),
      inboxes_(static_cast<std::size_t>(nodes)),
      pools_(engine.workers() > 1 ? static_cast<std::size_t>(nodes) : 1),
      pool_mask_(engine.workers() > 1 ? ~std::size_t{0} : 0) {
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
    staged_.resize(static_cast<std::size_t>(nodes));
    drained_.resize(static_cast<std::size_t>(nodes));
    engine_.set_boundary_op(sim::BoundaryOp::kNet, [this] { flush_staged(); });
  }
}

template <typename F>
void Network::for_each_channel(F&& f) {
  for (Channel& ch : channels_) f(ch);
  for (SrcChannels& sc : sparse_)
    for (std::uint32_t i = 0; i < sc.count; ++i)
      f(sc.chunks[i / kSparseChunk][i % kSparseChunk]);
}

Network::~Network() {
  // Chunks still held (a run torn down early, or a ring's last chunk) go back
  // to a pool, which frees them.
  for_each_channel([this](Channel& ch) { ch.ring.clear(pool(0)); });
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
  for (const Inbox& in : inboxes_) n += in.q.capacity() * sizeof(Channel*);
  for (const ChunkPool& p : pools_) n += p.bytes();
  for (const auto& list : staged_) n += list.capacity() * sizeof(Staged);
  for (const auto& list : drained_) n += list.capacity() * sizeof(Channel*);
  n += holdover_.capacity() * sizeof(Staged);
  return n;
}

void Network::Inbox::push(Channel* ch) {
  if (size == q.size()) {
    // Full (or empty and unallocated): unroll into a buffer twice the size.
    std::vector<Channel*> grown(q.empty() ? 8 : q.size() * 2);
    for (std::size_t i = 0; i < size; ++i)
      grown[i] = q[(head + i) % q.size()];
    q.swap(grown);
    head = 0;
  }
  std::size_t at = head + size;
  if (at >= q.size()) at -= q.size();
  q[at] = ch;
  ++size;
}

sim::Time Network::route(Channel& ch, int src, int dst, std::size_t bytes,
                         sim::Time depart) {
  const sim::Time latency =
      (src == dst ? cfg_.self_latency
                  : cfg_.wire_latency +
                        static_cast<sim::Time>(bytes) * cfg_.per_byte);
  sim::Time arrival = depart + latency;
  if (arrival <= ch.last_arrival) arrival = ch.last_arrival + 1;
  ch.last_arrival = arrival;

  ++per_node_msgs_[static_cast<std::size_t>(src)];
  per_node_bytes_[static_cast<std::size_t>(src)] += bytes;
  if (observer_ != nullptr) [[unlikely]]
    observer_->on_message(src, dst, bytes, depart, arrival);
  return arrival;
}

void Network::schedule_delivery(Channel& ch, int dst, RecordRing::Pos next) {
  ch.next = next;
  const Record& r = next.rec();
  engine_.schedule_key(lane_of(dst), sim::Engine::EventKey{r.t, r.seq},
                       [this, ch = &ch, dst] { deliver(*ch, dst); });
}

void Network::deliver(Channel& ch, int dst) {
  const RecordRing::Pos at = ch.next;
  Record& r = at.rec();
  // Arm the channel's next delivery first, so a send made by the sink below
  // (a self-send on this channel) finds the channel's state consistent.
  if (const RecordRing::Pos nx = ch.ring.next(at))
    schedule_delivery(ch, dst, nx);
  else
    ch.next = RecordRing::Pos{};
  const sim::Time when = sink_->on_arrival(dst, r.bytes(), r.len);
  if (when == MsgSink::kDeliverNow) {
    PRESTO_CHECK(ch.ring.head() == at,
                 "record delivered at once behind held records");
    sink_->on_msg(dst, r.bytes(), r.len);
    pop_front(ch, dst);
    return;
  }
  // Held: the record's header now carries its dispatch key.
  const sim::Engine::EventKey k = engine_.reserve_key(lane_of(dst), when);
  r.t = k.t;
  r.seq = k.seq;
  Inbox& in = inboxes_[static_cast<std::size_t>(dst)];
  in.push(&ch);
  if (in.size == 1) schedule_dispatch(dst, r);
}

void Network::schedule_dispatch(int dst, const Record& r) {
  engine_.schedule_key(lane_of(dst), sim::Engine::EventKey{r.t, r.seq},
                       [this, dst] { dispatch(dst); });
}

void Network::dispatch(int dst) {
  Inbox& in = inboxes_[static_cast<std::size_t>(dst)];
  Channel& ch = *in.front();
  // The handler reads the record in place: pushes never move queued bytes,
  // and nothing pops this channel until the handler returns.
  const Record& r = ch.ring.front();
  sink_->on_msg(dst, r.bytes(), r.len);
  pop_front(ch, dst);
  in.pop();
  if (in.size != 0) schedule_dispatch(dst, in.front()->ring.front());
}

void Network::pop_front(Channel& ch, int dst) {
  const int lane = lane_of(dst);
  ch.ring.pop(pool(lane));
  if (ch.ring.empty() && !ch.drained && !drained_.empty()) {
    ch.drained = true;
    drained_[static_cast<std::size_t>(lane)].push_back(&ch);
  }
}

sim::Time Network::send_msg(int src, int dst, std::size_t wire_bytes,
                            sim::Time depart, const void* header,
                            std::size_t header_len, const void* payload,
                            std::size_t payload_len) {
  PRESTO_CHECK(sink_ != nullptr, "send_msg with no MsgSink registered");
  PRESTO_CHECK(src >= 0 && src < nodes_ && dst >= 0 && dst < nodes_,
               "bad endpoints " << src << "->" << dst);
  Channel& ch = channel(src, dst);
  const sim::Time arrival = route(ch, src, dst, wire_bytes, depart);
  if (src != dst && engine_.in_lane_context()) {
    PRESTO_CHECK(engine_.current_lane() == src,
                 "lane " << engine_.current_lane() << " sending as " << src);
    if (!ch.staged) {
      ch.staged = true;
      staged_[static_cast<std::size_t>(src)].push_back(Staged{&ch, dst});
    }
    // The key is reserved at the boundary, in flush order.
    ch.ring.append(pool(src), arrival, 0, header, header_len, payload,
                   payload_len);
    return arrival;
  }
  PRESTO_CHECK(!ch.staged, "direct send on a channel with staged records");
  const sim::Engine::EventKey k = engine_.reserve_key(lane_of(dst), arrival);
  const RecordRing::Pos at = ch.ring.push(pool(lane_of(src)), k.t, k.seq,
                                          header, header_len, payload,
                                          payload_len);
  if (!ch.next) schedule_delivery(ch, dst, at);
  return arrival;
}

void Network::flush_staged() {
  // Records held back by the planted delay bug are recovered first, so the
  // fault stays a one-window reordering rather than a lost message.
  for (const Staged& st : holdover_) flush_entry(st);
  holdover_.clear();
  // The planted bug fires only under a pooled drain (workers > 1): it models
  // a worker-pool flush-coordination mistake, and gating it this way keeps a
  // serial windowed run in the same process (the differential's reference)
  // clean while the parallel run under test diverges.
  if (check::bug_hooks().delay_window_flush && !flush_delayed_ && nodes_ > 1 &&
      engine_.workers() > 1 && !staged_[1].empty()) [[unlikely]] {
    // Planted bug (one-shot): hold source 1's staged records for a full
    // window. Their wire departure — and therefore arrival — slips by the
    // window width (merely re-inserting the events late would be invisible:
    // delivery times are absolute stamps). The channel's FIFO clamp moves
    // with them, so later sends still arrive behind them; a held channel
    // stays staged, so those later sends are published with it.
    flush_delayed_ = true;
    holdover_.swap(staged_[1]);
    for (const Staged& st : holdover_) {
      RecordRing& ring = st.ch->ring;
      for (RecordRing::Pos p = ring.unpublished(); p;
           p = ring.next_unpublished(p))
        p.rec().t += engine_.window();
      st.ch->last_arrival += engine_.window();
    }
  }
  for (auto& list : staged_) {
    for (const Staged& st : list) flush_entry(st);
    list.clear();
  }
  // Rings that drained this window and received nothing since hand their
  // last chunk back.
  for (std::size_t lane = 0; lane < drained_.size(); ++lane) {
    for (Channel* ch : drained_[lane]) {
      ch->drained = false;
      if (ch->ring.idle()) ch->ring.release(pools_[lane & pool_mask_]);
    }
    drained_[lane].clear();
  }
  if (pool_mask_ != 0)
    for (ChunkPool& p : pools_) p.trim(kPoolKeepBytes);
}

void Network::flush_entry(const Staged& st) {
  // Same keys, in the same order, as scheduling each record's delivery here
  // would take: sources ascending, each source's records in send order (a
  // source's records to one destination are exactly one channel's).
  Channel& ch = *st.ch;
  ch.staged = false;
  const int lane = lane_of(st.dst);
  const RecordRing::Pos first = ch.ring.unpublished();
  for (RecordRing::Pos p = first; p; p = ch.ring.next_unpublished(p)) {
    Record& r = p.rec();
    const sim::Engine::EventKey k = engine_.reserve_key(lane, r.t);
    r.t = k.t;
    r.seq = k.seq;
  }
  ch.ring.publish(pool(lane));
  if (!ch.next && first) schedule_delivery(ch, st.dst, first);
}

}  // namespace presto::net
