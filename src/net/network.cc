#include "net/network.h"

#include "check/bughook.h"
#include "util/check.h"

namespace presto::net {

Network::Network(sim::Engine& engine, int nodes, const NetConfig& cfg)
    : engine_(engine),
      nodes_(nodes),
      cfg_(cfg),
      sources_(static_cast<std::size_t>(nodes)),
      inboxes_(static_cast<std::size_t>(nodes)),
      pools_(engine.workers() > 1 ? static_cast<std::size_t>(nodes) : 1),
      pool_mask_(engine.workers() > 1 ? ~std::size_t{0} : 0) {
  for (int n = 0; n < nodes_; ++n) {
    inboxes_[static_cast<std::size_t>(n)].net = this;
    inboxes_[static_cast<std::size_t>(n)].dst = n;
  }
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
  for (SrcChannels& sc : sources_)
    for (std::uint32_t i = 0; i < sc.count; ++i)
      f(sc.chunks[i / kChannelChunk][i % kChannelChunk]);
}

Network::~Network() {
  // Chunks still held (a run torn down early, or a ring's last chunk) go back
  // to a pool, which frees them.
  for_each_channel([this](Channel& ch) { ch.ring.clear(pool(0)); });
}

Network::Channel& Network::open_channel(int src, int dst) {
  SrcChannels& sc = sources_[static_cast<std::size_t>(src)];
  if (sc.slot.empty()) sc.slot.resize(static_cast<std::size_t>(nodes_), 0);
  std::uint32_t& s = sc.slot[static_cast<std::size_t>(dst)];
  if (s == 0) {
    if (sc.count % kChannelChunk == 0)
      sc.chunks.push_back(std::make_unique<Channel[]>(kChannelChunk));
    s = ++sc.count;
  }
  const std::uint32_t idx = s - 1;
  Channel& ch = sc.chunks[idx / kChannelChunk][idx % kChannelChunk];
  ch.net = this;
  ch.dst = dst;
  return ch;
}

std::size_t Network::metadata_bytes() const {
  std::size_t n = sources_.capacity() * sizeof(SrcChannels);
  for (const auto& sc : sources_) {
    n += sc.slot.capacity() * sizeof(std::uint32_t) +
         sc.chunks.capacity() * sizeof(sc.chunks[0]) +
         sc.chunks.size() * kChannelChunk * sizeof(Channel);
    for (std::uint32_t i = 0; i < sc.count; ++i)
      n += sc.chunks[i / kChannelChunk][i % kChannelChunk]
               .ring.capacity_bytes();
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
  return arrival;
}

void Network::schedule_delivery(Channel& ch, RecordRing::Pos next) {
  ch.next = next;
  const Record& r = next.rec();
  engine_.post_key(engine_.lane_of(ch.dst), sim::Engine::EventKey{r.t, r.seq},
                   &Network::deliver_event, &ch);
}

void Network::deliver_event(void* channel) {
  auto& ch = *static_cast<Channel*>(channel);
  ch.net->deliver(ch);
}

void Network::deliver(Channel& ch) {
  const int dst = ch.dst;
  const RecordRing::Pos at = ch.next;
  Record& r = at.rec();
  if (const RecordRing::Pos nx = ch.ring.next(at))
    schedule_delivery(ch, nx);
  else
    ch.next = RecordRing::Pos{};
  // The record waits in its channel; its header now carries its dispatch key.
  const sim::Engine::EventKey k = engine_.reserve_key(
      engine_.lane_of(dst), sink_->on_arrival(dst, r.bytes(), r.len));
  r.t = k.t;
  r.seq = k.seq;
  Inbox& in = inboxes_[static_cast<std::size_t>(dst)];
  in.push(&ch);
  if (in.size == 1) schedule_dispatch(in, r);
}

void Network::schedule_dispatch(Inbox& in, const Record& r) {
  engine_.post_key(engine_.lane_of(in.dst), sim::Engine::EventKey{r.t, r.seq},
                   &Network::dispatch_event, &in);
}

void Network::dispatch_event(void* inbox) {
  auto& in = *static_cast<Inbox*>(inbox);
  in.net->dispatch(in);
}

void Network::dispatch(Inbox& in) {
  Channel& ch = *in.front();
  // The handler reads the record in place: pushes never move queued bytes,
  // and nothing pops this channel until the handler returns.
  const Record& r = ch.ring.front();
  sink_->on_msg(in.dst, r.bytes(), r.len);
  pop_front(ch);
  in.pop();
  if (in.size != 0) schedule_dispatch(in, in.front()->ring.front());
}

void Network::pop_front(Channel& ch) {
  const int lane = engine_.lane_of(ch.dst);
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
  const sim::Engine::EventKey k =
      engine_.reserve_key(engine_.lane_of(dst), arrival);
  const RecordRing::Pos at =
      ch.ring.push(pool(engine_.lane_of(src)), k.t, k.seq, header,
                   header_len, payload, payload_len);
  if (!ch.next) schedule_delivery(ch, at);
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
  // Only a lane this window drained can have staged a send or drained a
  // ring; the list is ascending, so sources flush in order.
  const std::vector<int>& lanes = engine_.window_lanes();
  for (const int src : lanes) {
    auto& list = staged_[static_cast<std::size_t>(src)];
    for (const Staged& st : list) flush_entry(st);
    list.clear();
  }
  // Rings that drained this window and received nothing since hand their
  // last chunk back.
  for (const int lane : lanes) {
    auto& list = drained_[static_cast<std::size_t>(lane)];
    for (Channel* ch : list) {
      ch->drained = false;
      if (ch->ring.idle()) ch->ring.release(pool(lane));
    }
    list.clear();
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
  const int lane = engine_.lane_of(st.dst);
  const RecordRing::Pos first = ch.ring.unpublished();
  for (RecordRing::Pos p = first; p; p = ch.ring.next_unpublished(p)) {
    Record& r = p.rec();
    const sim::Engine::EventKey k = engine_.reserve_key(lane, r.t);
    r.t = k.t;
    r.seq = k.seq;
  }
  ch.ring.publish(pool(lane));
  if (!ch.next && first) schedule_delivery(ch, first);
}

}  // namespace presto::net
