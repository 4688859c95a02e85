#include "trace/tracer.h"

#include <algorithm>
#include <cstring>

#include "sim/engine.h"
#include "sim/processor.h"
#include "util/check.h"

namespace presto::trace {

Tracer::Tracer(const TraceConfig& cfg, mem::GlobalSpace& space,
               sim::Engine* engine)
    : cfg_(cfg),
      space_(space),
      engine_(engine),
      bufs_(engine != nullptr ? static_cast<std::size_t>(space.nodes()) : 1),
      shards_(engine != nullptr ? static_cast<std::size_t>(space.nodes()) : 1),
      buf_mask_(engine != nullptr ? ~std::size_t{0} : 0),
      shard_mask_(engine != nullptr ? ~std::size_t{0} : 0),
      node_events_(static_cast<std::size_t>(space.nodes()), 0),
      node_dropped_(static_cast<std::size_t>(space.nodes()), 0),
      state_(static_cast<std::size_t>(space.nodes())),
      cur_phase_(static_cast<std::size_t>(space.nodes()), -1),
      pending_count_(static_cast<std::size_t>(space.nodes()), 0),
      miss_(static_cast<std::size_t>(space.nodes())) {
  const std::uint32_t bpp = space.page_size() / space.block_size();
  for (auto& t : state_) t.configure(bpp);
  for (std::size_t k = 0; k < kNumEventKinds; ++k)
    kind_enabled_[k] =
        (cfg_.categories & event_kind_category(static_cast<EventKind>(k))) != 0;
  if (engine_ != nullptr) {
    PRESTO_CHECK(engine_->windowed(), "the tracer needs a windowed engine");
    // Overwrites any previous tracer's slot (enable_oracle re-attaches).
    engine_->set_boundary_op(sim::BoundaryOp::kTrace,
                             [this] { stamp_window(); });
  }
}

Tracer::~Tracer() = default;

Summary::PhaseTotals& Tracer::phase_totals(int node) {
  auto& phases = sum(node).phases;
  const std::size_t idx =
      static_cast<std::size_t>(cur_phase_[static_cast<std::size_t>(node)] + 1);
  if (idx >= phases.size()) phases.resize(idx + 1);
  return phases[idx];
}

void Tracer::emit(EventKind k, int node, sim::Time t, std::uint64_t block,
                  std::uint32_t arg, std::int16_t peer, std::uint16_t aux) {
  if (!kind_enabled_[static_cast<std::size_t>(k)]) return;
  std::uint64_t& ne = node_events_[static_cast<std::size_t>(node)];
  if (ne >= cfg_.max_events_per_node) [[unlikely]] {
    ++node_dropped_[static_cast<std::size_t>(node)];
    return;
  }
  NodeBuf& buf = bufs_[static_cast<std::size_t>(node) & buf_mask_];
  Event* e = buf.cur;
  if (e == buf.end) [[unlikely]] e = refill(buf);
  buf.cur = e + 1;
  Event ev;
  ev.t = static_cast<std::uint64_t>(t);
  ev.block = block;
  // Events buffer unstamped; stamp_window() assigns the canonical sequence
  // in bulk (window boundaries and finalize).
  ev.seq = 0;
  ev.arg = arg;
  ev.kind = static_cast<std::uint16_t>(k);
  ev.node = static_cast<std::int16_t>(node);
  ev.peer = peer;
  ev.aux = aux;
  *e = ev;
  ++ne;
}

Event* Tracer::refill(NodeBuf& buf) {
  // Sealed full; stamped at the next window boundary (canonical order is
  // node-major per window), while its chunk is still warm.
  if (!buf.chunks.empty()) buf.chunks.back()->n = kChunkEvents;
  // Default-init, not make_unique: value-initialization would memset the
  // whole chunk that the cursor is about to overwrite anyway — with a fresh
  // chunk every 2048 events, that zeroing pass doubles the append path's
  // memory traffic.
  buf.chunks.push_back(std::unique_ptr<Chunk>(new Chunk));
  Chunk& c = *buf.chunks.back();
  c.n = 0;
  buf.cur = c.ev.data();
  buf.end = buf.cur + kChunkEvents;
  return buf.cur;
}

void Tracer::sync_tail(NodeBuf& buf) {
  if (buf.chunks.empty()) return;
  Chunk& c = *buf.chunks.back();
  c.n = static_cast<std::size_t>(buf.cur - c.ev.data());
}

void Tracer::stamp_window() {
  for (auto& buf : bufs_) {
    sync_tail(buf);
    std::size_t ci = buf.stamp_chunk;
    std::size_t pos = buf.stamp_pos;
    while (ci < buf.chunks.size()) {
      Chunk& c = *buf.chunks[ci];
      for (; pos < c.n; ++pos) {
        PRESTO_CHECK(seq_ != 0xffffffffu, "trace sequence space exhausted");
        c.ev[pos].seq = seq_++;
      }
      if (c.n < kChunkEvents) break;  // still-filling tail chunk
      ++ci;
      pos = 0;
    }
    buf.stamp_chunk = ci;
    buf.stamp_pos = pos;
  }
}

// ---- Presend accounting -----------------------------------------------------

void Tracer::resolve_pending(int node, mem::BlockId b, bool hit, sim::Time t) {
  // Caller has already tested the pending bit; clear it and classify.
  state(node, b) &= static_cast<std::uint8_t>(~kPending);
  --pending_count_[static_cast<std::size_t>(node)];
  Summary& sm = sum(node);
  auto& ph = phase_totals(node);
  if (hit) {
    ++sm.presend_hits;
    ++ph.presend_hits;
    emit(EventKind::kPresendHit, node, t, b, 0, -1, 0);
  } else {
    ++sm.presend_waste;
    ++ph.presend_waste;
    emit(EventKind::kPresendWaste, node, t, b, 0, -1, 0);
  }
}

// ---- trace::Hooks -----------------------------------------------------------

void Tracer::on_phase_begin(int node, int phase, sim::Time t) {
  cur_phase_[static_cast<std::size_t>(node)] = phase;
  emit(EventKind::kPhaseBegin, node, t, 0,
       static_cast<std::uint32_t>(phase), -1, 0);
}

void Tracer::on_phase_ready(int node, int phase, sim::Time t) {
  emit(EventKind::kPhaseReady, node, t, 0,
       static_cast<std::uint32_t>(phase), -1, 0);
}

void Tracer::on_phase_flush(int node, int phase, sim::Time t) {
  emit(EventKind::kPhaseFlush, node, t, 0,
       static_cast<std::uint32_t>(phase), -1, 0);
}

void Tracer::on_barrier_arrive(int node, std::uint64_t epoch, sim::Time t) {
  emit(EventKind::kBarrierArrive, node, t, epoch, 0, -1, 0);
}

void Tracer::on_barrier_release(int node, std::uint64_t epoch, sim::Time t) {
  emit(EventKind::kBarrierRelease, node, t, epoch, 0, -1, 0);
}

void Tracer::on_lock_acquire(int node, std::uint64_t lock_block, sim::Time t) {
  emit(EventKind::kLockAcquire, node, t, lock_block, 0, -1, 0);
}

void Tracer::on_lock_acquired(int node, std::uint64_t lock_block, sim::Time t,
                              bool contended) {
  emit(EventKind::kLockAcquired, node, t, lock_block, contended ? 1 : 0, -1,
       0);
}

void Tracer::on_lock_release(int node, std::uint64_t lock_block, sim::Time t) {
  emit(EventKind::kLockRelease, node, t, lock_block, 0, -1, 0);
}

void Tracer::on_miss_start(int node, std::uint64_t block, bool is_write,
                           sim::Time t0) {
  std::uint8_t& st = state(node, static_cast<mem::BlockId>(block));
  MissClass cls;
  if ((st & kPending) != 0) {
    // The schedule presend-installed this block and the node faulted on it
    // anyway (e.g. a read-presend followed by a write, or an intervening
    // invalidation): the presend was waste, and the miss is attributed to it.
    cls = MissClass::kPresendWaste;
    resolve_pending(node, static_cast<mem::BlockId>(block), /*hit=*/false,
                    t0);
  } else {
    cls = (st & kEverValid) != 0 ? MissClass::kInvalidation : MissClass::kCold;
  }
  // Misses on commutative blocks are merge traffic: ccached's flush round
  // trips, and under the other protocols the reduction ping-pong ccached
  // replaces. Classified after the pending-bit logic so the presend
  // hit/waste/unused partition is untouched and the class is comparable
  // across protocols.
  if (space_.is_commutative(static_cast<mem::BlockId>(block)))
    cls = MissClass::kMerge;
  auto& m = miss_[static_cast<std::size_t>(node)];
  m.t0 = t0;
  m.cls = cls;
  emit(EventKind::kMissStart, node, t0, block, 0, -1,
       static_cast<std::uint16_t>(static_cast<std::uint16_t>(cls) |
                                  (is_write ? kMissWriteBit : 0)));
}

void Tracer::on_miss_end(int node, std::uint64_t block, bool is_write,
                         sim::Time t1) {
  const auto& m = miss_[static_cast<std::size_t>(node)];
  const sim::Time total = t1 - m.t0;
  Summary& sm = sum(node);
  ++sm.misses;
  ++sm.miss_by_class[static_cast<std::size_t>(m.cls)];
  sm.miss_latency_total += total;
  auto& ph = phase_totals(node);
  ++ph.misses;
  ++ph.miss_by_class[static_cast<std::size_t>(m.cls)];
  ph.miss_latency += total;
  const std::uint64_t cap = 0xffffffffull;
  emit(EventKind::kMissEnd, node, t1, block,
       static_cast<std::uint32_t>(
           std::min<std::uint64_t>(static_cast<std::uint64_t>(total), cap)),
       -1,
       static_cast<std::uint16_t>(static_cast<std::uint16_t>(m.cls) |
                                  (is_write ? kMissWriteBit : 0)));
}

void Tracer::on_msg_send(int src, int dst, std::uint8_t msg_type,
                         std::uint64_t block, std::uint32_t count,
                         std::uint32_t wire_bytes, sim::Time depart) {
  (void)count;
  emit(EventKind::kMsgSend, src, depart, block, wire_bytes,
       static_cast<std::int16_t>(dst), msg_type);
}

void Tracer::on_msg_recv(int dst, int src, std::uint8_t msg_type,
                         std::uint64_t block, std::uint32_t wire_bytes,
                         sim::Time arrival, sim::Time dispatch) {
  emit(EventKind::kMsgRecv, dst, arrival, block, wire_bytes,
       static_cast<std::int16_t>(src), msg_type);
  emit(EventKind::kMsgDispatch, dst, dispatch, block, wire_bytes,
       static_cast<std::int16_t>(src), msg_type);
}

void Tracer::on_presend_install(int node, int src, std::uint64_t block0,
                                std::uint32_t count, sim::Time t) {
  for (std::uint32_t k = 0; k < count; ++k) {
    const mem::BlockId b = static_cast<mem::BlockId>(block0 + k);
    std::uint8_t& st = state(node, b);
    if ((st & kPending) != 0) {
      // A fresh presend overwrote one the node never consumed.
      resolve_pending(node, b, /*hit=*/false, t);
    }
    st |= kEverValid | kPending;
    ++pending_count_[static_cast<std::size_t>(node)];
  }
  sum(node).presend_installs += count;
  emit(EventKind::kPresendInstall, node, t, block0, count,
       static_cast<std::int16_t>(src), 0);
}

void Tracer::on_ctx_block(int node, sim::Time t) {
  emit(EventKind::kCtxBlock, node, t, 0, 0, -1, 0);
}

void Tracer::on_ctx_resume(int node, sim::Time t) {
  emit(EventKind::kCtxResume, node, t, 0, 0, -1, 0);
}

// ---- mem::AccessObserver ----------------------------------------------------

void Tracer::on_app_read(int node, mem::BlockId b, std::size_t off,
                         const void* seen, std::size_t n) {
  std::uint8_t& st = state(node, b);
  if ((st & kPending) != 0) {
    // Access completed without a fault on a presend-installed block: the
    // schedule saved this miss. (A faulting access resolves the pending bit
    // as waste in on_miss_start before this hook runs.)
    resolve_pending(node, b, /*hit=*/true, engine_->processor(node).now());
  }
  st |= kEverValid;
  if (next_access_ != nullptr) next_access_->on_app_read(node, b, off, seen, n);
}

void Tracer::on_app_write(int node, mem::BlockId b, std::size_t off,
                          const void* data, std::size_t n) {
  std::uint8_t& st = state(node, b);
  if ((st & kPending) != 0)
    resolve_pending(node, b, /*hit=*/true, engine_->processor(node).now());
  st |= kEverValid;
  if (next_access_ != nullptr)
    next_access_->on_app_write(node, b, off, data, n);
}

void Tracer::on_cc_update(int node, mem::BlockId b, std::size_t off,
                          std::int64_t delta) {
  // Privatized update: no copy became valid at the node, so no state change
  // and no event — but the chained oracle must still see it to keep its
  // committed shadow exact.
  if (next_access_ != nullptr) next_access_->on_cc_update(node, b, off, delta);
}

// ---- proto::CoherenceObserver -----------------------------------------------

void Tracer::on_data_send(int src, int dst, const proto::Msg& m) {
  if (next_coherence_ != nullptr) next_coherence_->on_data_send(src, dst, m);
}

void Tracer::on_install(int node, mem::BlockId b, const std::byte* data,
                        mem::Tag tag) {
  state(node, b) |= kEverValid;
  emit(EventKind::kInstall, node, engine_->now(), b, 0,
       static_cast<std::int16_t>(tag), 0);
  if (next_coherence_ != nullptr)
    next_coherence_->on_install(node, b, data, tag);
}

// ---- net::Network::Observer -------------------------------------------------

void Tracer::on_message(int src, int dst, std::size_t bytes, sim::Time depart,
                        sim::Time arrival) {
  // Protocol traffic is covered by on_msg_send/on_msg_recv (typed, with
  // block ids); this chain-through keeps the oracle's event ring intact.
  if (next_net_ != nullptr)
    next_net_->on_message(src, dst, bytes, depart, arrival);
}

// ---- End of run -------------------------------------------------------------

void Tracer::finalize(sim::Time exec_time, const char* protocol_name) {
  if (finalized_) return;
  finalized_ = true;
  exec_time_ = exec_time;
  protocol_name_ = protocol_name;
  {
    // Stamp anything not yet sequenced (everything since the last window
    // boundary). Then fold the summary shards (node order, like stamping)
    // and the per-node append/drop counts.
    stamp_window();
    for (std::size_t i = 0; i < node_events_.size(); ++i) {
      summary_.events += node_events_[i];
      summary_.dropped += node_dropped_[i];
    }
    for (const Summary& s : shards_) {
      summary_.misses += s.misses;
      for (std::size_t i = 0; i < kNumMissClasses; ++i)
        summary_.miss_by_class[i] += s.miss_by_class[i];
      summary_.miss_latency_total += s.miss_latency_total;
      summary_.presend_installs += s.presend_installs;
      summary_.presend_hits += s.presend_hits;
      summary_.presend_waste += s.presend_waste;
      if (s.phases.size() > summary_.phases.size())
        summary_.phases.resize(s.phases.size());
      for (std::size_t i = 0; i < s.phases.size(); ++i) {
        auto& dst = summary_.phases[i];
        const auto& src = s.phases[i];
        dst.misses += src.misses;
        for (std::size_t k = 0; k < kNumMissClasses; ++k)
          dst.miss_by_class[k] += src.miss_by_class[k];
        dst.miss_latency += src.miss_latency;
        dst.presend_hits += src.presend_hits;
        dst.presend_waste += src.presend_waste;
      }
    }
  }
  // Presends never consumed: attribute them to the phase each target node
  // ended in. hits + waste + unused == presend_blocks_received.
  for (int n = 0; n < space_.nodes(); ++n)
    summary_.presend_unused += pending_count_[static_cast<std::size_t>(n)];
}

TraceData Tracer::build(const proto::ProtoCosts& costs,
                        const net::NetConfig& net_cfg) const {
  PRESTO_CHECK(finalized_, "Tracer::build before finalize");
  TraceData t;
  t.meta.nodes = static_cast<std::uint32_t>(space_.nodes());
  t.meta.block_size = space_.block_size();
  t.meta.categories = cfg_.categories;
  std::strncpy(t.meta.protocol, protocol_name_.c_str(),
               sizeof(t.meta.protocol) - 1);
  t.meta.cost_fault = costs.fault;
  t.meta.cost_handler = costs.handler;
  t.meta.cost_presend_per_block = costs.presend_per_block;
  t.meta.header_bytes = static_cast<std::int64_t>(costs.header_bytes);
  t.meta.net_wire_latency = net_cfg.wire_latency;
  t.meta.net_per_byte = net_cfg.per_byte;
  t.meta.net_self_latency = net_cfg.self_latency;
  t.meta.exec_time = exec_time_;
  t.meta.dropped = summary_.dropped;

  t.events.reserve(static_cast<std::size_t>(summary_.events));
  for (const auto& buf : bufs_)
    for (const auto& c : buf.chunks)
      t.events.insert(t.events.end(), c->ev.begin(), c->ev.begin() + c->n);
  // Canonical order: the global record sequence (a deterministic total
  // order — one context runs at a time).
  std::sort(t.events.begin(), t.events.end(),
            [](const Event& a, const Event& b) { return a.seq < b.seq; });
  return t;
}

Digest Tracer::digest() const {
  PRESTO_CHECK(finalized_, "Tracer::digest before finalize");
  const TraceData t = build(proto::ProtoCosts{}, net::NetConfig{});
  Digest d;
  d.events = t.events.size();
  std::uint64_t h = kFnvBasis;
  for (const Event& e : t.events) {
    h = fnv1a64(h, &e, sizeof(Event));
    ++d.by_kind[e.kind];
  }
  d.hash = h;
  return d;
}

}  // namespace presto::trace
