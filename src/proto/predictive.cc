#include "proto/predictive.h"

#include <algorithm>
#include <limits>

#include "check/bughook.h"
#include "util/check.h"

namespace presto::proto {

PredictiveProtocol::PredictiveProtocol(sim::Engine& engine, net::Network& net,
                                       mem::GlobalSpace& space,
                                       stats::Recorder& rec,
                                       const ProtoCosts& costs,
                                       ConflictPolicy conflicts)
    : StacheProtocol(engine, net, space, rec, costs),
      sched_(static_cast<std::size_t>(space.nodes())),
      cur_phase_(static_cast<std::size_t>(space.nodes()), -1),
      push_batch_(static_cast<std::size_t>(space.nodes())),
      inv_batch_(static_cast<std::size_t>(space.nodes())),
      blocks_per_page_(space.page_size() / space.block_size()),
      conflict_policy_(conflicts) {
  PRESTO_CHECK(space.nodes() - 1 <= std::numeric_limits<std::uint16_t>::max(),
               "predictive presend batches address at most 65536 nodes, got "
                   << space.nodes());
}

PredictiveProtocol::BatchItem PredictiveProtocol::batch_item(int target,
                                                             mem::BlockId b,
                                                             mem::Tag tag) {
  PRESTO_CHECK(b <= std::numeric_limits<std::uint32_t>::max(),
               "block id " << b << " does not fit a presend batch item");
  return BatchItem{static_cast<std::uint32_t>(b),
                   static_cast<std::uint16_t>(target), tag};
}

void PredictiveProtocol::PhaseSched::ensure_sorted() {
  if (sorted) return;
  std::sort(recs.begin(), recs.end(),
            [](const Rec& a, const Rec& b) { return a.block < b.block; });
  for (std::uint32_t i = 0; i < recs.size(); ++i)
    index.at(recs[i].block) = i + 1;
  sorted = true;
}

PredictiveProtocol::PhaseSched& PredictiveProtocol::ensure_phase(int home,
                                                                 int phase) {
  auto& phases = sched_[static_cast<std::size_t>(home)];
  const auto p = static_cast<std::size_t>(phase);
  if (p >= phases.size()) phases.resize(p + 1);
  if (phases[p] == nullptr) {
    phases[p] = std::make_unique<PhaseSched>();
    phases[p]->index.configure(blocks_per_page_);
  }
  return *phases[p];
}

std::size_t PredictiveProtocol::schedule_size(int home, int phase) const {
  const auto& phases = sched_[static_cast<std::size_t>(home)];
  const auto p = static_cast<std::size_t>(phase);
  if (phase < 0 || p >= phases.size() || phases[p] == nullptr) return 0;
  return phases[p]->recs.size();
}

std::size_t PredictiveProtocol::metadata_bytes() const {
  std::size_t n = StacheProtocol::metadata_bytes();
  for (const auto& phases : sched_) {
    n += phases.capacity() * sizeof(phases[0]);
    for (const auto& ps : phases) {
      if (ps == nullptr) continue;
      n += sizeof(PhaseSched) + ps->recs.capacity() * sizeof(PhaseSched::Rec) +
           ps->index.bytes_resident();
      for (const auto& r : ps->recs)
        n += r.e.readers.heap_bytes() + r.e.writers.heap_bytes();
    }
  }
  for (const auto& v : push_batch_) n += v.capacity() * sizeof(BatchItem);
  for (const auto& v : inv_batch_) n += v.capacity() * sizeof(BatchItem);
  return n;
}

void PredictiveProtocol::record_request(int home, mem::BlockId b,
                                        int requester, bool is_write) {
  const int phase = cur_phase_[static_cast<std::size_t>(home)];
  if (phase < 0) return;
  auto& ps = ensure_phase(home, phase);
  ++rec_.node(home).sched_lookups;
  std::uint32_t& slot = ps.index.at(b);
  if (slot == 0) {
    ps.sorted = ps.sorted && (ps.recs.empty() || b > ps.recs.back().block);
    ps.recs.push_back(PhaseSched::Rec{b, Entry{}});
    slot = static_cast<std::uint32_t>(ps.recs.size());
    ++ps.gen;
    ++rec_.node(home).schedule_entries;
  }
  Entry& e = ps.recs[slot - 1].e;
  if (!e.first_set) {
    e.first_set = true;
    e.first_is_write = is_write;
  }
  if (is_write)
    e.writers.set(requester);
  else
    e.readers.set(requester);
}

PredictiveProtocol::Kind PredictiveProtocol::derive(const Entry& e) const {
  if (e.writers.none()) return Kind::kRead;
  util::NodeSet readers_only = e.readers;
  readers_only.subtract(e.writers);
  if (e.writers.single() && readers_only.none()) return Kind::kWrite;
  return Kind::kConflict;
}

void PredictiveProtocol::phase_flush(int node, int phase) {
  auto& phases = sched_[static_cast<std::size_t>(node)];
  const auto p = static_cast<std::size_t>(phase);
  if (phase >= 0 && p < phases.size()) phases[p].reset();
}

void PredictiveProtocol::phase_begin(int node, int phase) {
  auto& p = proc(node);
  const sim::Time t0 = p.now();
  cur_phase_[static_cast<std::size_t>(node)] = phase;
  do_presend(node, phase);
  PRESTO_CHECK(barrier_, "predictive protocol needs a barrier callback");
  barrier_(node);
  rec_.node(node).presend += p.now() - t0;
}

void PredictiveProtocol::do_presend(int node, int phase) {
  auto& phases = sched_[static_cast<std::size_t>(node)];
  const auto pi = static_cast<std::size_t>(phase);
  if (phase < 0 || pi >= phases.size() || phases[pi] == nullptr ||
      phases[pi]->recs.empty())
    return;
  // unique_ptr target: stable while the phase vector grows mid-walk (only
  // phase_flush frees it, and it cannot run during this node's presend).
  PhaseSched& ps = *phases[pi];
  auto& p = proc(node);
  PRESTO_CHECK(!acks_pending(node), "nested presend on node " << node);

  // Resolve each entry's action, applying the conflict policy.
  auto resolve = [&](const Entry& e) -> std::pair<Kind, int> {
    Kind k = derive(e);
    if (k == Kind::kConflict) {
      if (conflict_policy_ == ConflictPolicy::kAnticipate) {
        // Anticipate the first stable state before the conflict (§3.4).
        if (!e.first_is_write && e.readers.any()) return {Kind::kRead, -1};
        if (e.first_is_write && e.writers.single())
          return {Kind::kWrite, e.writers.first()};
      }
      return {Kind::kConflict, -1};
    }
    return {k, k == Kind::kWrite ? e.writers.first() : -1};
  };

  // ---- Stage 1: recall dirty data held by remote owners --------------------
  // The charge() below can yield to the engine, and handlers at this home
  // may record new blocks into this very schedule mid-walk. Re-sort and
  // re-locate the cursor whenever that happens; entries landing behind the
  // cursor are skipped, ahead of it are visited (std::map semantics).
  ps.ensure_sorted();
  std::uint64_t gen = ps.gen;
  std::size_t idx = 0;
  while (idx < ps.recs.size()) {
    const mem::BlockId b = ps.recs[idx].block;
    p.charge(costs_.presend_per_block);
    if (ps.gen != gen) {
      ps.ensure_sorted();
      gen = ps.gen;
      ++rec_.node(node).sched_lookups;
      idx = ps.index.at(b) - 1;
    }
    // Copy: the entry may have gained readers/writers during the yield, and
    // recs may reallocate under later insertions.
    const Entry e = ps.recs[idx].e;
    ++idx;
    const auto [kind, writer] = resolve(e);
    if (kind == Kind::kConflict) {
      ++rec_.node(node).conflict_entries;
      continue;
    }
    auto& d = dir(node, b);
    if (d.busy || d.state != DirEntry::S::Excl) continue;
    if (kind == Kind::kWrite && d.owner == writer) continue;  // already placed
    d.busy = true;
    d.req_node = node;
    d.req_write = kind == Kind::kWrite;
    d.presend_recall = true;
    Msg m;
    m.type = kind == Kind::kWrite ? MsgType::RecallX : MsgType::RecallS;
    m.src = node;
    m.block = b;
    expect_ack(node);
    ++rec_.node(node).presend_recalls;
    send_from_app(node, d.owner, std::move(m));
  }
  await_acks(node);

  // ---- Stage 2: coalesced pushes and pre-invalidations ----------------------
  auto& push = push_batch_[static_cast<std::size_t>(node)];
  auto& inv = inv_batch_[static_cast<std::size_t>(node)];
  push.clear();
  inv.clear();

  // No yields inside this walk (sends happen after it), so the schedule
  // cannot change mid-iteration; one up-front sort suffices.
  ps.ensure_sorted();
  for (const auto& [b, e] : ps.recs) {
    const auto [kind, writer] = resolve(e);
    if (kind == Kind::kConflict) continue;
    auto& d = dir(node, b);
    if (d.busy) continue;

    if (kind == Kind::kRead) {
      PRESTO_CHECK(d.state != DirEntry::S::Excl,
                   "presend read entry still exclusive after recalls");
      // Anticipated readers (from the schedule) minus those the directory
      // already lists.
      util::NodeSet targets = e.readers.without(node);
      targets.subtract(d.readers);
      targets.for_each([&](int t) {
        push.push_back(batch_item(t, b, mem::Tag::ReadOnly));
      });
      if (targets.any()) {
        targets.for_each([&](int t) { d.readers.set(t); });
        d.state = DirEntry::S::Shared;
        if (space_.tag(node, b) == mem::Tag::ReadWrite)
          space_.set_tag(node, b, mem::Tag::ReadOnly);
      }
    } else {  // kWrite
      if (writer == node) {
        // Pre-invalidate remote copies so the home's writes do not stall.
        if (d.state == DirEntry::S::Shared) {
          for_each_sharer(d.readers, node, -1, [&](int t) {
            inv.push_back(batch_item(t, b, mem::Tag::Invalid));
          });
          d.readers.clear();
          d.state = DirEntry::S::Idle;
          space_.set_tag(node, b, mem::Tag::ReadWrite);
        }
      } else {
        if (d.state == DirEntry::S::Excl) continue;  // owner == writer
        for_each_sharer(d.readers, writer, node, [&](int t) {
          inv.push_back(batch_item(t, b, mem::Tag::Invalid));
        });
        push.push_back(batch_item(writer, b, mem::Tag::ReadWrite));
        d.readers.clear();
        d.owner = writer;
        d.state = DirEntry::S::Excl;
        space_.set_tag(node, b, mem::Tag::Invalid);
      }
    }
  }

  // Group by target: the stable sort keeps each target's items in the block
  // order they were appended, so runs coalesce exactly as they did when each
  // target had its own dense vector, and the target-ascending merge below
  // reproduces the dense layout's emission order (per target: pushes, then
  // invalidations).
  const auto by_target = [](const BatchItem& a, const BatchItem& x) {
    return a.target < x.target;
  };
  std::stable_sort(push.begin(), push.end(), by_target);
  std::stable_sort(inv.begin(), inv.end(), by_target);
  std::size_t ip = 0, iv = 0;
  while (ip < push.size() || iv < inv.size()) {
    const int t = std::min(
        ip < push.size() ? int{push[ip].target} : std::numeric_limits<int>::max(),
        iv < inv.size() ? int{inv[iv].target} : std::numeric_limits<int>::max());
    if (ip < push.size() && push[ip].target == t) {
      std::size_t e = ip + 1;
      while (e < push.size() && push[e].target == t) ++e;
      send_bulk_runs(node, t, push.data() + ip, e - ip, /*invalidate=*/false);
      ip = e;
    }
    if (iv < inv.size() && inv[iv].target == t) {
      std::size_t e = iv + 1;
      while (e < inv.size() && inv[e].target == t) ++e;
      send_bulk_runs(node, t, inv.data() + iv, e - iv, /*invalidate=*/true);
      iv = e;
    }
  }
  await_acks(node);
}

void PredictiveProtocol::send_bulk_runs(int node, int target,
                                        const BatchItem* items,
                                        std::size_t count_items,
                                        bool invalidate) {
  auto& p = proc(node);
  auto& c = rec_.node(node);

  std::size_t i = 0;
  while (i < count_items) {
    // Extend a run of contiguous blocks with the same install tag.
    std::size_t j = i + 1;
    while (coalescing_ && j < count_items &&
           std::uint64_t{items[j].block} ==
               std::uint64_t{items[j - 1].block} + 1 &&
           items[j].tag == items[i].tag)
      ++j;
    const std::uint32_t count = static_cast<std::uint32_t>(j - i);

    Msg m;
    m.type = invalidate ? MsgType::BulkInv : MsgType::BulkData;
    m.src = node;
    m.block = items[i].block;
    m.count = count;
    m.tag = static_cast<std::uint8_t>(items[i].tag);
    if (!invalidate) {
      // The snapshot is taken before the charge() yield, as a send buffer
      // filled by the handler would be; nothing else writes this node's
      // scratch while its thread is parked in charge().
      gather_run(node, m);
      c.presend_blocks_sent += count;
    } else {
      c.presend_inv_blocks += count;
    }
    ++c.presend_msgs;
    expect_ack(node);
    p.charge(costs_.handler);  // software send cost for the bulk message
    send_from_app(node, target, std::move(m));
    i = j;
  }
}

void PredictiveProtocol::handle(int self, const Msg& m) {
  switch (m.type) {
    case MsgType::RecallAckData: {
      auto& d = dir(self, m.block);
      if (!d.presend_recall) break;  // a Stache transaction's recall
      d.presend_recall = false;
      take_recalled(self, m, d);
      d.busy = false;
      d.req_node = -1;
      ack(self);
      return;
    }
    case MsgType::BulkData: {
      const std::size_t bsz = space_.block_size();
      for (std::uint32_t k = 0; k < m.count; ++k)
        install_block(self, m.block + k,
                      check::bug_hooks().drop_presend_data
                          ? nullptr  // grant the tag but keep stale bytes
                          : m.data + k * bsz,
                      static_cast<mem::Tag>(m.tag));
      rec_.node(self).presend_blocks_received += m.count;
      if (trace::Hooks* h = engine_.trace_hooks(); h != nullptr) [[unlikely]]
        h->on_presend_install(self, m.src, m.block, m.count, engine_.now());
      Msg r;
      r.type = MsgType::BulkAck;
      r.src = self;
      r.block = m.block;
      r.count = m.count;
      send_from_handler(self, m.src, std::move(r));
      return;
    }
    case MsgType::BulkInv: {
      for (std::uint32_t k = 0; k < m.count; ++k)
        space_.set_tag(self, m.block + k, mem::Tag::Invalid);
      Msg r;
      r.type = MsgType::BulkInvAck;
      r.src = self;
      r.block = m.block;
      r.count = m.count;
      send_from_handler(self, m.src, std::move(r));
      return;
    }
    case MsgType::BulkAck:
    case MsgType::BulkInvAck:
      ack(self);
      return;
    default:
      break;
  }
  StacheProtocol::handle(self, m);
}

}  // namespace presto::proto
