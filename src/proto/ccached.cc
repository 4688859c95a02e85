#include "proto/ccached.h"

#include <cstring>

#include "check/bughook.h"
#include "util/check.h"

namespace presto::proto {

CCachedProtocol::CCachedProtocol(sim::Engine& engine, net::Network& net,
                                 mem::GlobalSpace& space, stats::Recorder& rec,
                                 const ProtoCosts& costs)
    : StacheProtocol(engine, net, space, rec, costs),
      words_per_block_(space.block_size() / 8),
      logs_(static_cast<std::size_t>(space.nodes())),
      flushq_(static_cast<std::size_t>(space.nodes())),
      pump_scheduled_(static_cast<std::size_t>(space.nodes()), 0) {
  PRESTO_CHECK(space.block_size() >= 8,
               "ccached needs 8-byte words; block size " << space.block_size());
  const std::uint32_t bpp = space.page_size() / space.block_size();
  for (auto& nl : logs_) nl.slot.configure(bpp);
}

void CCachedProtocol::cc_add(int node, mem::Addr a, std::int64_t delta) {
  const mem::BlockId b = space_.block_of(a);
  PRESTO_CHECK(space_.is_commutative(b),
               "cc_add outside a commutative region, addr " << a);
  const std::size_t off =
      static_cast<std::size_t>(a) & (space_.block_size() - 1);
  PRESTO_CHECK((off & 7) == 0, "cc_add not 8-byte aligned, addr " << a);

  auto& nl = logs_[static_cast<std::size_t>(node)];
  std::uint32_t& s = nl.slot.at(b);
  if (s == 0) {
    std::uint32_t idx;
    if (!nl.free.empty()) {
      idx = nl.free.back();
      nl.free.pop_back();
    } else {
      idx = static_cast<std::uint32_t>(nl.pool.size());
      nl.pool.emplace_back();
      nl.pool[idx].delta.resize(words_per_block_, 0);
      nl.pool[idx].used.resize(words_per_block_, 0);
    }
    nl.pool[idx].block = b;
    nl.active.push_back(idx);
    s = idx + 1;
  }
  WordLog& wl = nl.pool[s - 1];
  const std::size_t w = off >> 3;
  wl.delta[w] += delta;
  wl.used[w] = 1;
  if (trace::Hooks* h = engine_.trace_hooks(); h != nullptr) [[unlikely]]
    h->on_cc_update(node, b, off, delta);
}

void CCachedProtocol::cc_flush(int node) {
  auto& nl = logs_[static_cast<std::size_t>(node)];
  while (!nl.active.empty())
    flush_block(node, nl.pool[nl.active.front()].block);
}

void CCachedProtocol::on_fault(int node, mem::BlockId b, bool is_write) {
  if (space_.is_commutative(b) &&
      logs_[static_cast<std::size_t>(node)].slot.at(b) != 0)
    flush_block(node, b);
  StacheProtocol::on_fault(node, b, is_write);
}

void CCachedProtocol::flush_block(int node, mem::BlockId b) {
  auto& nl = logs_[static_cast<std::size_t>(node)];
  std::uint32_t& s = nl.slot.at(b);
  if (s == 0) return;
  const std::uint32_t idx = s - 1;
  WordLog& wl = nl.pool[idx];

  // Marshal the used words into scratch and reset the log before sending —
  // the payload is copied into the channel ring by send_from_app, and no
  // handler for this node touches scratch while its app thread is parked.
  auto* entries = reinterpret_cast<FlushEntry*>(
      scratch(node, words_per_block_ * sizeof(FlushEntry)));
  std::uint32_t count = 0;
  for (std::uint32_t w = 0; w < words_per_block_; ++w) {
    if (wl.used[w] == 0) continue;
    entries[count].word = w;
    entries[count].delta = wl.delta[w];
    ++count;
    wl.used[w] = 0;
    wl.delta[w] = 0;
  }
  s = 0;
  nl.free.push_back(idx);
  for (std::size_t i = 0; i < nl.active.size(); ++i) {
    if (nl.active[i] == idx) {
      nl.active.erase(nl.active.begin() + static_cast<std::ptrdiff_t>(i));
      break;
    }
  }
  if (count == 0) return;

  Msg m;
  m.type = MsgType::CcFlush;
  m.src = node;
  m.block = b;
  m.count = count;
  m.data = reinterpret_cast<const std::byte*>(entries);
  m.data_len = count * static_cast<std::uint32_t>(sizeof(FlushEntry));
  expect_ack(node);
  // costs_.presend_per_block: log marshaling.
  remote_miss(node, b, /*is_write=*/true, costs_.presend_per_block,
              space_.home_of_block(b), m, [&] { return !acks_pending(node); });
  auto& c = rec_.node(node);
  ++c.cc_flushes;
  c.cc_flushed_entries += count;
}

void CCachedProtocol::handle(int self, const Msg& m) {
  switch (m.type) {
    case MsgType::CcFlush: {
      FlushOp op;
      op.src = m.src;
      op.block = m.block;
      op.entries.resize(m.count);
      std::memcpy(op.entries.data(), m.data,
                  m.count * sizeof(FlushEntry));
      flushq_[static_cast<std::size_t>(self)].push_back(std::move(op));
      try_pump(self);
      return;
    }
    case MsgType::CcFlushAck:
      ack(self);
      return;
    default:
      StacheProtocol::handle(self, m);
  }
}

void CCachedProtocol::try_pump(int home) {
  if (pump_scheduled_[static_cast<std::size_t>(home)] != 0) return;
  auto& q = flushq_[static_cast<std::size_t>(home)];
  while (!q.empty()) {
    const FlushOp& op = q.front();
    const mem::BlockId b = op.block;
    {
      DirEntry& d = dir(home, b);
      if (!d.busy && d.state != DirEntry::S::Idle) {
        // Quiesce remote copies with a home write request through the
        // ordinary transaction engine; it may complete inline (sole-reader
        // upgrade) or leave the entry busy with recalls/invalidations in
        // flight.
        start_request(home, b, home, /*is_write=*/true);
      }
    }
    DirEntry& d = dir(home, b);
    if (d.busy || d.state != DirEntry::S::Idle) {
      // Re-poll after a handler occupancy; one pump per home at a time.
      pump_scheduled_[static_cast<std::size_t>(home)] = 1;
      engine_.schedule_in(costs_.handler, [this, home] {
        pump_scheduled_[static_cast<std::size_t>(home)] = 0;
        try_pump(home);
      });
      return;
    }
    // Idle and quiescent: the home holds the sole ReadWrite copy.
    apply_flush(home, op);
    Msg ack;
    ack.type = MsgType::CcFlushAck;
    ack.src = home;
    ack.block = b;
    send_from_handler(home, op.src, std::move(ack));
    q.pop_front();
  }
}

void CCachedProtocol::apply_flush(int home, const FlushOp& op) {
  PRESTO_CHECK(space_.tag(home, op.block) == mem::Tag::ReadWrite,
               "merge at home " << home << " without ReadWrite on block "
                                << op.block);
  std::byte* data = space_.block_data(home, op.block);
  const auto& hooks = check::bug_hooks();
  const int rounds = hooks.double_apply_on_replay ? 2 : 1;
  for (int r = 0; r < rounds; ++r) {
    for (std::size_t i = 0; i < op.entries.size(); ++i) {
      if (i == 0 && hooks.drop_merge_entry) continue;
      const FlushEntry& e = op.entries[i];
      PRESTO_CHECK(e.word < words_per_block_,
                   "flush entry word " << e.word << " out of range");
      std::int64_t v;
      std::memcpy(&v, data + e.word * 8, 8);
      v += e.delta;
      std::memcpy(data + e.word * 8, &v, 8);
    }
  }
  auto& c = rec_.node(home);
  ++c.cc_merged_flushes;
  c.cc_merged_entries += op.entries.size();
}

std::size_t CCachedProtocol::metadata_bytes() const {
  std::size_t n = StacheProtocol::metadata_bytes();
  for (const auto& nl : logs_) {
    n += nl.slot.bytes_resident();
    n += nl.active.capacity() * sizeof(nl.active[0]);
    n += nl.free.capacity() * sizeof(nl.free[0]);
    n += nl.pool.capacity() * sizeof(WordLog);
    for (const auto& wl : nl.pool)
      n += wl.delta.capacity() * sizeof(wl.delta[0]) + wl.used.capacity();
  }
  for (const auto& q : flushq_) {
    n += q.size() * sizeof(FlushOp);
    for (const auto& op : q) n += op.entries.capacity() * sizeof(FlushEntry);
  }
  return n;
}

}  // namespace presto::proto
