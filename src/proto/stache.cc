#include "proto/stache.h"

#include <cstdio>

#include "check/bughook.h"
#include "util/check.h"

namespace presto::proto {

// Logs a home-side event on the PRESTO_STACHE_TRACE block (Protocol::on_msg
// logs every message on it).
#define STACHE_TRACE(blk, ...)                                        \
  do {                                                                \
    if (static_cast<long>(blk) == trace_block()) [[unlikely]] {       \
      std::fprintf(stderr, __VA_ARGS__);                              \
    }                                                                 \
  } while (0)

StacheProtocol::StacheProtocol(sim::Engine& engine, net::Network& net,
                               mem::GlobalSpace& space, stats::Recorder& rec,
                               const ProtoCosts& costs)
    : Protocol(engine, net, space, rec, costs),
      dir_(static_cast<std::size_t>(space.nodes())),
      pend_(static_cast<std::size_t>(space.nodes())) {
  const std::uint32_t bpp = space.page_size() / space.block_size();
  for (auto& t : dir_) t.configure(bpp);
}

void StacheProtocol::pend_push(int home, DirEntry& d, int node,
                               bool is_write) {
  PendPool& pool = pend_[static_cast<std::size_t>(home)];
  std::uint32_t idx;
  if (pool.free != kNoPend) {
    idx = pool.free;
    pool.free = pool.nodes[idx].next;
  } else {
    idx = static_cast<std::uint32_t>(pool.nodes.size());
    pool.nodes.emplace_back();
  }
  auto& n = pool.nodes[idx];
  n.node = node;
  n.is_write = is_write;
  n.next = kNoPend;
  if (d.pend_tail == kNoPend) {
    d.pend_head = idx;
  } else {
    pool.nodes[d.pend_tail].next = idx;
  }
  d.pend_tail = idx;
}

std::pair<int, bool> StacheProtocol::pend_pop(int home, DirEntry& d) {
  PRESTO_CHECK(d.pend_head != kNoPend, "pend_pop on empty chain");
  PendPool& pool = pend_[static_cast<std::size_t>(home)];
  const std::uint32_t idx = d.pend_head;
  auto& n = pool.nodes[idx];
  const std::pair<int, bool> out{n.node, n.is_write};
  d.pend_head = n.next;
  if (d.pend_head == kNoPend) d.pend_tail = kNoPend;
  n.next = pool.free;
  pool.free = idx;
  return out;
}

std::size_t StacheProtocol::metadata_bytes() const {
  std::size_t n = Protocol::metadata_bytes();
  for (const auto& t : dir_) {
    n += t.bytes_resident();
    t.for_each([&](mem::BlockId, const DirEntry& d) {
      n += d.readers.heap_bytes();
    });
  }
  for (const auto& pool : pend_) n += pool.nodes.capacity() * sizeof(PendNode);
  return n;
}

std::size_t StacheProtocol::check_invariants() const {
  std::size_t checked = 0;
  for (int h = 0; h < space_.nodes(); ++h) {
    dir_[static_cast<std::size_t>(h)].for_each([&](mem::BlockId b,
                                                   const DirEntry& d) {
      if (d.busy) return;  // transient transaction state
      ++checked;
      switch (d.state) {
        case DirEntry::S::Idle:
          PRESTO_CHECK(space_.tag(h, b) == mem::Tag::ReadWrite,
                       "Idle block " << b << ": home " << h
                                     << " lost ReadWrite");
          for (int n = 0; n < space_.nodes(); ++n)
            PRESTO_CHECK(n == h || space_.tag(n, b) == mem::Tag::Invalid,
                         "Idle block " << b << ": stale copy at node " << n);
          break;
        case DirEntry::S::Shared:
          PRESTO_CHECK(space_.tag(h, b) == mem::Tag::ReadOnly,
                       "Shared block " << b << ": home tag wrong");
          PRESTO_CHECK(d.readers.any(),
                       "Shared block " << b << " with no readers");
          PRESTO_CHECK(!d.readers.test(h),
                       "Shared block " << b << " lists its home " << h);
          for (int n = 0; n < space_.nodes(); ++n) {
            if (n == h) continue;
            const bool listed = d.readers.test(n);
            const mem::Tag t = space_.tag(n, b);
            PRESTO_CHECK(listed ? t == mem::Tag::ReadOnly
                                : t == mem::Tag::Invalid,
                         "Shared block " << b << ": node " << n << " tag "
                                         << static_cast<int>(t)
                                         << " listed=" << listed);
          }
          break;
        case DirEntry::S::Excl:
          PRESTO_CHECK(d.owner >= 0 && d.owner != h,
                       "Excl block " << b << ": bad owner " << d.owner);
          PRESTO_CHECK(space_.tag(d.owner, b) == mem::Tag::ReadWrite,
                       "Excl block " << b << ": owner " << d.owner
                                     << " lacks ReadWrite");
          for (int n = 0; n < space_.nodes(); ++n)
            PRESTO_CHECK(n == d.owner ||
                             space_.tag(n, b) == mem::Tag::Invalid,
                         "Excl block " << b << ": stale copy at node " << n);
          break;
      }
    });
  }
  return checked;
}

void StacheProtocol::on_fault(int node, mem::BlockId b, bool is_write) {
  auto& c = rec_.node(node);
  if (is_write)
    ++c.write_faults;
  else
    ++c.read_faults;
  const int home = space_.home_of_block(b);
  if (home == node) ++c.local_faults;

  Msg m;
  m.type = is_write ? MsgType::GetX : MsgType::GetS;
  m.src = node;
  m.block = b;
  // costs_.fault: software fault vectoring (Blizzard).
  remote_miss(node, b, is_write, costs_.fault, home, m,
              [&] { return access_ok(node, b, is_write); });
}

void StacheProtocol::handle(int self, const Msg& m) {
  switch (m.type) {
    case MsgType::GetS:
      start_request(self, m.block, m.src, /*is_write=*/false);
      break;
    case MsgType::GetX:
      start_request(self, m.block, m.src, /*is_write=*/true);
      break;

    case MsgType::RecallS: {
      // self is the owner: downgrade to ReadOnly, return fresh data.
      PRESTO_CHECK(space_.tag(self, m.block) == mem::Tag::ReadWrite,
                   "RecallS at non-owner node " << self << " block "
                                                << m.block);
      space_.set_tag(self, m.block, mem::Tag::ReadOnly);
      Msg r;
      r.type = MsgType::RecallAckData;
      r.src = self;
      r.block = m.block;
      r.data = space_.block_data(self, m.block);
      r.data_len = space_.block_size();
      send_from_handler(self, m.src, std::move(r));
      break;
    }
    case MsgType::RecallX: {
      PRESTO_CHECK(space_.tag(self, m.block) == mem::Tag::ReadWrite,
                   "RecallX at non-owner node " << self << " block "
                                                << m.block);
      Msg r;
      r.type = MsgType::RecallAckData;
      r.src = self;
      r.block = m.block;
      r.data = space_.block_data(self, m.block);
      r.data_len = space_.block_size();
      space_.set_tag(self, m.block, mem::Tag::Invalid);
      send_from_handler(self, m.src, std::move(r));
      break;
    }

    case MsgType::Inv: {
      if (!check::bug_hooks().skip_invalidate)
        space_.set_tag(self, m.block, mem::Tag::Invalid);
      Msg r;
      r.type = MsgType::InvAck;
      r.src = self;
      r.block = m.block;
      send_from_handler(self, m.src, std::move(r));
      break;
    }

    case MsgType::InvAck: {
      auto& d = dir(self, m.block);
      PRESTO_CHECK(d.busy && d.acks_needed > 0,
                   "stray InvAck at " << self << " block " << m.block);
      if (--d.acks_needed == 0) complete_getx(self, m.block, d.req_node);
      break;
    }

    case MsgType::RecallAckData: {
      auto& d = dir(self, m.block);
      PRESTO_CHECK(d.busy, "stray RecallAckData at " << self);
      take_recalled(self, m, d);
      if (d.req_write)
        complete_getx(self, m.block, d.req_node);
      else
        complete_gets(self, m.block, d.req_node);
      break;
    }

    case MsgType::DataS:
      install_block(self, m.block, m.data, mem::Tag::ReadOnly);
      break;
    case MsgType::DataX:
      install_block(self, m.block, m.data, mem::Tag::ReadWrite);
      break;

    default:
      PRESTO_FAIL("unhandled message " << msg_type_name(m.type)
                                       << " at node " << self);
  }
}

void StacheProtocol::take_recalled(int home, const Msg& m, DirEntry& d) {
  std::memcpy(space_.block_data(home, m.block), m.data, space_.block_size());
  notify_install(home, m.block, m.data,
                 d.req_write ? mem::Tag::ReadWrite : mem::Tag::ReadOnly);
  if (d.req_write) {
    // RecallX: the owner invalidated; the home holds the sole copy.
    d.owner = -1;
    d.readers.clear();
    d.state = DirEntry::S::Idle;
    space_.set_tag(home, m.block, mem::Tag::ReadWrite);
  } else {
    // RecallS: the owner downgraded to a reader.
    d.readers.set(d.owner);
    d.owner = -1;
    d.state = DirEntry::S::Shared;
    space_.set_tag(home, m.block, mem::Tag::ReadOnly);
  }
}

void StacheProtocol::start_request(int home, mem::BlockId b, int requester,
                                   bool is_write) {
  auto& d = dir(home, b);
  STACHE_TRACE(b,
               "T=%lld home %d start_request req=%d w=%d state=%d owner=%d "
               "busy=%d pend=%d\n",
               static_cast<long long>(engine_.now()), home, requester,
               static_cast<int>(is_write), static_cast<int>(d.state), d.owner,
               static_cast<int>(d.busy), static_cast<int>(d.has_pending()));
  if (d.busy) {
    pend_push(home, d, requester, is_write);
    return;
  }
  record_request(home, b, requester, is_write);

  if (!is_write) {
    switch (d.state) {
      case DirEntry::S::Idle:
      case DirEntry::S::Shared:
        complete_gets(home, b, requester);
        return;
      case DirEntry::S::Excl: {
        d.busy = true;
        d.req_node = requester;
        d.req_write = false;
        Msg r;
        r.type = MsgType::RecallS;
        r.src = home;
        r.block = b;
        send_from_handler(home, d.owner, std::move(r));
        return;
      }
    }
  }

  switch (d.state) {
    case DirEntry::S::Idle:
      complete_getx(home, b, requester);
      return;
    case DirEntry::S::Shared: {
      int acks = 0;
      for_each_sharer(d.readers, requester, home, [&](int) { ++acks; });
      if (acks == 0) {
        // Sole-reader upgrade.
        complete_getx(home, b, requester);
        return;
      }
      d.busy = true;
      d.req_node = requester;
      d.req_write = true;
      d.acks_needed = acks;
      for_each_sharer(d.readers, requester, home, [&](int n) {
        Msg r;
        r.type = MsgType::Inv;
        r.src = home;
        r.block = b;
        send_from_handler(home, n, std::move(r));
      });
      return;
    }
    case DirEntry::S::Excl: {
      PRESTO_CHECK(d.owner != requester, "owner faulted on its own block");
      d.busy = true;
      d.req_node = requester;
      d.req_write = true;
      Msg r;
      r.type = MsgType::RecallX;
      r.src = home;
      r.block = b;
      send_from_handler(home, d.owner, std::move(r));
      return;
    }
  }
}

void StacheProtocol::grant(int home, mem::BlockId b, int requester,
                           mem::Tag tag) {
  if (requester == home) {
    space_.set_tag(home, b, tag);
    if (is_waiting_on(home, b)) wake_waiter(home);
    return;
  }
  Msg r;
  r.type = tag == mem::Tag::ReadWrite ? MsgType::DataX : MsgType::DataS;
  r.src = home;
  r.block = b;
  r.data = space_.block_data(home, b);
  r.data_len = space_.block_size();
  send_from_handler(home, requester, std::move(r));
}

void StacheProtocol::complete_gets(int home, mem::BlockId b, int requester) {
  auto& d = dir(home, b);
  if (requester != home) {
    d.readers.set(requester);
    d.state = DirEntry::S::Shared;
    // The home's own copy drops to ReadOnly so its future writes fault.
    if (space_.tag(home, b) == mem::Tag::ReadWrite)
      space_.set_tag(home, b, mem::Tag::ReadOnly);
  }
  grant(home, b, requester, mem::Tag::ReadOnly);
  finish_transaction(home, b);
}

void StacheProtocol::complete_getx(int home, mem::BlockId b, int requester) {
  auto& d = dir(home, b);
  d.readers.clear();
  if (requester == home) {
    d.owner = -1;
    d.state = DirEntry::S::Idle;
    grant(home, b, requester, mem::Tag::ReadWrite);
  } else {
    d.owner = requester;
    d.state = DirEntry::S::Excl;
    space_.set_tag(home, b, mem::Tag::Invalid);
    grant(home, b, requester, mem::Tag::ReadWrite);
  }
  finish_transaction(home, b);
}

void StacheProtocol::finish_transaction(int home, mem::BlockId b) {
  auto& d = dir(home, b);
  d.req_node = -1;
  d.acks_needed = 0;
  if (d.has_pending()) {
    const auto [node, is_write] = pend_pop(home, d);
    // Process the queued request after another handler occupancy slot. The
    // entry stays busy until then: a request arriving in the gap must queue
    // *behind* the dequeued one, or a spinning requester could jump the
    // queue forever and starve it (observed with contended locks). Note
    // busy is set explicitly — fast-path completions reach here without it.
    d.busy = true;
    engine_.schedule_in(costs_.handler, [this, home, b, node, is_write] {
      dir(home, b).busy = false;
      start_request(home, b, node, is_write);
    });
  } else {
    d.busy = false;
  }
}

}  // namespace presto::proto
