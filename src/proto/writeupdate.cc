#include "proto/writeupdate.h"

#include "util/check.h"

namespace presto::proto {

WriteUpdateProtocol::WriteUpdateProtocol(sim::Engine& engine,
                                         net::Network& net,
                                         mem::GlobalSpace& space,
                                         stats::Recorder& rec,
                                         const ProtoCosts& costs)
    : Protocol(engine, net, space, rec, costs),
      readers_(static_cast<std::size_t>(space.nodes())),
      dirty_(static_cast<std::size_t>(space.nodes())),
      fwd_(static_cast<std::size_t>(space.nodes())) {
  const std::uint32_t bpp = space.page_size() / space.block_size();
  for (auto& t : readers_) t.configure(bpp);
  for (auto& t : dirty_) t.configure(bpp);
}

std::uint64_t WriteUpdateProtocol::alloc_token(int home, ForwardState init) {
  TokenPool& tp = fwd_[static_cast<std::size_t>(home)];
  std::uint32_t slot;
  if (tp.free_head != kNoSlot) {
    slot = tp.free_head;
    tp.free_head = tp.pool[slot].next_free;
  } else {
    slot = static_cast<std::uint32_t>(tp.pool.size());
    tp.pool.emplace_back();
  }
  init.live = true;
  init.next_free = kNoSlot;
  tp.pool[slot] = init;
  return static_cast<std::uint64_t>(slot) + 1;
}

WriteUpdateProtocol::ForwardState& WriteUpdateProtocol::forward_state(
    int home, std::uint64_t token) {
  TokenPool& tp = fwd_[static_cast<std::size_t>(home)];
  PRESTO_CHECK(token != 0 && token <= tp.pool.size() &&
                   tp.pool[static_cast<std::size_t>(token - 1)].live,
               "stray forward token " << token);
  return tp.pool[static_cast<std::size_t>(token - 1)];
}

void WriteUpdateProtocol::release_token(int home, std::uint64_t token) {
  auto& fs = forward_state(home, token);
  fs.live = false;
  TokenPool& tp = fwd_[static_cast<std::size_t>(home)];
  fs.next_free = tp.free_head;
  tp.free_head = static_cast<std::uint32_t>(token - 1);
}

std::size_t WriteUpdateProtocol::metadata_bytes() const {
  std::size_t n = Protocol::metadata_bytes();
  for (const auto& t : readers_) {
    n += t.bytes_resident();
    t.for_each(
        [&](mem::BlockId, const util::NodeSet& s) { n += s.heap_bytes(); });
  }
  for (const auto& t : dirty_) n += t.bytes_resident();
  for (const auto& tp : fwd_) n += tp.pool.capacity() * sizeof(ForwardState);
  return n;
}

void WriteUpdateProtocol::on_fault(int node, mem::BlockId b, bool is_write) {
  auto& c = rec_.node(node);
  const int home = space_.home_of_block(b);

  if (is_write) {
    ++c.write_faults;
    dirty_[static_cast<std::size_t>(node)].at(b) = 1;
    if (space_.tag(node, b) == mem::Tag::ReadOnly) {
      // Upgrade in place: no invalidations in an update protocol.
      proc(node).charge(costs_.fault);
      space_.set_tag(node, b, mem::Tag::ReadWrite);
      return;
    }
    PRESTO_CHECK(home != node, "home block lost ReadWrite under write-update");
  } else {
    ++c.read_faults;
  }
  if (home == node) ++c.local_faults;

  Msg m;
  m.type = MsgType::WuGetS;
  m.src = node;
  m.block = b;
  m.tag = static_cast<std::uint8_t>(is_write ? mem::Tag::ReadWrite
                                             : mem::Tag::ReadOnly);
  remote_miss(node, b, is_write, costs_.fault, home, m,
              [&] { return access_ok(node, b, is_write); });
}

void WriteUpdateProtocol::send_update_run(int src, int dst, mem::BlockId b0,
                                          std::uint32_t count,
                                          std::uint64_t token, bool from_app) {
  Msg m;
  m.type = MsgType::UpdateData;
  m.src = src;
  m.block = b0;
  m.count = count;
  m.token = token;
  // The callers (publish and forward_run) send immediately, with no yield
  // between this gather and the ring copy in post().
  gather_run(src, m);
  auto& c = rec_.node(src);
  ++c.wu_update_msgs;
  c.wu_update_blocks += count;
  if (from_app)
    send_from_app(src, dst, std::move(m));
  else
    send_from_handler(src, dst, std::move(m));
}

int WriteUpdateProtocol::forward_run(int home, mem::BlockId b0,
                                     std::uint32_t count, std::uint64_t token,
                                     int skip_node) {
  int sent = 0;
  std::uint32_t i = 0;
  while (i < count) {
    const util::NodeSet mask = reader_mask(home, b0 + i).without(skip_node);
    // Extend a sub-run with an identical reader mask.
    std::uint32_t j = i + 1;
    while (j < count &&
           reader_mask(home, b0 + j).without(skip_node) == mask)
      ++j;
    if (mask.any()) {
      mask.for_each([&](int r) {
        send_update_run(home, r, b0 + i, j - i, token, /*from_app=*/false);
        ++sent;
      });
    }
    i = j;
  }
  return sent;
}

void WriteUpdateProtocol::publish(int node, mem::Addr base, std::size_t len) {
  auto& p = proc(node);
  PRESTO_CHECK(!acks_pending(node), "nested publish on node " << node);
  ++rec_.node(node).wu_publishes;

  const mem::BlockId first = space_.block_of(base);
  const mem::BlockId last = space_.block_of(base + len - 1);
  auto& dirty = dirty_[static_cast<std::size_t>(node)];

  // Home-owned blocks: push directly to every recorded reader, coalescing
  // runs with identical reader masks.
  mem::BlockId b = first;
  while (b <= last) {
    if (space_.home_of_block(b) != node) {
      ++b;
      continue;
    }
    const util::NodeSet mask = reader_mask(node, b);
    mem::BlockId e = b + 1;
    while (e <= last && space_.home_of_block(e) == node &&
           reader_mask(node, e) == mask)
      ++e;
    if (mask.any()) {
      mask.for_each([&](int r) {
        p.charge(costs_.presend_per_block);
        send_update_run(node, r, b, static_cast<std::uint32_t>(e - b),
                        /*token=*/0, /*from_app=*/true);
        expect_ack(node);
      });
    }
    b = e;
  }

  // Dirty remote blocks: push coalesced runs to the home, which forwards to
  // its readers and acknowledges end-to-end.
  auto is_dirty = [&](mem::BlockId blk) {
    const std::uint8_t* d = dirty.peek(blk);
    return d != nullptr && *d != 0;
  };
  b = first;
  while (b <= last) {
    if (space_.home_of_block(b) == node || !is_dirty(b)) {
      ++b;
      continue;
    }
    const int home = space_.home_of_block(b);
    mem::BlockId e = b + 1;
    while (e <= last && space_.home_of_block(e) == home && is_dirty(e)) ++e;
    p.charge(costs_.presend_per_block);
    // Forward-tracking state is allocated by the home when the run arrives
    // (the token is home-lane-local); a writer->home run always travels
    // with token 0.
    send_update_run(node, home, b, static_cast<std::uint32_t>(e - b),
                    /*token=*/0, /*from_app=*/true);
    expect_ack(node);
    b = e;
  }

  await_acks(node);
}

void WriteUpdateProtocol::handle(int self, const Msg& m) {
  const std::size_t bsz = space_.block_size();
  switch (m.type) {
    case MsgType::WuGetS: {
      // self is home. Record readers (read requests only) and reply with
      // the home's current contents; no invalidation, no recall.
      if (static_cast<mem::Tag>(m.tag) == mem::Tag::ReadOnly) {
        ++rec_.node(self).dir_probes;
        readers_[static_cast<std::size_t>(self)].at(m.block).set(m.src);
      }
      Msg r;
      r.type = MsgType::WuData;
      r.src = self;
      r.block = m.block;
      r.tag = m.tag;
      r.data = space_.block_data(self, m.block);
      r.data_len = static_cast<std::uint32_t>(bsz);
      send_from_handler(self, m.src, std::move(r));
      break;
    }
    case MsgType::WuData:
      install_block(self, m.block, m.data, static_cast<mem::Tag>(m.tag));
      break;

    case MsgType::UpdateData: {
      // Install the run locally. At a reader, the tag stays whatever it was
      // (ReadOnly); at the home it stays ReadWrite.
      for (std::uint32_t k = 0; k < m.count; ++k) {
        std::memcpy(space_.block_data(self, m.block + k),
                    m.data + k * bsz, bsz);
        if (space_.tag(self, m.block + k) == mem::Tag::Invalid)
          space_.set_tag(self, m.block + k, mem::Tag::ReadOnly);
        notify_install(self, m.block + k, m.data + k * bsz,
                       space_.tag(self, m.block + k));
      }
      if (space_.home_of_block(m.block) != self) {
        // Push to a reader (direct token==0, or forwarded token!=0):
        // acknowledge the sender, echoing the token for forward matching.
        Msg r;
        r.type = MsgType::UpdateAck;
        r.src = self;
        r.block = m.block;
        r.count = m.count;
        r.token = m.token;
        send_from_handler(self, m.src, std::move(r));
      } else {
        // Writer->home run: forward to readers, then acknowledge. The
        // forward state is allocated here, at the home, so every touch of
        // the token pool happens on the home's lane.
        const std::uint64_t token = alloc_token(
            self, ForwardState{m.src, /*acks_left=*/-1, m.count, false,
                               kNoSlot});
        const int sent = forward_run(self, m.block, m.count, token, m.src);
        if (sent == 0) {
          release_token(self, token);
          Msg r;
          r.type = MsgType::UpdateAck;
          r.src = self;
          r.block = m.block;
          r.count = m.count;
          r.token = 0;
          send_from_handler(self, m.src, std::move(r));
        } else {
          forward_state(self, token).acks_left = sent;
        }
      }
      break;
    }

    case MsgType::UpdateAck: {
      if (m.token == 0) {
        ack(self);  // final acknowledgement to a publisher
      } else {
        // Reader ack for a forwarded run; self is the home.
        auto& fs = forward_state(self, m.token);
        if (--fs.acks_left == 0) {
          Msg r;
          r.type = MsgType::UpdateAck;
          r.src = self;
          r.block = m.block;
          r.count = fs.count;
          r.token = 0;
          send_from_handler(self, fs.writer, std::move(r));
          release_token(self, m.token);
        }
      }
      break;
    }

    default:
      PRESTO_FAIL("unexpected message " << msg_type_name(m.type)
                                        << " in write-update protocol");
  }
}

}  // namespace presto::proto
