#include "check/oracle.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "util/check.h"

namespace presto::check {

Oracle::Oracle(mem::GlobalSpace& space, const sim::Engine& engine, Mode mode,
               FailMode fail)
    : space_(space),
      engine_(engine),
      mode_(mode),
      fail_(fail) {
  ring_.resize(kRingSize);
  lanes_.resize(static_cast<std::size_t>(engine.num_lanes()));
  ensure_block(space_.num_blocks() == 0 ? 0 : space_.num_blocks() - 1);
}

void Oracle::ensure_block(mem::BlockId b) {
  const std::size_t bsz = space_.block_size();
  const std::size_t need = static_cast<std::size_t>(b + 1);
  if (last_writer_.size() >= need) return;
  // Grow geometrically: alloc() extends the space page by page and every
  // access path lands here first.
  std::size_t cap = last_writer_.size() < 64 ? 64 : last_writer_.size() * 2;
  if (cap < need) cap = need;
  last_writer_.resize(cap, -1);
  multi_writer_.resize(cap, 0);
  committed_.resize(cap * bsz);  // zero-filled, matching fresh frames
}

const std::byte* Oracle::committed(mem::BlockId b) const {
  const std::size_t bsz = space_.block_size();
  PRESTO_CHECK(static_cast<std::size_t>(b) < last_writer_.size(),
               "committed() for untracked block " << b);
  return committed_.data() + static_cast<std::size_t>(b) * bsz;
}

void Oracle::push_ring(Ev kind, int a, int b, std::uint8_t info,
                       mem::BlockId blk) {
  RingEvent& e = ring_[ring_next_ % kRingSize];
  ++ring_next_;
  e.t = now_;
  e.kind = kind;
  e.a = static_cast<std::int16_t>(a);
  e.b = static_cast<std::int16_t>(b);
  e.info = info;
  e.block = blk;
}

void Oracle::violation(int node, mem::BlockId b, std::string what) {
  ++violation_count_;
  if (violations_.size() < kMaxStoredViolations)
    violations_.push_back(Violation{what, now_, node, b});
  if (fail_ == FailMode::kAbort) {
    std::fprintf(stderr, "--- oracle event ring (most recent last) ---\n%s",
                 ring_dump().c_str());
    PRESTO_FAIL("coherence oracle: T=" << now_ << " node " << node
                                       << " block " << b << ": " << what);
  }
}

// ---- Hooks: each builds one record and observes it --------------------------

void Oracle::on_app_read(int node, mem::BlockId b, std::size_t off,
                         const void* seen, std::size_t n) {
  DefRec r;
  r.kind = Ev::kRead;
  r.a = static_cast<std::int16_t>(node);
  r.block = b;
  r.off = static_cast<std::uint32_t>(off);
  r.n = static_cast<std::uint32_t>(n);
  observe(r, seen, n);  // value observed, frozen at read time
}

void Oracle::on_app_write(int node, mem::BlockId b, std::size_t off,
                          const void* data, std::size_t n) {
  DefRec r;
  r.kind = Ev::kWrite;
  r.a = static_cast<std::int16_t>(node);
  r.block = b;
  r.off = static_cast<std::uint32_t>(off);
  r.n = static_cast<std::uint32_t>(n);
  observe(r, data, n);
}

void Oracle::on_cc_update(int node, mem::BlockId b, std::size_t off,
                          std::int64_t delta) {
  DefRec r;
  r.kind = Ev::kCcUpdate;
  r.a = static_cast<std::int16_t>(node);
  r.block = b;
  r.off = static_cast<std::uint32_t>(off);
  observe(r, &delta, sizeof(delta));
}

void Oracle::on_send(int src, int dst, const proto::Msg& m,
                     std::uint32_t /*wire_bytes*/, sim::Time /*depart*/) {
  DefRec r;
  r.kind = Ev::kSend;
  r.a = static_cast<std::int16_t>(src);
  r.b = static_cast<std::int16_t>(dst);
  r.block = m.block;
  r.msg = m;  // trivially copyable; data pointer re-targeted at apply
  observe(r, m.data, m.data_len);
}

void Oracle::on_install(int node, mem::BlockId b, const std::byte* data,
                        mem::Tag tag) {
  DefRec r;
  r.kind = Ev::kInstall;
  r.a = static_cast<std::int16_t>(node);
  r.b = static_cast<std::int16_t>(tag);
  r.block = b;
  observe(r, data, space_.block_size());
}

void Oracle::observe(DefRec r, const void* data, std::size_t len) {
  r.t = engine_.now();
  if (!engine_.in_lane_context()) {
    apply(r, static_cast<const std::byte*>(data));
    return;
  }
  LaneBuf& lb = lanes_[static_cast<std::size_t>(engine_.current_lane())];
  if (data != nullptr) {
    const auto* p = static_cast<const std::byte*>(data);
    r.data_off = lb.bytes.size();
    r.has_data = true;
    lb.bytes.insert(lb.bytes.end(), p, p + len);
  }
  lb.recs.push_back(r);
}

void Oracle::apply(const DefRec& r, const std::byte* data) {
  now_ = r.t;
  switch (r.kind) {
    case Ev::kRead:
      check_read(r.a, r.block, r.off, data, r.n);
      break;
    case Ev::kWrite:
      check_write(r.a, r.block, r.off, data, r.n);
      break;
    case Ev::kSend: {
      proto::Msg m = r.msg;
      m.data = data;
      check_send(r.a, r.b, m);
      break;
    }
    case Ev::kInstall:
      check_install(r.a, r.block, data, static_cast<mem::Tag>(r.b));
      break;
    case Ev::kCcUpdate: {
      std::int64_t delta;
      std::memcpy(&delta, data, sizeof(delta));
      check_cc_update(r.a, r.block, r.off, delta);
      break;
    }
  }
}

// ---- Checks -----------------------------------------------------------------

void Oracle::check_write(int node, mem::BlockId b, std::size_t off,
                         const void* data, std::size_t n) {
  ensure_block(b);
  if (mode_ == Mode::kSC) {
    // Single-writer: while this node writes, no other node may hold a valid
    // copy (its tag check already guarantees it holds ReadWrite itself).
    for (int other = 0; other < space_.nodes(); ++other) {
      if (other == node) continue;
      const mem::Tag t = space_.tag(other, b);
      if (t != mem::Tag::Invalid)
        violation(node, b,
                  "single-writer violated: write while node " +
                      std::to_string(other) + " holds tag " +
                      std::to_string(static_cast<int>(t)));
    }
  }
  std::memcpy(committed_.data() +
                  static_cast<std::size_t>(b) * space_.block_size() + off,
              data, n);
  const std::int16_t prev = last_writer_[static_cast<std::size_t>(b)];
  if (prev != -1 && prev != static_cast<std::int16_t>(node))
    multi_writer_[static_cast<std::size_t>(b)] = 1;
  last_writer_[static_cast<std::size_t>(b)] = static_cast<std::int16_t>(node);
  ++writes_checked_;
  push_ring(Ev::kWrite, node, -1, static_cast<std::uint8_t>(n), b);
}

void Oracle::check_cc_update(int node, mem::BlockId b, std::size_t off,
                             std::int64_t delta) {
  ensure_block(b);
  // Fold the delta into the committed shadow. last_writer_/multi_writer_
  // stay untouched: a commutative update is not a write in the
  // single-writer sense, and every contributor's delta commutes exactly.
  std::byte* p = committed_.data() +
                 static_cast<std::size_t>(b) * space_.block_size() + off;
  std::int64_t v;
  std::memcpy(&v, p, sizeof(v));
  v += delta;
  std::memcpy(p, &v, sizeof(v));
  ++cc_updates_checked_;
  push_ring(Ev::kCcUpdate, node, -1, 0, b);
}

void Oracle::check_read(int node, mem::BlockId b, std::size_t off,
                        const void* seen, std::size_t n) {
  ensure_block(b);
  // Reads of commutative blocks are exempt from the data-value check: the
  // committed shadow folds in every node's privatized delta the instant
  // cc_add runs, while the protocol's merged image only catches up at flush
  // time — a mid-phase read legally observes the pre-merge bytes. The
  // end-of-run final_sweep still compares every valid copy strictly.
  if ((mode_ == Mode::kSC || strict_reads_) && !space_.is_commutative(b)) {
    // Data-value: the bytes this read observed must equal the committed
    // bytes — the most recent write in simulated execution order.
    const std::byte* want = committed_.data() +
                            static_cast<std::size_t>(b) * space_.block_size() +
                            off;
    if (std::memcmp(seen, want, n) != 0)
      violation(node, b,
                "data-value violated: read of " + std::to_string(n) +
                    " bytes at offset " + std::to_string(off) +
                    " observed stale data (last writer node " +
                    std::to_string(last_writer_[static_cast<std::size_t>(b)]) +
                    ")");
  }
  if (mode_ == Mode::kSC) {
    for (int other = 0; other < space_.nodes(); ++other) {
      if (other == node) continue;
      if (space_.tag(other, b) == mem::Tag::ReadWrite)
        violation(node, b,
                  "multiple-reader violated: read while node " +
                      std::to_string(other) + " holds ReadWrite");
    }
  }
  ++reads_checked_;
  push_ring(Ev::kRead, node, -1, static_cast<std::uint8_t>(n), b);
}

void Oracle::check_send(int src, int dst, const proto::Msg& m) {
  const std::size_t bsz = space_.block_size();
  push_ring(Ev::kSend, src, dst, static_cast<std::uint8_t>(m.type), m.block);
  if (m.data == nullptr) return;  // no payload to check
  if (m.type == proto::MsgType::CcFlush) {
    // Payload is (word, delta) log entries, not block bytes; the merged
    // result is audited against the committed shadow by final_sweep.
    ++sends_checked_;
    return;
  }
  if (m.data_len != m.count * bsz) {
    violation(src, m.block,
              std::string("payload size mismatch on ") +
                  proto::msg_type_name(m.type) + ": " +
                  std::to_string(m.data_len) + " bytes for " +
                  std::to_string(m.count) + " block(s)");
    return;
  }
  for (std::uint32_t k = 0; k < m.count; ++k) {
    const mem::BlockId b = m.block + k;
    ensure_block(b);
    // Presend coherence: the payload snapshotted into the channel must equal
    // the committed bytes of the block at send time. Under phase consistency
    // only the writer's own publishes are required to be fresh, and only
    // while the publisher is the block's sole writer ever — once two nodes
    // have written the same block (false sharing), each publishes a whole
    // block holding only its own stores, so no single payload can equal the
    // merged committed view.
    // Commutative blocks are exempt: the committed shadow runs ahead of the
    // protocol's merged image between cc_add and flush (see check_read).
    const bool must_match =
        !space_.is_commutative(b) &&
        (mode_ == Mode::kSC ||
         (m.type == proto::MsgType::UpdateData &&
          last_writer_[static_cast<std::size_t>(b)] ==
              static_cast<std::int16_t>(src) &&
          multi_writer_[static_cast<std::size_t>(b)] == 0));
    if (must_match &&
        std::memcmp(m.data + static_cast<std::size_t>(k) * bsz,
                    committed_.data() + static_cast<std::size_t>(b) * bsz,
                    bsz) != 0)
      violation(src, b,
                std::string("presend-coherence violated: ") +
                    proto::msg_type_name(m.type) + " to node " +
                    std::to_string(dst) +
                    " carries bytes != committed (last writer node " +
                    std::to_string(last_writer_[static_cast<std::size_t>(b)]) +
                    ")");
    ++sends_checked_;
  }
}

void Oracle::check_install(int node, mem::BlockId b, const std::byte* data,
                           mem::Tag tag) {
  ensure_block(b);
  push_ring(Ev::kInstall, node, static_cast<int>(tag), 0, b);
  // Install coherence: bytes landing at a node must still equal the
  // committed view (FIFO channels guarantee no committed write raced past
  // the payload in flight). Stale valid copies are legal under kPhase.
  if (mode_ == Mode::kSC && data != nullptr && !space_.is_commutative(b) &&
      std::memcmp(data,
                  committed_.data() + static_cast<std::size_t>(b) *
                                          space_.block_size(),
                  space_.block_size()) != 0)
    violation(node, b,
              "install coherence violated: installed bytes != committed "
              "(tag " +
                  std::to_string(static_cast<int>(tag)) + ")");
  ++installs_checked_;
}

void Oracle::replay_window() {
  struct Key {
    sim::Time t;
    std::uint32_t lane;
    std::uint32_t idx;
  };
  std::vector<Key> order;
  for (std::size_t lane = 0; lane < lanes_.size(); ++lane)
    for (std::size_t i = 0; i < lanes_[lane].recs.size(); ++i)
      order.push_back(Key{lanes_[lane].recs[i].t,
                          static_cast<std::uint32_t>(lane),
                          static_cast<std::uint32_t>(i)});
  if (order.empty()) return;
  std::sort(order.begin(), order.end(), [](const Key& x, const Key& y) {
    if (x.t != y.t) return x.t < y.t;
    if (x.lane != y.lane) return x.lane < y.lane;
    return x.idx < y.idx;
  });
  for (const Key& k : order) {
    const LaneBuf& lb = lanes_[k.lane];
    const DefRec& r = lb.recs[k.idx];
    apply(r, r.has_data ? lb.bytes.data() + r.data_off : nullptr);
  }
  for (LaneBuf& lb : lanes_) {
    lb.recs.clear();
    lb.bytes.clear();
  }
}

std::size_t Oracle::final_sweep() {
  replay_window();  // drain anything buffered since the last boundary
  if (mode_ != Mode::kSC) return 0;
  now_ = engine_.now();
  std::size_t compared = 0;
  const std::size_t bsz = space_.block_size();
  const std::size_t nblocks = space_.num_blocks();
  for (std::size_t b = 0; b < nblocks; ++b) {
    ensure_block(b);
    const std::byte* want = committed_.data() + b * bsz;
    for (int node = 0; node < space_.nodes(); ++node) {
      if (space_.tag(node, b) == mem::Tag::Invalid) continue;
      const std::byte* have = space_.peek_block(node, b);
      if (have == nullptr) continue;  // tag granted, frame never touched
      ++compared;
      if (std::memcmp(have, want, bsz) != 0)
        violation(node, b,
                  "final sweep: valid copy differs from committed bytes "
                  "(tag " +
                      std::to_string(static_cast<int>(space_.tag(node, b))) +
                      ", last writer node " +
                      std::to_string(last_writer_[b]) + ")");
    }
  }
  return compared;
}

std::string Oracle::ring_dump(std::size_t max_events) const {
  std::ostringstream os;
  const std::size_t have = ring_next_ < kRingSize ? ring_next_ : kRingSize;
  const std::size_t n = have < max_events ? have : max_events;
  for (std::size_t i = ring_next_ - n; i < ring_next_; ++i) {
    const RingEvent& e = ring_[i % kRingSize];
    os << "T=" << e.t << ' ';
    switch (e.kind) {
      case Ev::kRead:
        os << "read  node=" << e.a << " block=" << e.block
           << " len=" << static_cast<int>(e.info);
        break;
      case Ev::kWrite:
        os << "write node=" << e.a << " block=" << e.block
           << " len=" << static_cast<int>(e.info);
        break;
      case Ev::kInstall:
        os << "install node=" << e.a << " block=" << e.block
           << " tag=" << e.b;
        break;
      case Ev::kSend:
        os << "send " << proto::msg_type_name(
                             static_cast<proto::MsgType>(e.info))
           << ' ' << e.a << "->" << e.b << " block=" << e.block;
        break;
      case Ev::kCcUpdate:
        os << "cc-update node=" << e.a << " block=" << e.block;
        break;
    }
    os << '\n';
  }
  return os.str();
}

bool oracle_enabled_by_default() {
  const char* v = std::getenv("PRESTO_ORACLE");
  if (v != nullptr && v[0] != '\0') return v[0] != '0';
#ifdef NDEBUG
  return false;
#else
  return true;
#endif
}

Mode mode_for_protocol(const char* protocol_name) {
  return std::strcmp(protocol_name, "write-update") == 0 ? Mode::kPhase
                                                         : Mode::kSC;
}

}  // namespace presto::check
