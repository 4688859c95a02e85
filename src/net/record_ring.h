// Chunked FIFO of variable-length byte records with a published end: the
// storage behind every network channel (net/network.h).
//
// Records are appended behind a small header into chunks drawn from a
// ChunkPool. An appended record is invisible to the consumer until
// publish(); the consumer reads and pops published records from the head.
// A record never moves once written: chunks are linked, never reallocated
// or compacted, so a pointer to a queued record stays valid until that
// record is popped, whatever is appended meanwhile.
//
// Producer and consumer may run concurrently (a channel's source and
// destination lanes under a worker pool) as long as publish() and release()
// run while neither does (the window boundary). The producer writes only the
// tail chunk and its `used`, and links new chunks behind it; the consumer
// reads only published records, reads a chunk's `used` and `next` only once
// the published end has moved past that chunk (after which the producer
// never touches it again), and frees only such chunks. So the chunk the
// producer appends to is never freed or read under it.
//
// Chunk sizes follow the traffic: a ring's first chunk holds kFirstChunk
// bytes (or the record), each further chunk doubles the last up to
// kMaxChunk. A ring whose records are all consumed keeps its last chunk for
// the producer until release() hands it back, so an idle ring holds nothing.
//
// Each record header carries an event key (time, seq) that the network uses
// to chain deliveries and dispatches; the ring itself never reads it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>

#include "sim/time.h"
#include "util/check.h"

namespace presto::net {

struct RecordChunk {
  RecordChunk* next;
  std::uint32_t cap;   // bytes of record storage after this header
  std::uint32_t used;  // bytes written
  std::byte* data() { return reinterpret_cast<std::byte*>(this + 1); }
};

// One queued record: header, then `len` bytes, padded to 8.
struct Record {
  sim::Time t;
  std::uint64_t seq;
  std::uint32_t len;
  std::uint32_t pad_;
  std::byte* bytes() { return reinterpret_cast<std::byte*>(this + 1); }
  const std::byte* bytes() const {
    return reinterpret_cast<const std::byte*>(this + 1);
  }
  static std::uint32_t stride(std::size_t len) {
    return static_cast<std::uint32_t>(sizeof(Record) +
                                      ((len + 7) & ~std::size_t{7}));
  }
};
static_assert(sizeof(Record) == 24);

// Free chunks by power-of-two size class, linked through RecordChunk::next;
// a chunk above kMaxChunk is freed, not pooled. Not thread-safe: each pool
// belongs to one context at a time.
class ChunkPool {
 public:
  static constexpr std::uint32_t kFirstChunk = 256;
  static constexpr std::uint32_t kMaxChunk = 4096;

  ChunkPool() = default;
  ChunkPool(const ChunkPool&) = delete;
  ChunkPool& operator=(const ChunkPool&) = delete;
  ~ChunkPool() { trim(0); }

  // A chunk with at least `want` bytes of storage, used = 0.
  RecordChunk* get(std::size_t want) {
    RecordChunk* c;
    const int k = size_class(want);
    if (k < 0) {
      c = make(static_cast<std::uint32_t>(want));
    } else if (free_[k] != nullptr) {
      c = free_[k];
      free_[k] = c->next;
      bytes_ -= c->cap;
    } else {
      c = make(kFirstChunk << k);
    }
    c->next = nullptr;
    c->used = 0;
    return c;
  }

  void put(RecordChunk* c) {
    const int k = size_class(c->cap);
    if (k < 0 || (kFirstChunk << k) != c->cap) {
      ::operator delete(c);
      return;
    }
    c->next = free_[k];
    free_[k] = c;
    bytes_ += c->cap;
  }

  // Frees pooled chunks, largest first, until at most `keep` bytes remain.
  void trim(std::size_t keep) {
    for (int k = kClasses - 1; k >= 0 && bytes_ > keep; --k)
      while (free_[k] != nullptr && bytes_ > keep) {
        RecordChunk* c = free_[k];
        free_[k] = c->next;
        bytes_ -= c->cap;
        ::operator delete(c);
      }
  }

  // Storage bytes held free.
  std::size_t bytes() const { return bytes_; }

 private:
  static constexpr int kClasses = 5;  // kFirstChunk .. kMaxChunk

  // Smallest class holding `want` bytes, or -1 above kMaxChunk.
  static int size_class(std::size_t want) {
    if (want > kMaxChunk) return -1;
    int k = 0;
    while ((std::size_t{kFirstChunk} << k) < want) ++k;
    return k;
  }
  static RecordChunk* make(std::uint32_t cap) {
    auto* c = static_cast<RecordChunk*>(
        ::operator new(sizeof(RecordChunk) + cap));
    c->cap = cap;
    return c;
  }

  RecordChunk* free_[kClasses] = {};
  std::size_t bytes_ = 0;
};

class RecordRing {
 public:
  // Position of one queued record; chunk == nullptr is "none".
  struct Pos {
    RecordChunk* chunk = nullptr;
    std::uint32_t off = 0;
    explicit operator bool() const { return chunk != nullptr; }
    bool operator==(const Pos&) const = default;
    Record& rec() const {
      return *reinterpret_cast<Record*>(chunk->data() + off);
    }
  };

  RecordRing() = default;
  RecordRing(const RecordRing&) = delete;
  RecordRing& operator=(const RecordRing&) = delete;
  ~RecordRing() {
    PRESTO_CHECK(tail_ == nullptr, "RecordRing destroyed holding chunks");
  }

  // ---- Producer -------------------------------------------------------------

  // Appends one unpublished record assembled from two spans (either may be
  // empty) under key (t, seq); the bytes are copied now.
  Pos append(ChunkPool& pool, sim::Time t, std::uint64_t seq, const void* a,
             std::size_t a_len, const void* b, std::size_t b_len) {
    const std::size_t len = a_len + b_len;
    const std::uint32_t need = Record::stride(len);
    if (tail_ == nullptr || tail_->cap - tail_->used < need) {
      std::size_t want = ChunkPool::kFirstChunk;
      if (tail_ != nullptr) {
        want = std::size_t{tail_->cap} * 2;
        if (want > ChunkPool::kMaxChunk) want = ChunkPool::kMaxChunk;
      }
      if (want < need) want = need;
      RecordChunk* c = pool.get(want);
      if (tail_ == nullptr)
        first_ = c;
      else
        tail_->next = c;
      tail_ = c;
    }
    const Pos at{tail_, tail_->used};
    Record& r = at.rec();
    r.t = t;
    r.seq = seq;
    r.len = static_cast<std::uint32_t>(len);
    if (a_len != 0) std::memcpy(r.bytes(), a, a_len);
    if (b_len != 0) std::memcpy(r.bytes() + a_len, b, b_len);
    tail_->used += need;
    return at;
  }

  // ---- Publisher (producer and consumer both quiet) -------------------------

  // First unpublished record, or none.
  Pos unpublished() const {
    if (tail_ == nullptr) return Pos{};
    if (pub_.chunk == nullptr) return Pos{first_, 0};
    return past_end(pub_) ? Pos{} : normalize(pub_);
  }
  // The unpublished record after p, or none.
  Pos next_unpublished(Pos p) const {
    const Pos n = step(p);
    return past_end(n) ? Pos{} : normalize(n);
  }
  // Makes every appended record visible to the consumer; a chunk the
  // consumer had finished but could not free yet goes back to `pool`.
  void publish(ChunkPool& pool) {
    if (tail_ == nullptr) return;
    if (pub_.chunk == nullptr) head_ = Pos{first_, 0};
    first_ = nullptr;  // from here on the chain is reached through head_
    pub_ = Pos{tail_, tail_->used};
    if (head_.chunk != pub_.chunk && head_.off == head_.chunk->used) {
      RecordChunk* done = head_.chunk;
      head_ = Pos{done->next, 0};
      pool.put(done);
    }
  }
  // Appends and publishes at once (the producer is the consumer, or both are
  // quiet).
  Pos push(ChunkPool& pool, sim::Time t, std::uint64_t seq, const void* a,
           std::size_t a_len, const void* b, std::size_t b_len) {
    const Pos at = append(pool, t, seq, a, a_len, b, b_len);
    publish(pool);
    return at;
  }
  // True when every appended record has been consumed.
  bool idle() const {
    return tail_ == nullptr || (head_ == pub_ && past_end(pub_));
  }
  // Hands an idle ring's last chunk back to `pool`.
  void release(ChunkPool& pool) {
    PRESTO_CHECK(idle(), "release() of a ring with queued records");
    if (tail_ == nullptr) return;
    pool.put(tail_);
    tail_ = first_ = nullptr;
    head_ = pub_ = Pos{};
  }

  // ---- Consumer -------------------------------------------------------------

  // True when no published record is left to pop.
  bool empty() const { return head_ == pub_; }
  Pos head() const { return head_; }
  Record& front() {
    PRESTO_CHECK(!empty(), "front() on empty RecordRing");
    return head_.rec();
  }
  // The published record after p, or none.
  Pos next(Pos p) const {
    const Pos n = step(p);
    if (n.chunk == pub_.chunk) return n == pub_ ? Pos{} : n;
    return normalize(n);
  }
  // Drops the front record; a chunk it finishes goes back to `pool`.
  void pop(ChunkPool& pool) {
    PRESTO_CHECK(!empty(), "pop() on empty RecordRing");
    const Pos n = step(head_);
    if (n.chunk != pub_.chunk && n.off == n.chunk->used) {
      head_ = Pos{n.chunk->next, 0};
      pool.put(n.chunk);
    } else {
      head_ = n;
    }
  }

  // ---- Teardown and accounting (quiet ring) ---------------------------------

  // Returns every chunk to `pool`, dropping queued records.
  void clear(ChunkPool& pool) {
    RecordChunk* c = head_.chunk != nullptr ? head_.chunk : first_;
    while (c != nullptr) {
      RecordChunk* n = c == tail_ ? nullptr : c->next;
      pool.put(c);
      c = n;
    }
    tail_ = first_ = nullptr;
    head_ = pub_ = Pos{};
  }

  // Host bytes held by the ring's chunks, headers included.
  std::size_t capacity_bytes() const {
    std::size_t n = 0;
    const RecordChunk* c = head_.chunk != nullptr ? head_.chunk : first_;
    for (; c != nullptr; c = c == tail_ ? nullptr : c->next)
      n += sizeof(RecordChunk) + c->cap;
    return n;
  }

 private:
  // Position just past p's record (possibly the end of its chunk).
  static Pos step(Pos p) {
    return Pos{p.chunk, p.off + Record::stride(p.rec().len)};
  }
  // True at the producer's write position.
  bool past_end(Pos p) const { return p.chunk == tail_ && p.off == tail_->used; }
  // Moves an end-of-chunk position to the start of the next chunk. Only for
  // positions in chunks the producer has left behind.
  static Pos normalize(Pos p) {
    return p.off == p.chunk->used && p.chunk->next != nullptr
               ? Pos{p.chunk->next, 0}
               : p;
  }

  Pos head_;                      // consumer: oldest unpopped record
  Pos pub_;                       // publisher: end of the published records
  RecordChunk* tail_ = nullptr;   // producer: chunk being appended to
  RecordChunk* first_ = nullptr;  // producer: first chunk not yet published
};

}  // namespace presto::net
