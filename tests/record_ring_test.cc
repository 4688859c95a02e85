// Direct unit tests for net::RecordRing — the chunked record queue under
// every network channel. The interesting paths are the ones steady-state
// traffic rarely exercises: records that outgrow the first chunk, two-span
// push reassembly, front-pointer validity across pushes and pops, chunk
// reuse through the pool that makes steady state allocation-free, and
// splicing one ring's chunks onto another without copying.
#include <gtest/gtest.h>

#include <cstring>
#include <deque>
#include <string>
#include <vector>

#include "net/record_ring.h"
#include "util/rng.h"

namespace presto::net {
namespace {

std::string rec_str(RecordRing& ring) {
  const Record& r = ring.front();
  return std::string(reinterpret_cast<const char*>(r.bytes()), r.len);
}

// Pushes (appends and publishes) a record under a zero key.
void push(RecordRing& ring, ChunkPool& pool, const void* a, std::size_t a_len,
          const void* b, std::size_t b_len) {
  ring.push(pool, 0, 0, a, a_len, b, b_len);
}

std::string bytes(char c, std::size_t n) { return std::string(n, c); }

TEST(RecordRing, TwoSpanPushReassemblesContiguously) {
  ChunkPool pool;
  RecordRing ring;
  const std::string head = "header--", pay = "payload-bytes";
  push(ring, pool, head.data(), head.size(), pay.data(), pay.size());
  EXPECT_EQ(rec_str(ring), head + pay);

  // Either span may be empty.
  push(ring, pool, head.data(), head.size(), nullptr, 0);
  push(ring, pool, nullptr, 0, pay.data(), pay.size());
  push(ring, pool, nullptr, 0, nullptr, 0);  // zero-length record is legal
  ring.pop(pool);
  EXPECT_EQ(rec_str(ring), head);
  ring.pop(pool);
  EXPECT_EQ(rec_str(ring), pay);
  ring.pop(pool);
  EXPECT_EQ(ring.front().len, 0u);
  ring.pop(pool);
  EXPECT_TRUE(ring.empty());
  ring.release(pool);
}

TEST(RecordRing, FrontPointerSurvivesPop) {
  // pop() never moves bytes and a drained ring keeps its last chunk, so a
  // popped record stays readable until its chunk is released and reused.
  ChunkPool pool;
  RecordRing ring;
  const std::string a = "first-record", b = "second-record";
  push(ring, pool, a.data(), a.size(), nullptr, 0);
  push(ring, pool, b.data(), b.size(), nullptr, 0);

  const Record& ra = ring.front();
  ring.pop(pool);
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(ra.bytes()), ra.len), a);

  const Record& rb = ring.front();
  ring.pop(pool);
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(rb.bytes()), rb.len), b);
  ring.release(pool);
}

TEST(RecordRing, DrainRewindReusesTheArena) {
  // Once the queue drains and is released (the network releases idle rings
  // at each window boundary), its chunk goes back to the pool and the next
  // push takes it again: the record lands at the same address, no
  // allocation growth in steady state.
  ChunkPool pool;
  RecordRing ring;
  const std::string r1 = bytes('x', 64);
  push(ring, pool, r1.data(), r1.size(), nullptr, 0);
  const Record* first_addr = &ring.front();
  ring.pop(pool);
  ASSERT_TRUE(ring.empty());
  ring.release(pool);

  for (int i = 0; i < 1000; ++i) {
    const std::string r = bytes(static_cast<char>('a' + i % 26), 64);
    push(ring, pool, r.data(), r.size(), nullptr, 0);
    EXPECT_EQ(&ring.front(), first_addr) << "chunk was not reused, i=" << i;
    EXPECT_EQ(rec_str(ring), r);
    ring.pop(pool);
    ASSERT_TRUE(ring.empty());
    ring.release(pool);
  }
}

TEST(RecordRing, CompactionTriggersOnLargeDeadPrefix) {
  // A dead prefix > 4096 bytes in front of fewer live bytes, then a push:
  // the ring never compacts (records do not move), and the live records
  // must come back exactly.
  ChunkPool pool;
  RecordRing ring;
  const std::string big = bytes('B', 5000);
  const std::string live1 = bytes('1', 100), live2 = bytes('2', 100);
  push(ring, pool, big.data(), big.size(), nullptr, 0);
  push(ring, pool, live1.data(), live1.size(), nullptr, 0);
  ring.pop(pool);  // dead prefix: 5000 bytes; live: 100

  push(ring, pool, live2.data(), live2.size(), nullptr, 0);
  EXPECT_EQ(rec_str(ring), live1);
  ring.pop(pool);
  EXPECT_EQ(rec_str(ring), live2);
  ring.pop(pool);
  EXPECT_TRUE(ring.empty());
  ring.release(pool);
}

TEST(RecordRing, NoCompactionWhileLiveOutweighsDead) {
  // Mirror case: dead prefix > 4096 with MORE live bytes behind it, and a
  // push that needs a fresh chunk: the front record stays put.
  ChunkPool pool;
  RecordRing ring;
  const std::string warm = bytes('w', 20000);
  push(ring, pool, warm.data(), warm.size(), nullptr, 0);
  ring.pop(pool);  // empty: the chunk goes back to the pool

  const std::string dead = bytes('D', 4200);
  const std::string live = bytes('L', 8000);
  const std::string tail = bytes('t', 16);
  push(ring, pool, dead.data(), dead.size(), nullptr, 0);
  push(ring, pool, live.data(), live.size(), nullptr, 0);
  ring.pop(pool);  // dead: 4200 > 4096, live: 8000 > dead

  const Record* before = &ring.front();
  push(ring, pool, tail.data(), tail.size(), nullptr, 0);
  EXPECT_EQ(&ring.front(), before) << "a push moved the front record";
  EXPECT_EQ(rec_str(ring), live);
  ring.pop(pool);
  EXPECT_EQ(rec_str(ring), tail);
  ring.pop(pool);
  EXPECT_TRUE(ring.empty());
  ring.release(pool);
}

// Seeded churn with a live queue spanning many chunks; every popped record
// must match a reference std::deque bytewise.
TEST(RecordRing, RandomizedChurnMatchesReference) {
  util::Rng rng(20260806);
  ChunkPool pool;
  RecordRing ring;
  std::deque<std::string> ref;
  std::uint64_t pushed = 0;
  for (int step = 0; step < 20000; ++step) {
    const bool do_push = ref.empty() || rng.next_below_unbiased(3) != 0;
    if (do_push) {
      const std::size_t a = rng.next_below_unbiased(48);
      const std::size_t b = rng.next_below_unbiased(200);
      std::string rec;
      rec.reserve(a + b);
      for (std::size_t i = 0; i < a + b; ++i)
        rec.push_back(static_cast<char>('A' + (pushed + i) % 53));
      push(ring, pool, rec.data(), a, rec.data() + a, b);
      ref.push_back(std::move(rec));
      ++pushed;
    } else {
      ASSERT_FALSE(ring.empty());
      ASSERT_EQ(rec_str(ring), ref.front());
      ring.pop(pool);
      ref.pop_front();
    }
  }
  while (!ref.empty()) {
    ASSERT_EQ(rec_str(ring), ref.front());
    ring.pop(pool);
    ref.pop_front();
  }
  EXPECT_TRUE(ring.empty());
  ring.release(pool);
}

TEST(RecordRing, AppendedRecordsStayHiddenUntilPublished) {
  ChunkPool pool;
  RecordRing ring;
  const std::string a = "published", b = "staged-one", c = "staged-two";
  ring.push(pool, 1, 10, a.data(), a.size(), nullptr, 0);
  const RecordRing::Pos pb =
      ring.append(pool, 2, 0, b.data(), b.size(), nullptr, 0);
  ring.append(pool, 3, 0, c.data(), c.size(), nullptr, 0);

  // The consumer sees only the published record; the publisher walks the
  // appended ones in order and can rewrite their keys in place.
  EXPECT_EQ(rec_str(ring), a);
  EXPECT_FALSE(ring.next(ring.head()));
  std::vector<std::string> staged;
  for (RecordRing::Pos p = ring.unpublished(); p; p = ring.next_unpublished(p)) {
    staged.emplace_back(reinterpret_cast<const char*>(p.rec().bytes()),
                        p.rec().len);
    p.rec().seq = 20 + staged.size();
  }
  EXPECT_EQ(staged, (std::vector<std::string>{b, c}));
  EXPECT_EQ(ring.unpublished(), pb);

  ring.publish(pool);
  EXPECT_FALSE(ring.unpublished());
  ring.pop(pool);
  EXPECT_EQ(ring.head(), pb) << "publishing moved the records";
  EXPECT_EQ(ring.front().seq, 21u);
  EXPECT_EQ(ring.next(ring.head()).rec().seq, 22u);
  ring.pop(pool);
  EXPECT_EQ(rec_str(ring), c);
  ring.pop(pool);
  EXPECT_TRUE(ring.empty());
  EXPECT_TRUE(ring.idle());
  ring.release(pool);
}

TEST(RecordRing, ChunksGrowForBurstsAndReturnToThePool) {
  ChunkPool pool;
  RecordRing ring;
  const std::string rec = bytes('r', 100);
  for (int i = 0; i < 1000; ++i)
    push(ring, pool, rec.data(), rec.size(), nullptr, 0);
  // 1000 records of 128 bytes fill chunks of doubling size, so the ring
  // holds its bytes with at most one chunk of slack rather than a chunk per
  // record.
  const std::size_t payload = 1000 * Record::stride(rec.size());
  EXPECT_GE(ring.capacity_bytes(), payload);
  EXPECT_LE(ring.capacity_bytes(), payload + ChunkPool::kMaxChunk + 1024);
  EXPECT_EQ(pool.bytes(), 0u);
  while (!ring.empty()) ring.pop(pool);
  // The drained ring keeps its last chunk for the producer until released.
  EXPECT_GT(ring.capacity_bytes(), 0u);
  EXPECT_LE(ring.capacity_bytes(), sizeof(RecordChunk) + ChunkPool::kMaxChunk);
  ring.release(pool);
  EXPECT_EQ(ring.capacity_bytes(), 0u);
  EXPECT_GE(pool.bytes(), payload);
  pool.trim(0);
  EXPECT_EQ(pool.bytes(), 0u);
}

}  // namespace
}  // namespace presto::net
