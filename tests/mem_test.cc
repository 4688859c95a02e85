#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "mem/global_space.h"
#include "trace/hooks.h"

namespace presto::mem {
namespace {

MemConfig small_cfg() {
  MemConfig c;
  c.block_size = 32;
  c.page_size = 128;
  return c;
}

TEST(GlobalSpace, AllocAssignsHomesPerPage) {
  GlobalSpace s(4, small_cfg());
  const Addr base = s.alloc(3 * 128, [](PageId p) {
    return static_cast<int>(p);  // page i homed at node i
  });
  EXPECT_EQ(base, 0u);
  EXPECT_EQ(s.home_of_addr(base), 0);
  EXPECT_EQ(s.home_of_addr(base + 128), 1);
  EXPECT_EQ(s.home_of_addr(base + 2 * 128 + 127), 2);
  EXPECT_EQ(s.size_bytes(), 3u * 128u);
}

TEST(GlobalSpace, HomeStartsReadWriteOthersInvalid) {
  GlobalSpace s(3, small_cfg());
  s.alloc(128, [](PageId) { return 1; });
  const BlockId b = 0;
  EXPECT_EQ(s.tag(1, b), Tag::ReadWrite);
  EXPECT_EQ(s.tag(0, b), Tag::Invalid);
  EXPECT_EQ(s.tag(2, b), Tag::Invalid);
}

TEST(GlobalSpace, BlockAndPageArithmetic) {
  GlobalSpace s(2, small_cfg());
  s.alloc(256, [](PageId) { return 0; });
  EXPECT_EQ(s.block_of(0), 0u);
  EXPECT_EQ(s.block_of(31), 0u);
  EXPECT_EQ(s.block_of(32), 1u);
  EXPECT_EQ(s.page_of(127), 0u);
  EXPECT_EQ(s.page_of(128), 1u);
  EXPECT_EQ(s.page_of_block(4), 1u);
  EXPECT_EQ(s.block_base(3), 96u);
}

struct FailOnFault : FaultHandler {
  void on_fault(int, BlockId, bool) override { FAIL() << "unexpected fault"; }
};

// Simulates the protocol satisfying the request: copy home data, set tag.
struct CopyFromHome : FaultHandler {
  explicit CopyFromHome(GlobalSpace& s) : space(s) {}
  void on_fault(int node, BlockId b, bool is_write) override {
    ++faults;
    std::memcpy(space.block_data(node, b), space.block_data(0, b),
                space.block_size());
    space.set_tag(node, b, is_write ? Tag::ReadWrite : Tag::ReadOnly);
  }
  GlobalSpace& space;
  int faults = 0;
};

TEST(GlobalSpace, HomeReadsAndWritesNeedNoFault) {
  GlobalSpace s(2, small_cfg());
  const Addr a = s.alloc(128, [](PageId) { return 0; });
  FailOnFault h;
  s.set_fault_handler(&h);
  s.write_value<int>(0, a + 4, 42);
  EXPECT_EQ(s.read_value<int>(0, a + 4), 42);
}

TEST(GlobalSpace, FaultHandlerInvokedUntilTagOk) {
  GlobalSpace s(2, small_cfg());
  const Addr a = s.alloc(128, [](PageId) { return 0; });
  CopyFromHome h(s);
  s.set_fault_handler(&h);
  int& faults = h.faults;
  s.write_value<double>(0, a, 3.5);
  EXPECT_EQ(s.read_value<double>(1, a), 3.5);
  EXPECT_EQ(faults, 1);
  // Subsequent read hits the cached copy.
  EXPECT_EQ(s.read_value<double>(1, a), 3.5);
  EXPECT_EQ(faults, 1);
  // A write needs an upgrade fault.
  s.write_value<double>(1, a, 4.5);
  EXPECT_EQ(faults, 2);
}

TEST(GlobalSpace, ReadsSpanningBlocksAndPages) {
  GlobalSpace s(2, small_cfg());
  const Addr a = s.alloc(256, [](PageId) { return 0; });
  // Fill 256 bytes with a pattern via block-spanning writes at the home.
  std::vector<std::uint8_t> pat(200);
  for (std::size_t i = 0; i < pat.size(); ++i)
    pat[i] = static_cast<std::uint8_t>(i * 7 + 1);
  s.write(0, a + 30, pat.data(), pat.size());  // spans blocks and the page
  std::vector<std::uint8_t> got(200);
  s.read(0, a + 30, got.data(), got.size());
  EXPECT_EQ(pat, got);
}

// 72 bytes, like a Barnes tree-cell header: spans three 32-byte blocks.
struct Span72 {
  std::uint8_t bytes[72];
};

Span72 pattern72(std::uint8_t seed) {
  Span72 v;
  for (std::size_t i = 0; i < sizeof v.bytes; ++i)
    v.bytes[i] = static_cast<std::uint8_t>(seed + i * 13);
  return v;
}

// Records every fault; satisfies it from the home (node 0) like CopyFromHome.
struct RecordingFaults : FaultHandler {
  explicit RecordingFaults(GlobalSpace& s) : space(s) {}
  void on_fault(int node, BlockId b, bool is_write) override {
    faults.push_back(b);
    std::memcpy(space.block_data(node, b), space.block_data(0, b),
                space.block_size());
    space.set_tag(node, b, is_write ? Tag::ReadWrite : Tag::ReadOnly);
  }
  GlobalSpace& space;
  std::vector<BlockId> faults;
};

TEST(GlobalSpace, PermittedSpanningAccessCopiesExactBytes) {
  GlobalSpace s(2, small_cfg());
  const Addr a = s.alloc(128, [](PageId) { return 0; });
  FailOnFault h;
  s.set_fault_handler(&h);
  const Addr at = a + 40;  // not block-aligned; blocks 1..3 of the page
  const Span72 v = pattern72(5);
  s.write_value(0, at, v);
  const Span72 got = s.read_value<Span72>(0, at);
  EXPECT_EQ(std::memcmp(got.bytes, v.bytes, sizeof v.bytes), 0);
  // The bytes landed exactly there: neighbours untouched.
  EXPECT_EQ(s.read_value<std::uint8_t>(0, at - 1), 0u);
  EXPECT_EQ(s.read_value<std::uint8_t>(0, at + 72), 0u);
  EXPECT_EQ(std::memcmp(s.peek_block(0, 1) + 8, v.bytes, 24), 0);
  // A reader holding ReadOnly on every block reads the same bytes, no fault.
  for (BlockId b = 1; b <= 3; ++b) {
    std::memcpy(s.block_data(1, b), s.block_data(0, b), s.block_size());
    s.set_tag(1, b, Tag::ReadOnly);
  }
  const Span72 seen = s.read_value<Span72>(1, at);
  EXPECT_EQ(std::memcmp(seen.bytes, v.bytes, sizeof v.bytes), 0);
}

TEST(GlobalSpace, SpanningReadFaultsOnlyOnItsInvalidBlock) {
  GlobalSpace s(2, small_cfg());
  const Addr a = s.alloc(128, [](PageId) { return 0; });
  const Addr at = a + 40;
  const Span72 v = pattern72(9);
  s.write_value(0, at, v);
  // Node 1 holds blocks 1 and 3 (home's bytes), block 2 stays Invalid.
  for (BlockId b : {BlockId{1}, BlockId{3}}) {
    std::memcpy(s.block_data(1, b), s.block_data(0, b), s.block_size());
    s.set_tag(1, b, Tag::ReadOnly);
  }
  RecordingFaults h(s);
  s.set_fault_handler(&h);
  const Span72 got = s.read_value<Span72>(1, at);
  EXPECT_EQ(h.faults, (std::vector<BlockId>{2}));
  EXPECT_EQ(std::memcmp(got.bytes, v.bytes, sizeof v.bytes), 0);
}

// Records every observer call as (node, block, offset, bytes seen).
struct RecordingObserver : trace::Hooks {
  struct Call {
    bool write;
    int node;
    BlockId b;
    std::size_t off;
    std::vector<std::uint8_t> bytes;
    bool operator==(const Call&) const = default;
  };
  void on_app_read(int node, BlockId b, std::size_t off, const void* seen,
                   std::size_t n) override {
    record(false, node, b, off, seen, n);
  }
  void on_app_write(int node, BlockId b, std::size_t off, const void* data,
                    std::size_t n) override {
    record(true, node, b, off, data, n);
  }
  void record(bool write, int node, BlockId b, std::size_t off,
              const void* p, std::size_t n) {
    const auto* u = static_cast<const std::uint8_t*>(p);
    calls.push_back(Call{write, node, b, off, {u, u + n}});
  }
  std::vector<Call> calls;
};

TEST(GlobalSpace, ObserverSeesOneCallPerBlockInBlockOrder) {
  GlobalSpace s(2, small_cfg());
  const Addr a = s.alloc(128, [](PageId) { return 0; });
  s.read_value<std::uint8_t>(0, a);  // materialize the home's frame
  FailOnFault h;
  s.set_fault_handler(&h);
  RecordingObserver obs;
  s.set_trace_hooks(&obs);
  const Span72 v = pattern72(17);
  s.write_value(0, a + 40, v);
  const Span72 got = s.read_value<Span72>(0, a + 40);
  s.set_trace_hooks(nullptr);
  // 72 bytes at page offset 40: block 1 from offset 8 (24 bytes), block 2
  // whole, block 3 up to offset 16 (16 bytes) — for the write, then the read.
  auto slice = [&](std::size_t lo, std::size_t n) {
    return std::vector<std::uint8_t>(v.bytes + lo, v.bytes + lo + n);
  };
  std::vector<RecordingObserver::Call> want;
  for (const bool write : {true, false}) {
    want.push_back({write, 0, 1, 8, slice(0, 24)});
    want.push_back({write, 0, 2, 0, slice(24, 32)});
    want.push_back({write, 0, 3, 0, slice(56, 16)});
  }
  EXPECT_EQ(obs.calls, want);
  EXPECT_EQ(std::memcmp(got.bytes, v.bytes, sizeof v.bytes), 0);
}

TEST(GlobalSpace, HomeFirstAccessMaterializesTheFrame) {
  GlobalSpace s(2, small_cfg());
  const Addr a = s.alloc(2 * 128, [](PageId) { return 1; });
  FailOnFault h;
  s.set_fault_handler(&h);
  // The home holds ReadWrite from alloc, but no frame until first touched.
  EXPECT_EQ(s.peek_block(1, s.block_of(a)), nullptr);
  EXPECT_EQ(s.read_value<std::uint64_t>(1, a + 8), 0u);
  EXPECT_NE(s.peek_block(1, s.block_of(a)), nullptr);
  // A first write to the other page, spanning two of its blocks.
  const Addr b = a + 128 + 28;
  EXPECT_EQ(s.peek_block(1, s.block_of(b)), nullptr);
  s.write_value<std::uint64_t>(1, b, 0x0102030405060708u);
  EXPECT_EQ(s.read_value<std::uint64_t>(1, b), 0x0102030405060708u);
  EXPECT_EQ(s.read_value<std::uint32_t>(1, b - 4), 0u);
}

TEST(GlobalSpace, ArenaAllocHomesAtNodeAndAligns) {
  GlobalSpace s(4, small_cfg());
  const Addr a = s.arena_alloc(2, 40, 16);
  EXPECT_EQ(s.home_of_addr(a), 2);
  EXPECT_EQ(a % 16, 0u);
  const Addr b = s.arena_alloc(2, 40, 16);
  EXPECT_EQ(s.home_of_addr(b), 2);
  EXPECT_NE(a, b);
  const Addr c = s.arena_alloc(3, 8, 8);
  EXPECT_EQ(s.home_of_addr(c), 3);
}

TEST(GlobalSpace, ArenaObjectsDoNotStraddleChunks) {
  MemConfig cfg = small_cfg();
  GlobalSpace s(2, cfg);
  // Fill most of a page, then allocate an object that would straddle.
  s.arena_alloc(0, 100, 8);
  const Addr a = s.arena_alloc(0, 60, 8);
  // Object fits entirely within one page.
  EXPECT_EQ(s.page_of(a), s.page_of(a + 59));
}

TEST(GlobalSpace, ArenaMarkResetReusesAddresses) {
  GlobalSpace s(2, small_cfg());
  s.arena_alloc(1, 16, 8);
  const std::size_t mark = s.arena_mark(1);
  const Addr a1 = s.arena_alloc(1, 24, 8);
  const Addr a2 = s.arena_alloc(1, 24, 8);
  s.arena_reset(1, mark);
  const Addr b1 = s.arena_alloc(1, 24, 8);
  const Addr b2 = s.arena_alloc(1, 24, 8);
  EXPECT_EQ(a1, b1);  // address stability across rebuilds
  EXPECT_EQ(a2, b2);
}

TEST(GlobalSpace, RmwRequiresSingleBlock) {
  GlobalSpace s(2, small_cfg());
  const Addr a = s.alloc(128, [](PageId) { return 0; });
  s.rmw(0, a + 8, 8, [](void* p) { *static_cast<std::uint64_t*>(p) = 9; });
  EXPECT_EQ(s.read_value<std::uint64_t>(0, a + 8), 9u);
  EXPECT_DEATH(s.rmw(0, a + 28, 8, [](void*) {}), "straddle");
}

TEST(GlobalSpace, RejectsNonPowerOfTwoBlock) {
  MemConfig cfg;
  cfg.block_size = 48;
  cfg.page_size = 4096;
  EXPECT_DEATH(GlobalSpace(2, cfg), "power of two");
}

}  // namespace
}  // namespace presto::mem
