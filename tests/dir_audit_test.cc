// Flat-directory audit: after a fuzzed phase-structured run quiesces, a
// reference directory rebuilt from every node's access tags must agree with
// the block-indexed flat layout (util::BlockTable chunks) in both
// directions — every expected entry is present and correct, and every
// materialized entry is either correct or an untouched default. This is the
// cross-check that the page-chunked layout neither drops nor invents
// directory state relative to the ground truth the tags represent.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "runtime/system.h"
#include "util/rng.h"

namespace presto::runtime {
namespace {

struct RefEntry {
  proto::StacheProtocol::DirEntry::S state =
      proto::StacheProtocol::DirEntry::S::Idle;
  int owner = -1;
  util::NodeSet readers;
};

// Rebuilds the directory a home node *should* hold for block b from the
// quiescent access tags: a remote ReadWrite copy means Excl, remote
// ReadOnly copies mean Shared, otherwise Idle.
RefEntry rebuild_reference(System& sys, int home, mem::BlockId b) {
  RefEntry ref;
  for (int n = 0; n < sys.config().nodes; ++n) {
    if (n == home) continue;
    switch (sys.space().tag(n, b)) {
      case mem::Tag::ReadWrite:
        ref.state = proto::StacheProtocol::DirEntry::S::Excl;
        ref.owner = n;
        break;
      case mem::Tag::ReadOnly:
        ref.readers.set(n);
        break;
      case mem::Tag::Invalid:
        break;
    }
  }
  if (ref.state != proto::StacheProtocol::DirEntry::S::Excl &&
      ref.readers.any())
    ref.state = proto::StacheProtocol::DirEntry::S::Shared;
  return ref;
}

// Seeded random phase-structured workload (same shape as the differential
// fuzzer's programs): writers then readers per phase, repeated for a few
// rounds, leaving a nontrivial mix of Idle/Shared/Excl entries behind.
void run_fuzzed_workload(System& sys, mem::Addr base, int nblocks,
                         std::uint32_t block_size, std::uint64_t seed) {
  const int nodes = sys.config().nodes;
  util::Rng rng(seed);
  const int phases = 2;
  const int rounds = 4;
  std::vector<int> writer(static_cast<std::size_t>(
      static_cast<std::size_t>(nblocks) * phases));
  std::vector<std::uint64_t> readers(writer.size(), 0);
  for (std::size_t i = 0; i < writer.size(); ++i) {
    writer[i] = rng.next_bool(0.6)
                    ? static_cast<int>(
                          rng.next_below(static_cast<std::uint64_t>(nodes)))
                    : -1;
    for (int n = 0; n < nodes; ++n)
      if (rng.next_bool(0.3)) readers[i] |= 1ULL << n;
  }
  sys.run([&](NodeCtx& c) {
    for (int r = 0; r < rounds; ++r) {
      for (int p = 0; p < phases; ++p) {
        c.phase(2 * p);
        for (int b = 0; b < nblocks; ++b) {
          const std::size_t i =
              static_cast<std::size_t>(b) * phases + static_cast<std::size_t>(p);
          if (writer[i] == c.id())
            c.write<std::uint32_t>(
                base + static_cast<mem::Addr>(b) * block_size,
                static_cast<std::uint32_t>(r * 1000 + b));
        }
        c.barrier();
        c.phase(2 * p + 1);
        for (int b = 0; b < nblocks; ++b) {
          const std::size_t i =
              static_cast<std::size_t>(b) * phases + static_cast<std::size_t>(p);
          if (readers[i] & (1ULL << c.id())) {
            volatile auto v = c.read<std::uint32_t>(
                base + static_cast<mem::Addr>(b) * block_size);
            (void)v;
          }
        }
        c.barrier();
      }
    }
  });
}

class DirAudit
    : public ::testing::TestWithParam<std::tuple<ProtocolKind, std::uint64_t>> {
};

TEST_P(DirAudit, FlatLayoutMatchesReferenceRebuild) {
  const auto [kind, seed] = GetParam();
  const int nodes = 4;
  const std::uint32_t block_size = 32;
  const int nblocks = 96;

  MachineConfig m = MachineConfig::cm5_blizzard(nodes, block_size);
  m.mem.page_size = 512;
  System sys(m, kind);
  const mem::Addr base = sys.space().alloc(
      static_cast<std::size_t>(nblocks) * block_size,
      [&](mem::PageId p) { return static_cast<int>(p) % nodes; });
  run_fuzzed_workload(sys, base, nblocks, block_size, seed);

  auto* st = dynamic_cast<proto::StacheProtocol*>(&sys.protocol());
  ASSERT_NE(st, nullptr);
  // The built-in validator first: tags and directory must agree.
  EXPECT_GT(st->check_invariants(), 0u);

  const mem::BlockId first = sys.space().block_of(base);
  const mem::BlockId last = sys.space().block_of(
      base + static_cast<mem::Addr>(nblocks) * block_size - 1);

  // Direction 1: every materialized flat entry is owned by the right home
  // and matches the reference rebuilt from tags (or is an untouched
  // default outside the workload's range).
  std::map<std::pair<int, mem::BlockId>, RefEntry> seen;
  st->for_each_dir_entry([&](int h, mem::BlockId b,
                             const proto::StacheProtocol::DirEntry& d) {
    EXPECT_FALSE(d.busy) << "in-flight transaction after quiescence, block "
                         << b;
    EXPECT_EQ(sys.space().home_of_block(b), h)
        << "entry materialized at non-home node " << h << " for block " << b;
    if (b < first || b > last) {
      EXPECT_EQ(d.state, proto::StacheProtocol::DirEntry::S::Idle);
      EXPECT_FALSE(d.readers.any());
      return;
    }
    const RefEntry ref = rebuild_reference(sys, h, b);
    EXPECT_EQ(d.state, ref.state) << "block " << b;
    EXPECT_TRUE(d.readers == ref.readers) << "block " << b;
    if (ref.state == proto::StacheProtocol::DirEntry::S::Excl) {
      EXPECT_EQ(d.owner, ref.owner) << "block " << b;
    }
    seen[{h, b}] = ref;
  });

  // Direction 2: every block whose tags imply directory state has a
  // materialized flat entry (nothing was dropped by the chunked layout).
  for (mem::BlockId b = first; b <= last; ++b) {
    const int h = sys.space().home_of_block(b);
    const RefEntry ref = rebuild_reference(sys, h, b);
    const bool nontrivial =
        ref.state != proto::StacheProtocol::DirEntry::S::Idle;
    if (nontrivial) {
      EXPECT_TRUE(seen.count({h, b}))
          << "tags imply directory state for block " << b
          << " but no flat entry is materialized";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    FuzzedRuns, DirAudit,
    ::testing::Combine(::testing::Values(ProtocolKind::kStache,
                                         ProtocolKind::kPredictive,
                                         ProtocolKind::kPredictiveAnticipate),
                       ::testing::Values(11ull, 42ull, 1234ull)));

}  // namespace
}  // namespace presto::runtime
