// Tests for the ccached commutative-update protocol and its lock-in to the
// verification matrix. Mirrors tests/check_test.cc: the merge path is only
// trustworthy if the oracle and the differential fuzzer demonstrably catch
// the planted merge bugs (check/bughook.h: drop-merge-entry and
// double-apply-on-replay), shrink the failures, and replay them
// bit-identically — and demonstrably stay silent on the correct protocol.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "check/bughook.h"
#include "check/fuzz.h"
#include "check/oracle.h"
#include "proto/ccached.h"
#include "runtime/system.h"

namespace presto::check {
namespace {

using runtime::MachineConfig;
using runtime::NodeCtx;
using runtime::ProtocolKind;
using runtime::System;

// A minimal all-to-one reduction program: every node pushes commutative adds
// into both blocks each round, then flushes — the pattern whose correctness
// depends on every (word, delta) log entry merging exactly once.
FuzzProgram cc_reduce_program(int rounds) {
  FuzzProgram prog;
  prog.nodes = 3;
  prog.block_size = 32;
  prog.nblocks = 2;
  prog.seed = 7;
  FuzzPhase ph;
  ph.writer = {-1, -1};
  ph.reader_mask = {0x0, 0x0};
  ph.cc_mask = 0x7;  // all three nodes contribute
  FuzzRound rd;
  rd.phases.push_back(ph);
  for (int r = 0; r < rounds; ++r) prog.rounds.push_back(rd);
  return prog;
}

TEST(CCachedOracle, SilentOnCorrectMerge) {
  const FuzzProgram prog = cc_reduce_program(3);
  ASSERT_TRUE(has_commutative(prog));
  const RunResult r =
      run_program(prog, ProtocolKind::kCCached, net::NetConfig{});
  EXPECT_EQ(r.oracle_violations, 0u) << r.first_violation;
  EXPECT_EQ(r.read_mismatches, 0u);
}

TEST(CCachedOracle, CatchesDroppedMergeEntry) {
  // The lost-update bug: the home's merge discards the first log entry of
  // every flush it applies. The merged image diverges from the oracle's
  // committed shadow; the final sweep flags the surviving valid copies.
  FuzzProgram prog = cc_reduce_program(2);
  prog.injected_bug = "drop-merge-entry";
  const RunResult r =
      run_program(prog, ProtocolKind::kCCached, net::NetConfig{});
  EXPECT_GT(r.oracle_violations, 0u);
  EXPECT_NE(r.first_violation.find("final sweep"), std::string::npos)
      << r.first_violation;
  // The host-side read-back sees the lost deltas too.
  EXPECT_GT(r.read_mismatches, 0u);
  // Under Stache the same adds degrade to ordinary rmws — no merge path
  // runs, the bug stays dormant.
  const RunResult clean =
      run_program(prog, ProtocolKind::kStache, net::NetConfig{});
  EXPECT_EQ(clean.oracle_violations, 0u) << clean.first_violation;
  EXPECT_EQ(clean.read_mismatches, 0u);
}

TEST(CCachedOracle, CatchesDoubleAppliedReplay) {
  // The non-idempotent replay bug: every flush log folds in twice, so every
  // flushed delta lands doubled.
  FuzzProgram prog = cc_reduce_program(2);
  prog.injected_bug = "double-apply-on-replay";
  const RunResult r =
      run_program(prog, ProtocolKind::kCCached, net::NetConfig{});
  EXPECT_GT(r.oracle_violations, 0u);
  EXPECT_NE(r.first_violation.find("final sweep"), std::string::npos)
      << r.first_violation;
  EXPECT_GT(r.read_mismatches, 0u);
  const RunResult clean =
      run_program(prog, ProtocolKind::kStache, net::NetConfig{});
  EXPECT_EQ(clean.oracle_violations, 0u) << clean.first_violation;
  EXPECT_EQ(clean.read_mismatches, 0u);
}

// Mirrors Fuzz.InjectedBugIsCaughtShrunkAndReplayedIdentically for the two
// merge bugs, over a generated program with commutative phases (seed 13 is
// pinned cc-bearing; the assert below fails loudly if generation drifts).
void expect_caught_shrunk_replayed(const std::string& bug) {
  FuzzProgram prog = generate(13);
  ASSERT_TRUE(has_commutative(prog)) << "seed 13 lost its cc phases";
  prog.injected_bug = bug;
  const FuzzVerdict v = check_program(prog, /*latency_sweep=*/false);
  ASSERT_FALSE(v.ok);
  EXPECT_EQ(v.signature.rfind("violation[", 0), 0u) << v.signature;

  const FuzzProgram shrunk =
      shrink(prog, v.signature, /*latency_sweep=*/false, /*max_attempts=*/80);
  const FuzzVerdict sv = check_program(shrunk, false);
  ASSERT_FALSE(sv.ok);
  EXPECT_EQ(sv.signature, v.signature);
  EXPECT_LE(shrunk.rounds.size(), prog.rounds.size());
  // The failure is merge-specific: shrinking must keep a commutative phase.
  EXPECT_TRUE(has_commutative(shrunk));

  // Trace round-trip of the shrunk failure replays bit-identically.
  const FuzzProgram replayed = parse_trace(serialize_trace(shrunk));
  const FuzzVerdict rv = check_program(replayed, false);
  EXPECT_EQ(rv.report, sv.report);
  EXPECT_FALSE(rv.ok);
}

TEST(CCachedFuzz, DroppedMergeEntryIsCaughtShrunkAndReplayed) {
  expect_caught_shrunk_replayed("drop-merge-entry");
}

TEST(CCachedFuzz, DoubleAppliedReplayIsCaughtShrunkAndReplayed) {
  expect_caught_shrunk_replayed("double-apply-on-replay");
}

TEST(CCachedFuzz, CommutativePhasesRuleOutWriteUpdate) {
  // A read-modify-write on a stale phase-consistent copy loses concurrent
  // updates, so cc programs are excluded from the write-update set.
  EXPECT_FALSE(supports_write_update(cc_reduce_program(2)));
}

TEST(CCachedFuzz, CcMaskRoundTripsThroughTrace) {
  const FuzzProgram prog = cc_reduce_program(2);
  const std::string text = serialize_trace(prog);
  EXPECT_NE(text.find(" cc "), std::string::npos) << text;
  EXPECT_EQ(serialize_trace(parse_trace(text)), text);
  // Programs without cc phases serialize exactly as before the field
  // existed (backward-compatible traces).
  FuzzProgram plain = cc_reduce_program(1);
  plain.rounds[0].phases[0].cc_mask = 0;
  EXPECT_EQ(serialize_trace(plain).find(" cc "), std::string::npos);
}

// ---- Direct protocol unit tests --------------------------------------------

TEST(CCachedProtocol, FlushMergesEveryDeltaExactlyOnce) {
  MachineConfig m = MachineConfig::cm5_blizzard(4, 32);
  m.mem.page_size = 512;
  System sys(m, ProtocolKind::kCCached);
  const mem::Addr a = sys.space().alloc_on_node(0, 64);
  sys.space().set_commutative(a, 64);
  sys.run([&](NodeCtx& c) {
    // Every node adds id+1 to word 0 and 10*(id+1) to word 7.
    c.cc_add(a, c.id() + 1);
    c.cc_add(a + 56, 10 * (c.id() + 1));
    c.cc_flush();
    c.barrier();
    if (c.id() == 0) {
      EXPECT_EQ(c.read<std::int64_t>(a), 1 + 2 + 3 + 4);
      EXPECT_EQ(c.read<std::int64_t>(a + 56), 10 * (1 + 2 + 3 + 4));
    }
  });
  const stats::Recorder& rec = sys.recorder();
  // The 64-byte region spans two 32-byte blocks; each node touched one word
  // in each, so every node flushes two one-entry logs.
  EXPECT_EQ(rec.sum(&stats::NodeCounters::cc_flushes), 8u);
  EXPECT_EQ(rec.sum(&stats::NodeCounters::cc_flushed_entries), 8u);
  EXPECT_EQ(rec.sum(&stats::NodeCounters::cc_merged_flushes),
            rec.sum(&stats::NodeCounters::cc_flushes));
  EXPECT_EQ(rec.sum(&stats::NodeCounters::cc_merged_entries),
            rec.sum(&stats::NodeCounters::cc_flushed_entries));
}

TEST(CCachedProtocol, FaultSelfFlushesPendingDeltas) {
  // Reading a block the node itself holds pending deltas for must push those
  // deltas home first — the on-demand flush path on the fault.
  MachineConfig m = MachineConfig::cm5_blizzard(2, 32);
  m.mem.page_size = 512;
  System sys(m, ProtocolKind::kCCached);
  const mem::Addr a = sys.space().alloc_on_node(0, 32);
  sys.space().set_commutative(a, 32);
  sys.run([&](NodeCtx& c) {
    if (c.id() == 1) {
      c.cc_add(a, 41);
      // No explicit cc_flush: the read below faults and self-flushes.
      EXPECT_EQ(c.read<std::int64_t>(a), 41);
    }
    c.barrier();
  });
  EXPECT_EQ(sys.recorder().sum(&stats::NodeCounters::cc_flushes), 1u);
  EXPECT_EQ(sys.recorder().sum(&stats::NodeCounters::cc_merged_entries), 1u);
}

TEST(CCachedProtocol, EmptyFlushIsFree) {
  // cc_flush with nothing pending sends no messages — which is why ccached
  // is bit-identical to Stache on programs that never call cc_add.
  MachineConfig m = MachineConfig::cm5_blizzard(2, 32);
  m.mem.page_size = 512;
  System sys(m, ProtocolKind::kCCached);
  sys.space().alloc_on_node(0, 32);
  sys.run([&](NodeCtx& c) {
    c.cc_flush();
    c.barrier();
  });
  EXPECT_EQ(sys.recorder().sum(&stats::NodeCounters::cc_flushes), 0u);
}

TEST(CCachedProtocol, RejectsUpdatesOutsideCommutativeRegions) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        MachineConfig m = MachineConfig::cm5_blizzard(2, 32);
        m.mem.page_size = 512;
        System sys(m, ProtocolKind::kCCached);
        const mem::Addr a = sys.space().alloc_on_node(0, 32);
        sys.run([&](NodeCtx& c) {
          if (c.id() == 0) c.cc_add(a, 1);  // region was never tagged
          c.barrier();
        });
      },
      "commutative region");
}

}  // namespace
}  // namespace presto::check
