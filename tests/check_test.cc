// Tests for the correctness-tooling subsystem (src/check/): the coherence
// invariant oracle and the differential schedule fuzzer. The checking code
// is only trustworthy if it demonstrably catches planted protocol bugs
// (check/bughook.h) and demonstrably stays silent on the correct protocols.
#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "check/bughook.h"
#include "check/fuzz.h"
#include "check/oracle.h"
#include "runtime/system.h"

namespace presto::check {
namespace {

using runtime::MachineConfig;
using runtime::NodeCtx;
using runtime::ProtocolKind;
using runtime::System;

// A minimal producer/consumer program: node 1 reads block 0, then node 0
// overwrites it, repeated — exactly the pattern whose correctness depends
// on the invalidation the skip-invalidate bug suppresses.
FuzzProgram producer_consumer(int rounds) {
  FuzzProgram prog;
  prog.nodes = 2;
  prog.block_size = 32;
  prog.nblocks = 2;
  prog.seed = 5;
  FuzzPhase ph;
  ph.writer = {0, -1};
  ph.reader_mask = {0x2, 0x0};  // node 1 reads block 0
  FuzzRound rd;
  rd.phases.push_back(ph);
  for (int r = 0; r < rounds; ++r) prog.rounds.push_back(rd);
  return prog;
}

TEST(Oracle, SilentOnCorrectProtocols) {
  const FuzzProgram prog = generate(11);
  for (ProtocolKind kind :
       {ProtocolKind::kStache, ProtocolKind::kPredictive,
        ProtocolKind::kPredictiveAnticipate}) {
    const RunResult r = run_program(prog, kind, net::NetConfig{});
    EXPECT_EQ(r.oracle_violations, 0u) << r.first_violation;
    EXPECT_EQ(r.read_mismatches, 0u);
  }
}

TEST(Oracle, CatchesSkippedInvalidation) {
  // The lost-invalidation bug: Stache's Inv handler acks but leaves the
  // stale ReadOnly copy in place. The writer's next write to that block
  // breaks single-writer; the reader's next read breaks data-value.
  FuzzProgram prog = producer_consumer(2);
  prog.injected_bug = "skip-invalidate";
  const RunResult r =
      run_program(prog, ProtocolKind::kStache, net::NetConfig{});
  EXPECT_GT(r.oracle_violations, 0u);
  EXPECT_NE(r.first_violation.find("single-writer"), std::string::npos)
      << r.first_violation;
}

TEST(Oracle, CatchesDroppedPresendData) {
  // The predictive presend grants the access tag without moving the bytes:
  // reads off the pre-sent copy observe stale data. Needs enough rounds for
  // the schedule to prime (presends start in round 2).
  FuzzProgram prog = producer_consumer(4);
  prog.injected_bug = "drop-presend-data";
  const RunResult r =
      run_program(prog, ProtocolKind::kPredictive, net::NetConfig{});
  EXPECT_GT(r.oracle_violations, 0u);
  EXPECT_NE(r.first_violation.find("data-value"), std::string::npos)
      << r.first_violation;
  // The same program under Stache never presends — the bug stays dormant.
  const RunResult clean =
      run_program(prog, ProtocolKind::kStache, net::NetConfig{});
  EXPECT_EQ(clean.oracle_violations, 0u) << clean.first_violation;
}

TEST(Oracle, AbortModeDiesWithDiagnostic) {
  // In abort mode (the default attachment in Debug builds) the first
  // violation dumps the event ring and aborts the process.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        set_bug_hook("skip-invalidate", true);
        MachineConfig m = MachineConfig::cm5_blizzard(2, 32);
        m.mem.page_size = 512;
        System sys(m, ProtocolKind::kStache);
        sys.enable_oracle(FailMode::kAbort);
        const mem::Addr a = sys.space().alloc_on_node(0, 64);
        sys.run([&](NodeCtx& c) {
          for (int r = 0; r < 2; ++r) {
            if (c.id() == 0) c.write<int>(a, r + 1);
            c.barrier();
            if (c.id() == 1) c.read<int>(a);
            c.barrier();
          }
        });
      },
      "coherence oracle");
}

TEST(Oracle, FinalSweepComparesEveryValidCopy) {
  MachineConfig m = MachineConfig::cm5_blizzard(3, 32);
  m.mem.page_size = 512;
  System sys(m, ProtocolKind::kStache);
  Oracle& oracle = sys.enable_oracle(FailMode::kRecord);
  const mem::Addr a = sys.space().alloc_on_node(0, 256);
  sys.run([&](NodeCtx& c) {
    if (c.id() == 0)
      for (int i = 0; i < 64; ++i) c.write<int>(a + 4 * i, i);
    c.barrier();
    c.read<int>(a + 4 * c.id());
  });
  EXPECT_GT(oracle.reads_checked(), 0u);
  EXPECT_GT(oracle.writes_checked(), 0u);
  EXPECT_GT(oracle.final_sweep(), 0u);  // idempotent re-run of System's sweep
  EXPECT_EQ(oracle.violation_count(), 0u);
}

// What a kRecord oracle checked over one run.
struct CheckedCounts {
  std::uint64_t reads = 0, writes = 0, sends = 0, installs = 0,
                cc_updates = 0, violations = 0;
  bool operator==(const CheckedCounts&) const = default;
  friend std::ostream& operator<<(std::ostream& os, const CheckedCounts& c) {
    return os << "reads " << c.reads << ", writes " << c.writes << ", sends "
              << c.sends << ", installs " << c.installs << ", cc updates "
              << c.cc_updates << ", violations " << c.violations;
  }
};

enum class Attach { kOracleAlone, kOracleThenTracer, kTracerThenOracle };

// Owner writes (block b by node b mod 4), a publish, reads by every node,
// then commutative adds and a flush, for three rounds; the oracle is
// attached alone or under a tracer, the tracer attached before or after it.
// Under write-update the adds are read-modify-writes of local copies that
// no publish covers, so sums are lost (fuzz.cc rules such programs out);
// its phase-mode oracle checks none of those bytes.
CheckedCounts run_observed(ProtocolKind kind, Attach attach) {
  MachineConfig m = MachineConfig::cm5_blizzard(4, 32);
  m.mem.page_size = 256;
  System sys(m, kind);
  trace::TraceConfig tcfg;
  tcfg.enabled = true;  // in memory only
  if (attach == Attach::kTracerThenOracle) sys.enable_trace(tcfg);
  Oracle& oracle = sys.enable_oracle(FailMode::kRecord);
  if (attach == Attach::kOracleThenTracer) sys.enable_trace(tcfg);
  constexpr int kBlocks = 8;
  const mem::Addr data = sys.space().alloc(
      kBlocks * 32, [](mem::PageId p) { return static_cast<int>(p % 4); });
  const mem::Addr sums = sys.space().alloc_on_node(1, 32);
  sys.space().set_commutative(sums, 32);
  sys.run([&](NodeCtx& c) {
    for (int r = 0; r < 3; ++r) {
      c.phase(0);
      for (int b = c.id(); b < kBlocks; b += c.nodes())
        c.write<std::int32_t>(data + 32 * b, 100 * r + b);
      c.publish(data, kBlocks * 32);
      c.barrier();
      c.phase(1);
      std::int64_t sum = 0;
      for (int b = 0; b < kBlocks; ++b)
        sum += c.read<std::int32_t>(data + 32 * b);
      c.cc_add(sums + 8 * static_cast<mem::Addr>(r), sum);
      c.cc_flush();
      c.barrier();
    }
    c.read<std::int64_t>(sums);
  });
  return {oracle.reads_checked(),      oracle.writes_checked(),
          oracle.sends_checked(),      oracle.installs_checked(),
          oracle.cc_updates_checked(), oracle.violation_count()};
}

TEST(Oracle, ChecksTheSameStreamUnderATracer) {
  for (const ProtocolKind kind : runtime::kAllProtocolKinds) {
    SCOPED_TRACE(runtime::protocol_kind_name(kind));
    const CheckedCounts alone = run_observed(kind, Attach::kOracleAlone);
    EXPECT_GT(alone.reads, 0u);
    EXPECT_GT(alone.writes, 0u);
    EXPECT_GT(alone.sends, 0u);
    EXPECT_GT(alone.installs, 0u);
    // Only ccached privatizes commutative adds; elsewhere they are writes.
    EXPECT_EQ(alone.cc_updates > 0, kind == ProtocolKind::kCCached);
    EXPECT_EQ(alone.violations, 0u);
    EXPECT_EQ(run_observed(kind, Attach::kOracleThenTracer), alone);
    EXPECT_EQ(run_observed(kind, Attach::kTracerThenOracle), alone);
  }
}

TEST(Fuzz, GenerateIsDeterministic) {
  const FuzzProgram a = generate(123), b = generate(123);
  EXPECT_EQ(serialize_trace(a), serialize_trace(b));
  const FuzzProgram c = generate(124);
  EXPECT_NE(serialize_trace(a), serialize_trace(c));
}

TEST(Fuzz, TraceRoundTripsExactly) {
  for (std::uint64_t seed : {1ULL, 7ULL, 42ULL, 1000ULL}) {
    FuzzProgram prog = generate(seed);
    prog.injected_bug = seed == 42 ? "skip-invalidate" : "";
    const std::string text = serialize_trace(prog);
    EXPECT_EQ(serialize_trace(parse_trace(text)), text);
  }
}

TEST(Fuzz, CheckProgramReportsAreReplayable) {
  // The whole stack is deterministic: checking the same program twice gives
  // byte-identical reports (this is what makes --replay trustworthy).
  const FuzzProgram prog = generate(3);
  const FuzzVerdict a = check_program(prog, /*latency_sweep=*/true);
  const FuzzVerdict b = check_program(prog, /*latency_sweep=*/true);
  EXPECT_TRUE(a.ok) << a.report;
  EXPECT_EQ(a.report, b.report);
}

TEST(Fuzz, InjectedBugIsCaughtShrunkAndReplayedIdentically) {
  FuzzProgram prog = generate(1);
  prog.injected_bug = "skip-invalidate";
  const FuzzVerdict v = check_program(prog, /*latency_sweep=*/false);
  ASSERT_FALSE(v.ok);
  EXPECT_EQ(v.signature.rfind("violation[", 0), 0u) << v.signature;

  const FuzzProgram shrunk =
      shrink(prog, v.signature, /*latency_sweep=*/false, /*max_attempts=*/80);
  // Shrinking must keep the failure and not grow the program.
  const FuzzVerdict sv = check_program(shrunk, false);
  ASSERT_FALSE(sv.ok);
  EXPECT_EQ(sv.signature, v.signature);
  EXPECT_LE(shrunk.rounds.size(), prog.rounds.size());

  // Trace round-trip of the shrunk failure replays bit-identically.
  const FuzzProgram replayed = parse_trace(serialize_trace(shrunk));
  const FuzzVerdict rv = check_program(replayed, false);
  EXPECT_EQ(rv.report, sv.report);
  EXPECT_FALSE(rv.ok);
}

// Wide-shape program whose correctness depends on the home's reader set
// surviving a large -> small shrink. Participants 0/1/2 sit at physical
// nodes 0/63/127 of a 128-node machine; block 0's home is node 0. Phase 1
// registers readers {63, 127} at the home, phase 2 has node 127 write (and,
// under write-update, publish), phase 3 has node 63 read the new value.
// Clearing 127 from {63, 127} empties the NodeSet spill array — exactly
// where the drop-spill-sharer bug loses the surviving reader 63.
FuzzProgram spill_shrink_program() {
  FuzzProgram prog;
  prog.nodes = 128;
  prog.participants = 3;
  prog.block_size = 32;
  prog.nblocks = 1;
  prog.seed = 9;
  FuzzPhase prime;
  prime.writer = {-1};
  prime.reader_mask = {0x6};  // participants 1 and 2
  FuzzPhase write;
  write.writer = {2};
  write.reader_mask = {0x0};
  FuzzPhase readback;
  readback.writer = {-1};
  readback.reader_mask = {0x2};  // participant 1 must see the new value
  FuzzRound rd;
  rd.phases = {prime, write, readback};
  prog.rounds.push_back(rd);
  return prog;
}

TEST(Fuzz, WideShapesMapParticipantsAcrossTheMachine) {
  const FuzzProgram prog = spill_shrink_program();
  EXPECT_EQ(participant_count(prog), 3);
  EXPECT_EQ(participant_node(prog, 0), 0);
  EXPECT_EQ(participant_node(prog, 1), 63);
  EXPECT_EQ(participant_node(prog, 2), 127);
  // Dense shapes are the identity mapping.
  FuzzProgram dense = producer_consumer(1);
  EXPECT_EQ(participant_count(dense), 2);
  EXPECT_EQ(participant_node(dense, 1), 1);
  // Wide traces round-trip (the participants line) and stay clean.
  EXPECT_EQ(serialize_trace(parse_trace(serialize_trace(prog))),
            serialize_trace(prog));
  const FuzzVerdict v = check_program(prog, /*latency_sweep=*/false);
  EXPECT_TRUE(v.ok) << v.report;
}

TEST(Fuzz, CatchesDroppedSpillSharer) {
  // The planted hybrid-NodeSet bug: maybe_shrink_ frees an emptied spill
  // array but also drops the highest surviving inline member. Node 63's
  // registered read is forgotten, its copy goes stale, and the oracle (or
  // the host reference) flags the stale read under write-update. The same
  // program must stay clean on machines that never spill (<= 64 nodes the
  // bug cannot fire) and on the exact-set protocols.
  FuzzProgram prog = spill_shrink_program();
  prog.injected_bug = "drop-spill-sharer";
  const FuzzVerdict v = check_program(prog, /*latency_sweep=*/false);
  ASSERT_FALSE(v.ok);
  EXPECT_NE(v.signature.find("write-update"), std::string::npos)
      << v.signature;

  const FuzzProgram shrunk =
      shrink(prog, v.signature, /*latency_sweep=*/false, /*max_attempts=*/60);
  const FuzzVerdict sv = check_program(shrunk, false);
  ASSERT_FALSE(sv.ok);
  EXPECT_EQ(sv.signature, v.signature);
  // The failure is spill-specific: shrinking must not collapse the machine
  // below the spill threshold.
  EXPECT_GT(shrunk.nodes, 64);

  // Replay from the serialized trace reproduces the verdict byte-for-byte.
  const FuzzVerdict rv = check_program(parse_trace(serialize_trace(shrunk)),
                                       /*latency_sweep=*/false);
  EXPECT_EQ(rv.report, sv.report);
}

TEST(Fuzz, WriteUpdateSupportRules) {
  FuzzProgram prog = producer_consumer(2);
  EXPECT_TRUE(supports_write_update(prog));
  // A second writer for block 0 breaks the stable-owner assumption.
  prog.rounds[1].phases[0].writer[0] = 1;
  EXPECT_FALSE(supports_write_update(prog));
  // Locks rule write-update out entirely.
  FuzzProgram locked = producer_consumer(2);
  locked.use_locks = true;
  locked.rounds[0].phases[0].lock_users = 0x3;
  EXPECT_FALSE(supports_write_update(locked));
}

TEST(Fuzz, SmallCorpusIsClean) {
  for (std::uint64_t seed = 500; seed < 520; ++seed) {
    const FuzzVerdict v = check_program(generate(seed), /*latency_sweep=*/true);
    EXPECT_TRUE(v.ok) << "seed " << seed << ":\n" << v.report;
  }
}

TEST(BugHooks, UnknownNameAborts) {
  EXPECT_DEATH(set_bug_hook("no-such-bug", true), "unknown bug hook");
}

}  // namespace
}  // namespace presto::check
