// Golden simulated-time statistics of small runs, in the one (windowed)
// canon every System runs.
//
// These values freeze the *simulated* behavior of a small Stache run and a
// small Predictive run: message counts, bytes on the wire, fault counts,
// remote wait, presend time, execution time, and a hash of final memory
// contents + access tags. Host-performance rewrites (event queue, message
// transport, access fast path, schedule layout) must keep every number
// bit-identical; any drift here means simulated results changed.
#include <gtest/gtest.h>

#include "apps/ocean/ocean.h"
#include "apps/ranker/ranker.h"
#include "golden_workload.h"

using namespace presto;

namespace {

struct Golden {
  std::uint64_t msgs, bytes, events;
  sim::Time exec;
  std::uint64_t shared_reads, shared_writes, read_faults, write_faults,
      local_faults, msgs_sent, bytes_sent;
  sim::Time remote_wait, presend, barrier_wait;
  std::uint64_t presend_blocks_sent, presend_msgs, schedule_entries;
  std::uint64_t mem_hash;
};

void check_against(const testutil::WorkloadResult& r, const Golden& g) {
  std::uint64_t shared_reads = 0, shared_writes = 0, read_faults = 0,
                write_faults = 0, local_faults = 0, msgs_sent = 0,
                bytes_sent = 0, presend_blocks = 0, presend_msgs = 0,
                schedule_entries = 0;
  sim::Time remote_wait = 0, presend = 0, barrier_wait = 0;
  for (const auto& c : r.counters) {
    shared_reads += c.shared_reads;
    shared_writes += c.shared_writes;
    read_faults += c.read_faults;
    write_faults += c.write_faults;
    local_faults += c.local_faults;
    msgs_sent += c.msgs_sent;
    bytes_sent += c.bytes_sent;
    presend_blocks += c.presend_blocks_sent;
    presend_msgs += c.presend_msgs;
    schedule_entries += c.schedule_entries;
    remote_wait += c.remote_wait;
    presend += c.presend;
    barrier_wait += c.barrier_wait;
  }
  EXPECT_EQ(r.msgs, g.msgs);
  EXPECT_EQ(r.bytes, g.bytes);
  EXPECT_EQ(r.events, g.events);
  EXPECT_EQ(r.exec, g.exec);
  EXPECT_EQ(shared_reads, g.shared_reads);
  EXPECT_EQ(shared_writes, g.shared_writes);
  EXPECT_EQ(read_faults, g.read_faults);
  EXPECT_EQ(write_faults, g.write_faults);
  EXPECT_EQ(local_faults, g.local_faults);
  EXPECT_EQ(msgs_sent, g.msgs_sent);
  EXPECT_EQ(bytes_sent, g.bytes_sent);
  EXPECT_EQ(remote_wait, g.remote_wait);
  EXPECT_EQ(presend, g.presend);
  EXPECT_EQ(barrier_wait, g.barrier_wait);
  EXPECT_EQ(presend_blocks, g.presend_blocks_sent);
  EXPECT_EQ(presend_msgs, g.presend_msgs);
  EXPECT_EQ(schedule_entries, g.schedule_entries);
  EXPECT_EQ(r.mem_hash, g.mem_hash);

  // On mismatch, print the full actual row so the golden can be inspected.
  if (::testing::Test::HasFailure()) {
    std::printf(
        "ACTUAL: {%lluull, %lluull, %lluull, %lld, %lluull, %lluull, "
        "%lluull, %lluull, %lluull, %lluull, %lluull, %lld, %lld, %lld, "
        "%lluull, %lluull, %lluull, %lluull},\n",
        (unsigned long long)r.msgs, (unsigned long long)r.bytes,
        (unsigned long long)r.events, (long long)r.exec,
        (unsigned long long)shared_reads, (unsigned long long)shared_writes,
        (unsigned long long)read_faults, (unsigned long long)write_faults,
        (unsigned long long)local_faults, (unsigned long long)msgs_sent,
        (unsigned long long)bytes_sent, (long long)remote_wait,
        (long long)presend, (long long)barrier_wait,
        (unsigned long long)presend_blocks, (unsigned long long)presend_msgs,
        (unsigned long long)schedule_entries,
        (unsigned long long)r.mem_hash);
  }
}

// Both runs end with the same memory/tag hash by construction. Captured when
// the windowed engine became the only canon; the single-lane values they
// replaced are listed in CHANGES.md.
TEST(GoldenStats, StacheSmallRun) {
  const Golden g = {6903ull,   196368ull, 16500ull, 249729320, 2496ull,
                    1488ull,   963ull,    1314ull,  471ull,    6903ull,
                    196368ull, 331312060, 0,        667366180, 0ull,
                    0ull,      0ull,      14559042160599073619ull};
  check_against(testutil::run_micro_workload(runtime::ProtocolKind::kStache),
                g);
}

TEST(GoldenStats, PredictiveSmallRun) {
  const Golden g = {7022ull,   201984ull, 16232ull, 242737780, 2496ull,
                    1488ull,   564ull,    1332ull,  372ull,    7022ull,
                    201984ull, 281813920, 25684000, 668523160, 340ull,
                    396ull,    330ull,    14559042160599073619ull};
  check_against(
      testutil::run_micro_workload(runtime::ProtocolKind::kPredictive), g);
}

// Compact digest pins across every protocol × coherence block size
// (testutil::kMicroPins, whose trace columns the parallel tier checks).
// These freeze the simulated behavior of the directory, sharer-set,
// schedule and channel metadata: any layout change that perturbs message
// counts, wire bytes, event counts, simulated time, fault counts, or final
// memory/tag contents trips here.
const char* kind_id(runtime::ProtocolKind k) {
  switch (k) {
    case runtime::ProtocolKind::kStache: return "kStache";
    case runtime::ProtocolKind::kPredictive: return "kPredictive";
    case runtime::ProtocolKind::kPredictiveAnticipate:
      return "kPredictiveAnticipate";
    case runtime::ProtocolKind::kWriteUpdate: return "kWriteUpdate";
    case runtime::ProtocolKind::kCCached: return "kCCached";
  }
  return "?";
}

TEST(GoldenStats, ProtocolBlockSizeMatrix) {
  for (const testutil::MicroPin& g : testutil::kMicroPins) {
    SCOPED_TRACE(std::string(runtime::protocol_kind_name(g.kind)) + " bsz=" +
                 std::to_string(g.block_size));
    const auto r = testutil::run_micro_workload(
        g.kind, /*nodes=*/4, /*rounds=*/6,
        sim::default_backend(), g.block_size);
    const std::uint64_t faults = testutil::total_faults(r);
    EXPECT_EQ(r.msgs, g.msgs);
    EXPECT_EQ(r.bytes, g.bytes);
    EXPECT_EQ(r.events, g.events);
    EXPECT_EQ(r.exec, g.exec);
    EXPECT_EQ(faults, g.faults);
    EXPECT_EQ(r.mem_hash, g.mem_hash);
    if (::testing::Test::HasFailure()) {
      std::printf("ACTUAL: {runtime::ProtocolKind::%s, %u,\n     %lluull, "
                  "%lluull, %lluull, %lld, %lluull, 0x%016llxull, ...},\n",
                  kind_id(g.kind), g.block_size,
                  (unsigned long long)r.msgs, (unsigned long long)r.bytes,
                  (unsigned long long)r.events, (long long)r.exec,
                  (unsigned long long)faults, (unsigned long long)r.mem_hash);
    }
  }
}

// Golden pins for the commutative-update path itself: the cc micro workload
// under ccached across the block-size sweep. Freezes the merge machinery's
// simulated behavior — flush counts, log-entry counts, merge quiescing
// traffic, execution time, and the final merged image.
struct CcGolden {
  std::uint32_t block_size;
  std::uint64_t msgs, bytes, events;
  sim::Time exec;
  std::uint64_t faults, cc_flushes, cc_entries;
  std::uint64_t mem_hash;
};

TEST(GoldenStats, CCachedReductionMatrix) {
  const CcGolden table[] = {
      {32, 9060ull, 218976ull, 23105ull, 103621180, 261ull, 4104ull, 4104ull,
       610398598696613665ull},
      {128, 8256ull, 271488ull, 21788ull, 101848480, 576ull, 3072ull, 4104ull,
       13582391546771832539ull},
      {1024, 1824ull, 389760ull, 5232ull, 32277880, 288ull, 384ull, 4104ull,
       2918967825027301891ull},
  };
  for (const auto& g : table) {
    SCOPED_TRACE("bsz=" + std::to_string(g.block_size));
    const auto r = testutil::run_cc_micro_workload(
        runtime::ProtocolKind::kCCached, g.block_size);
    const std::uint64_t faults = testutil::total_faults(r);
    EXPECT_EQ(r.msgs, g.msgs);
    EXPECT_EQ(r.bytes, g.bytes);
    EXPECT_EQ(r.events, g.events);
    EXPECT_EQ(r.exec, g.exec);
    EXPECT_EQ(faults, g.faults);
    EXPECT_EQ(r.cc_flushes, g.cc_flushes);
    EXPECT_EQ(r.cc_entries, g.cc_entries);
    EXPECT_EQ(r.mem_hash, g.mem_hash);
    if (::testing::Test::HasFailure()) {
      std::printf("ACTUAL: {%u, %lluull, %lluull, %lluull, %lld, %lluull, "
                  "%lluull, %lluull, %lluull},\n",
                  g.block_size, (unsigned long long)r.msgs,
                  (unsigned long long)r.bytes, (unsigned long long)r.events,
                  (long long)r.exec, (unsigned long long)faults,
                  (unsigned long long)r.cc_flushes,
                  (unsigned long long)r.cc_entries,
                  (unsigned long long)r.mem_hash);
    }
  }
}

// Application-level pins: ocean and ranker under every protocol. The
// checksum is pinned once (all five protocols must agree exactly — the
// cross-protocol assertion lives in apps_test.cc); the per-protocol rows
// freeze each protocol's simulated traffic and timing on the new workloads.
struct AppGolden {
  runtime::ProtocolKind kind;
  sim::Time exec;
  std::uint64_t msgs, bytes, faults;
};

template <typename RunFn>
void check_app_pins(const AppGolden (&table)[5], double golden_checksum,
                    RunFn run) {
  for (const auto& g : table) {
    SCOPED_TRACE(runtime::protocol_kind_name(g.kind));
    const auto r = run(g.kind);
    EXPECT_EQ(r.report.exec, g.exec);
    EXPECT_EQ(r.report.msgs, g.msgs);
    EXPECT_EQ(r.report.bytes, g.bytes);
    EXPECT_EQ(r.report.faults, g.faults);
    EXPECT_DOUBLE_EQ(r.checksum, golden_checksum);
    if (::testing::Test::HasFailure()) {
      std::printf("ACTUAL: {ProtocolKind::%s, %lld, %lluull, %lluull, "
                  "%lluull},  // checksum %.17g\n",
                  kind_id(g.kind), (long long)r.report.exec,
                  (unsigned long long)r.report.msgs,
                  (unsigned long long)r.report.bytes,
                  (unsigned long long)r.report.faults, r.checksum);
    }
  }
}

TEST(GoldenStats, OceanProtocolPins) {
  using runtime::ProtocolKind;
  const AppGolden table[5] = {
      {ProtocolKind::kStache, 7025760, 444ull, 10176ull, 180ull},
      {ProtocolKind::kPredictive, 3107760, 252ull, 7104ull, 48ull},
      {ProtocolKind::kPredictiveAnticipate, 3107760, 252ull, 7104ull, 48ull},
      {ProtocolKind::kWriteUpdate, 2234880, 224ull, 9984ull, 24ull},
      // No commutative regions: identical to the Stache row by construction.
      {ProtocolKind::kCCached, 7025760, 444ull, 10176ull, 180ull},
  };
  apps::OceanParams params;
  params.n = 16;
  params.iters = 4;
  const auto m = runtime::MachineConfig::cm5_blizzard(4, 32);
  check_app_pins(table, 1674.0921020507812, [&](ProtocolKind kind) {
    const bool directives = kind == ProtocolKind::kPredictive ||
                            kind == ProtocolKind::kPredictiveAnticipate;
    return apps::run_ocean(params, m, kind, directives);
  });
}

TEST(GoldenStats, RankerProtocolPins) {
  using runtime::ProtocolKind;
  // The ranker rows are the protocol's thesis in numbers: the rmw push storm
  // costs Stache 1182 faults / 54.1ms; privatized logs + merges bring
  // ccached to 0 faults / 8.2ms. (Write-update's row is all-private
  // accumulation + reduce — no shared push traffic at all.)
  const AppGolden table[5] = {
      {ProtocolKind::kStache, 54121420, 3720ull, 110720ull, 1182ull},
      {ProtocolKind::kPredictive, 52141980, 3529ull, 107472ull, 1089ull},
      {ProtocolKind::kPredictiveAnticipate, 52141980, 3529ull, 107472ull,
       1089ull},
      {ProtocolKind::kWriteUpdate, 291680, 0ull, 0ull, 0ull},
      {ProtocolKind::kCCached, 8197440, 676ull, 22784ull, 0ull},
  };
  apps::RankerParams params;
  params.vertices = 96;
  params.iters = 4;
  const auto m = runtime::MachineConfig::cm5_blizzard(4, 32);
  check_app_pins(table, 23224662.0, [&](ProtocolKind kind) {
    const bool directives = kind == ProtocolKind::kPredictive ||
                            kind == ProtocolKind::kPredictiveAnticipate;
    return apps::run_ranker(params, m, kind, directives);
  });
}

}  // namespace
