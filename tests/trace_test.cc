// Golden-trace tier: pinned digests of the canonical event stream (the
// ccached merge workload here; the protocol × block-size matrix in
// WindowedGoldenMatrix), and the zero-perturbation
// guarantee — a traced run's simulated results are bit-identical to an
// untraced run's.
//
// The digest (event count by kind + FNV-1a over the canonical seq-merged
// stream) freezes the *observed* behavior the tracer reports: any change to
// hook placement, event layout, or the simulated execution itself trips
// here. Pins were captured from the implementation that introduced the
// tracer; on an intentional change, rerun and paste the ACTUAL rows.
#include <gtest/gtest.h>

#include "golden_workload.h"
#include "trace/file.h"

using namespace presto;

namespace {

using runtime::ProtocolKind;
using testutil::run_micro_workload;
using testutil::WorkloadResult;

WorkloadResult traced_run(ProtocolKind kind, std::uint32_t block_size) {
  return run_micro_workload(kind, /*nodes=*/4,
                            /*rounds=*/6, sim::default_backend(), block_size,
                            /*traced=*/true);
}

const char* kind_id(ProtocolKind k) {
  switch (k) {
    case ProtocolKind::kStache: return "kStache";
    case ProtocolKind::kPredictive: return "kPredictive";
    case ProtocolKind::kPredictiveAnticipate: return "kPredictiveAnticipate";
    case ProtocolKind::kWriteUpdate: return "kWriteUpdate";
    case ProtocolKind::kCCached: return "kCCached";
  }
  return "?";
}

// The protocol x block-size matrix of this workload's trace digests is
// pinned once, with its simulated counters, by WindowedGoldenMatrix
// (tests/parallel_equivalence_test.cc).

// The merge path's own stream: the cc micro workload under ccached pins the
// CcFlush/merge/quiesce event sequences across the block-size sweep.
TEST(GoldenTrace, CCachedReductionMatrix) {
  struct CcTraceGolden {
    std::uint32_t block_size;
    std::uint64_t events, hash;
  };
  const CcTraceGolden table[] = {
      {32, 45229ull, 1417075087762242491ull},
      {128, 40364ull, 16379621658894025594ull},
      {1024, 8896ull, 8358202060645927364ull},
  };
  for (const auto& g : table) {
    SCOPED_TRACE("bsz=" + std::to_string(g.block_size));
    const auto r = testutil::run_cc_micro_workload(
        ProtocolKind::kCCached, g.block_size, /*nodes=*/4, /*rounds=*/6,
        /*traced=*/true);
    ASSERT_TRUE(r.traced);
    EXPECT_EQ(r.trace_summary.dropped, 0u);
    EXPECT_EQ(r.trace_digest.events, g.events);
    EXPECT_EQ(r.trace_digest.hash, g.hash);
    if (::testing::Test::HasFailure()) {
      std::printf("ACTUAL: {%u, %lluull, %lluull},\n", g.block_size,
                  (unsigned long long)r.trace_digest.events,
                  (unsigned long long)r.trace_digest.hash);
    }
  }
}

// The digest is a faithful function of the canonical stream: the hash must
// equal FNV-1a over the serialized event bytes, and the by-kind counts must
// partition the total.
TEST(GoldenTrace, DigestMatchesCanonicalStream) {
  const auto r = traced_run(ProtocolKind::kPredictive, 32);
  ASSERT_TRUE(r.traced);
  EXPECT_EQ(r.trace_digest.events, r.trace_data.events.size());
  std::uint64_t h = trace::kFnvBasis;
  h = trace::fnv1a64(h, r.trace_data.events.data(),
                     r.trace_data.events.size() * sizeof(trace::Event));
  EXPECT_EQ(r.trace_digest.hash, h);
  std::uint64_t total = 0;
  for (const auto n : r.trace_digest.by_kind) total += n;
  EXPECT_EQ(total, r.trace_digest.events);
  // seq is a strict total order in the canonical stream.
  for (std::size_t i = 1; i < r.trace_data.events.size(); ++i)
    ASSERT_LT(r.trace_data.events[i - 1].seq, r.trace_data.events[i].seq);
}

// Zero perturbation: attaching the tracer must not move a single simulated
// number. Every golden counter, the event count, exec time, and the final
// memory/tag hash of a traced run equal the untraced run's bit for bit.
class TracePurityTest : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(TracePurityTest, TracedRunBitIdenticalToUntraced) {
  const auto plain = run_micro_workload(GetParam());
  const auto traced = run_micro_workload(GetParam(),
                                         /*nodes=*/4, /*rounds=*/6,
                                         sim::default_backend(),
                                         /*block_size=*/32, /*traced=*/true);
  EXPECT_EQ(plain.msgs, traced.msgs);
  EXPECT_EQ(plain.bytes, traced.bytes);
  EXPECT_EQ(plain.events, traced.events);
  EXPECT_EQ(plain.exec, traced.exec);
  EXPECT_EQ(plain.mem_hash, traced.mem_hash);
  ASSERT_EQ(plain.counters.size(), traced.counters.size());
  for (std::size_t n = 0; n < plain.counters.size(); ++n) {
    SCOPED_TRACE("node " + std::to_string(n));
    const auto& a = plain.counters[n];
    const auto& b = traced.counters[n];
    EXPECT_EQ(a.remote_wait, b.remote_wait);
    EXPECT_EQ(a.presend, b.presend);
    EXPECT_EQ(a.barrier_wait, b.barrier_wait);
    EXPECT_EQ(a.lock_wait, b.lock_wait);
    EXPECT_EQ(a.finish, b.finish);
    EXPECT_EQ(a.shared_reads, b.shared_reads);
    EXPECT_EQ(a.shared_writes, b.shared_writes);
    EXPECT_EQ(a.read_faults, b.read_faults);
    EXPECT_EQ(a.write_faults, b.write_faults);
    EXPECT_EQ(a.msgs_sent, b.msgs_sent);
    EXPECT_EQ(a.bytes_sent, b.bytes_sent);
    EXPECT_EQ(a.presend_blocks_sent, b.presend_blocks_sent);
    EXPECT_EQ(a.presend_blocks_received, b.presend_blocks_received);
    EXPECT_EQ(a.schedule_entries, b.schedule_entries);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, TracePurityTest,
    ::testing::ValuesIn(runtime::kAllProtocolKinds),
    [](const ::testing::TestParamInfo<ProtocolKind>& info) -> std::string {
      return kind_id(info.param) + 1;  // strip the "k" prefix
    });

// Category filters drop whole kinds but must not perturb or reorder what
// remains: a miss,msg-filtered trace holds exactly the full trace's events
// of those kinds, in the same relative order (same per-kind counts; the
// stream itself is a subsequence so its per-kind hashes cannot be compared
// directly — seq values differ — but counts pin the selection).
TEST(TraceFilter, CategorySubsetOfFullStream) {
  const std::uint32_t cats = trace::kCatMiss | trace::kCatMsg;
  // The canonical CLI spec form parses to the same mask.
  const auto spec = trace::TraceConfig::from_spec("x.ptrc:miss,msg");
  EXPECT_EQ(spec.categories, cats);
  EXPECT_EQ(spec.path, "x.ptrc");
  EXPECT_TRUE(spec.enabled);

  const auto full = traced_run(ProtocolKind::kPredictive, 32);
  const auto filtered = run_micro_workload(
      ProtocolKind::kPredictive, /*nodes=*/4,
      /*rounds=*/6, sim::default_backend(), /*block_size=*/32,
      /*traced=*/true, cats);
  ASSERT_TRUE(filtered.traced);
  std::uint64_t expect = 0;
  for (std::size_t k = 0; k < trace::kNumEventKinds; ++k) {
    const auto kind = static_cast<trace::EventKind>(k);
    const bool kept = (trace::event_kind_category(kind) & cats) != 0;
    if (kept) expect += full.trace_digest.by_kind[k];
    EXPECT_EQ(filtered.trace_digest.by_kind[k],
              kept ? full.trace_digest.by_kind[k] : 0u)
        << trace::event_kind_name(kind);
  }
  EXPECT_GT(expect, 0u);
  EXPECT_EQ(filtered.trace_digest.events, expect);
  // Filtering must not perturb the simulation either.
  EXPECT_EQ(filtered.exec, full.exec);
  EXPECT_EQ(filtered.mem_hash, full.mem_hash);
}

// Every kind and class has a real name; every category name round-trips
// through the CLI parser. These tables feed the reports and the --trace
// filter, so a hole is a user-visible "?".
TEST(TraceNames, TablesAreTotalAndRoundTrip) {
  for (std::size_t k = 0; k < trace::kNumEventKinds; ++k) {
    const auto kind = static_cast<trace::EventKind>(k);
    EXPECT_STRNE(trace::event_kind_name(kind), "?");
    const auto cat = trace::event_kind_category(kind);
    EXPECT_NE(cat & trace::kCatAll, 0u) << trace::event_kind_name(kind);
  }
  for (const auto c :
       {trace::kCatPhase, trace::kCatBarrier, trace::kCatLock,
        trace::kCatMiss, trace::kCatMsg, trace::kCatData, trace::kCatSim,
        trace::kCatAll}) {
    const char* name = trace::category_name(c);
    EXPECT_STRNE(name, "?");
    EXPECT_EQ(trace::category_from_name(name), static_cast<std::uint32_t>(c));
  }
  EXPECT_EQ(trace::category_from_name("no-such-category"), 0u);
  for (std::size_t c = 0; c < trace::kNumMissClasses; ++c)
    EXPECT_STRNE(trace::miss_class_name(static_cast<trace::MissClass>(c)),
                 "?");

  // Spec forms: empty = disabled; bare file = all categories.
  const auto off = trace::TraceConfig::from_spec("");
  EXPECT_FALSE(off.enabled);
  const auto all = trace::TraceConfig::from_spec("t.json");
  EXPECT_TRUE(all.enabled);
  EXPECT_EQ(all.categories, static_cast<std::uint32_t>(trace::kCatAll));
  const auto some = trace::TraceConfig::from_spec("t:phase,barrier,lock,sim");
  EXPECT_EQ(some.categories,
            trace::kCatPhase | trace::kCatBarrier | trace::kCatLock |
                trace::kCatSim);
}

}  // namespace
