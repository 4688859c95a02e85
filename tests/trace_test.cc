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

// Several Systems under one --trace: run i writes FILE with ".i" before the
// file name's extension; run 0 and an in-memory config keep their path.
TEST(TraceConfig, ForRunNamesEachRunByIndex) {
  const auto cfg = trace::TraceConfig::from_spec("out.json:miss");
  EXPECT_EQ(cfg.for_run(0).path, "out.json");
  EXPECT_EQ(cfg.for_run(2).path, "out.2.json");
  EXPECT_EQ(cfg.for_run(2).categories, cfg.categories);
  EXPECT_TRUE(cfg.for_run(2).enabled);
  EXPECT_EQ(trace::TraceConfig::from_spec("out").for_run(1).path, "out.1");
  EXPECT_EQ(trace::TraceConfig::from_spec("d.x/t").for_run(1).path, "d.x/t.1");
  EXPECT_EQ(trace::TraceConfig::from_spec("d/.t").for_run(3).path, "d/.t.3");
  EXPECT_EQ(trace::TraceConfig::from_spec(".t.ptrc").for_run(1).path,
            ".t.1.ptrc");
  trace::TraceConfig mem;
  mem.enabled = true;
  EXPECT_EQ(mem.for_run(4).path, "");
}

// A tracer built with no engine (the constructor a host-cost probe uses to
// call hooks directly) takes every hook, including the observer hooks that
// read a clock and the reads and writes that consume a pending presend; its
// events are stamped at finalize, and the clockless hooks record time 0.
TEST(TracerNoEngine, EveryHookThenFinalizeAndBuild) {
  mem::GlobalSpace space(4, mem::MemConfig{});
  trace::TraceConfig cfg;
  cfg.enabled = true;
  trace::Tracer t(cfg, space, nullptr);
  const auto gets = static_cast<std::uint8_t>(proto::MsgType::GetS);

  t.on_phase_begin(0, 1, 10);
  t.on_phase_ready(0, 1, 11);
  t.on_phase_flush(0, 1, 12);
  t.on_barrier_arrive(1, 0, 13);
  t.on_barrier_release(1, 0, 14);
  t.on_lock_acquire(2, 7, 15);
  t.on_lock_acquired(2, 7, 16, /*contended=*/true);
  t.on_lock_release(2, 7, 17);
  t.on_miss_start(3, 5, /*is_write=*/false, 18);
  proto::Msg m;
  m.type = proto::MsgType::GetS;
  m.src = 3;
  m.block = 5;
  t.on_send(3, 0, m, 16, 18);
  t.on_msg_recv(0, 3, gets, 5, 16, 48, 48);
  t.on_install(3, 5, nullptr, mem::Tag::ReadOnly);
  t.on_miss_end(3, 5, /*is_write=*/false, 90);
  // Blocks 8 and 9 arrive by presend at node 1 and are consumed there.
  t.on_presend_install(1, 0, 8, 2, 50);
  const int v = 42;
  t.on_app_read(1, 8, 0, &v, sizeof v);
  t.on_app_write(1, 9, 0, &v, sizeof v);
  t.on_cc_update(1, 9, 0, 3);
  t.on_ctx_block(2, 60);
  t.on_ctx_resume(2, 61);

  t.finalize(100, "stache");
  const trace::Summary& s = t.summary();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.presend_installs, 2u);
  EXPECT_EQ(s.presend_hits, 2u);
  EXPECT_EQ(s.presend_waste + s.presend_unused, 0u);
  EXPECT_EQ(s.dropped, 0u);

  const trace::TraceData d = t.build(proto::ProtoCosts{}, net::NetConfig{});
  EXPECT_EQ(d.meta.nodes, 4u);
  EXPECT_EQ(d.meta.exec_time, 100);
  ASSERT_EQ(d.events.size(), s.events);
  EXPECT_EQ(d.events.size(), 19u);
  std::uint32_t installs = 0, hits = 0;
  for (std::size_t i = 0; i < d.events.size(); ++i) {
    const trace::Event& e = d.events[i];
    EXPECT_EQ(e.seq, i);  // stamped at finalize, in node then append order
    const auto k = static_cast<trace::EventKind>(e.kind);
    if (k == trace::EventKind::kInstall) {
      ++installs;
      EXPECT_EQ(e.t, 0u);
    }
    if (k == trace::EventKind::kPresendHit) {
      ++hits;
      EXPECT_EQ(e.t, 0u);
    }
  }
  EXPECT_EQ(installs, 1u);
  EXPECT_EQ(hits, 2u);
  EXPECT_EQ(t.digest().events, d.events.size());
}

}  // namespace
