// Binary trace format: round-trip identity and adversarial-input hardening.
//
// serialize → parse → serialize must be a byte-level fixed point for real
// traces (micro workload and fuzz-corpus programs). The reader must treat
// the file as hostile: truncation at any boundary, bit flips in any
// validated region, version skew, and inconsistent counts all fail with a
// diagnostic string and never crash (this file runs under ASan in the
// sanitizer CI job).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>

#include "check/fuzz.h"
#include "golden_workload.h"
#include "runtime/lock.h"
#include "trace/analysis.h"
#include "trace/file.h"

using namespace presto;

namespace {

using runtime::ProtocolKind;

trace::TraceData sample_trace(ProtocolKind kind = ProtocolKind::kPredictive) {
  const auto r = testutil::run_micro_workload(
      kind, /*nodes=*/4, /*rounds=*/3,
      sim::default_backend(), /*block_size=*/32, /*traced=*/true);
  return r.trace_data;
}

void expect_identical(const trace::TraceData& a, const trace::TraceData& b) {
  EXPECT_EQ(std::memcmp(&a.meta, &b.meta, sizeof(a.meta)), 0);
  ASSERT_EQ(a.events.size(), b.events.size());
  if (!a.events.empty()) {
    EXPECT_EQ(std::memcmp(a.events.data(), b.events.data(),
                          a.events.size() * sizeof(trace::Event)),
              0);
  }
}

TEST(TraceIo, SerializeParseIdentity) {
  const auto t = sample_trace();
  ASSERT_FALSE(t.events.empty());
  const auto bytes = trace::serialize(t);
  trace::TraceData back;
  std::string err;
  ASSERT_TRUE(trace::parse(bytes.data(), bytes.size(), &back, &err)) << err;
  expect_identical(t, back);
  // Re-serialization is a fixed point.
  const auto bytes2 = trace::serialize(back);
  ASSERT_EQ(bytes.size(), bytes2.size());
  EXPECT_EQ(std::memcmp(bytes.data(), bytes2.data(), bytes.size()), 0);
}

TEST(TraceIo, EmptyTraceRoundTrips) {
  trace::TraceData t;
  t.meta.nodes = 2;
  t.meta.block_size = 64;
  std::strncpy(t.meta.protocol, "stache", sizeof(t.meta.protocol) - 1);
  const auto bytes = trace::serialize(t);
  trace::TraceData back;
  std::string err;
  ASSERT_TRUE(trace::parse(bytes.data(), bytes.size(), &back, &err)) << err;
  expect_identical(t, back);
}

TEST(TraceIo, FileRoundTripIdentity) {
  const auto t = sample_trace(ProtocolKind::kStache);
  const std::string path = ::testing::TempDir() + "trace_io_roundtrip.ptrc";
  std::string err;
  ASSERT_TRUE(trace::write_file(t, path, &err)) << err;
  trace::TraceData back;
  ASSERT_TRUE(trace::read_file(path, &back, &err)) << err;
  expect_identical(t, back);
  std::remove(path.c_str());
}

// Round-trip over fuzz-corpus programs: richer protocol mixes (locks,
// reductions, drifting writers) than the micro workload.
TEST(TraceIo, FuzzProgramRoundTrip) {
  for (const std::uint64_t seed : {1ull, 7ull, 23ull}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const auto prog = check::generate(seed);
    check::TraceCapture cap;
    const auto res = check::run_program(prog, ProtocolKind::kPredictive,
                                        net::NetConfig{}, &cap);
    ASSERT_EQ(res.read_mismatches, 0u);
    const auto bytes = trace::serialize(cap.data);
    trace::TraceData back;
    std::string err;
    ASSERT_TRUE(trace::parse(bytes.data(), bytes.size(), &back, &err)) << err;
    expect_identical(cap.data, back);
  }
}

// A workload hitting the event kinds the micro workload never emits: shared
// locks (contended handoffs) and explicit phase flushes, with no phase
// directive before the first round so the "(before first phase)" attribution
// bucket is populated too.
trace::TraceData lock_flush_trace() {
  auto m = runtime::MachineConfig::cm5_blizzard(4, 32);
  m.trace.enabled = true;
  runtime::System sys(m, ProtocolKind::kPredictive);
  auto lock = runtime::SharedLock::create(sys.space(), 0);
  const auto counter = sys.space().alloc_on_node(0, 64);
  sys.run([&](runtime::NodeCtx& c) {
    for (int r = 0; r < 3; ++r) {
      lock.acquire(c);
      c.rmw<std::uint64_t>(counter, [](std::uint64_t& v) { ++v; });
      lock.release(c);
      c.barrier();
      c.phase(0);
      if (c.id() == 0) c.write<int>(counter + 32, r);
      c.barrier();
      c.flush_phase(0);
      c.barrier();
    }
  });
  return sys.tracer()->build(m.costs, m.net);
}

TEST(TraceIo, LockAndFlushEventsRoundTripAndExport) {
  const auto t = lock_flush_trace();
  const auto lock_acq = static_cast<std::size_t>(
      trace::EventKind::kLockAcquired);
  const auto flush = static_cast<std::size_t>(trace::EventKind::kPhaseFlush);
  std::size_t acq = 0, fl = 0;
  for (const auto& e : t.events) {
    if (e.kind == lock_acq) ++acq;
    if (e.kind == flush) ++fl;
  }
  EXPECT_EQ(acq, 12u);  // 4 nodes × 3 rounds
  EXPECT_EQ(fl, 12u);
  // Round trip.
  const auto bytes = trace::serialize(t);
  trace::TraceData back;
  std::string err;
  ASSERT_TRUE(trace::parse(bytes.data(), bytes.size(), &back, &err)) << err;
  expect_identical(t, back);
  // Perfetto export renders lock slices and flush instants.
  const std::string path = ::testing::TempDir() + "trace_io_lock.json";
  ASSERT_TRUE(trace::write_perfetto(t, path, &err)) << err;
  FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string body;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) body.append(buf, n);
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_NE(body.find("lock b"), std::string::npos);
  EXPECT_NE(body.find("unlock b"), std::string::npos);
  EXPECT_NE(body.find("flush phase 0"), std::string::npos);
  // The text reports handle the pre-phase bucket and lock wait.
  const auto summary = trace::summarize(t);
  EXPECT_NE(summary.find("(before first phase)"), std::string::npos);
  const auto att = trace::attribute(t);
  EXPECT_GT(att.lock_wait, 0u);
}

// diff() must report every divergence axis: meta fields, per-kind counts,
// and the first diverging event when counts agree.
TEST(TraceIo, DiffReportsDivergences) {
  const auto a = sample_trace(ProtocolKind::kStache);
  const auto b = sample_trace(ProtocolKind::kPredictive);
  const auto d = trace::diff(a, b);
  EXPECT_NE(d.find("protocol: stache vs predictive"), std::string::npos);
  EXPECT_NE(d.find("exec time:"), std::string::npos);

  trace::TraceData meta_skew = a;
  meta_skew.meta.nodes += 1;
  meta_skew.meta.block_size *= 2;
  const auto dm = trace::diff(a, meta_skew);
  EXPECT_NE(dm.find("nodes:"), std::string::npos);
  EXPECT_NE(dm.find("block size:"), std::string::npos);

  trace::TraceData ev_skew = a;
  ev_skew.events[ev_skew.events.size() / 2].t += 10;
  const auto de = trace::diff(a, ev_skew);
  EXPECT_NE(de.find("first divergence at event"), std::string::npos);
}

// The Perfetto export is write-only (ui.perfetto.dev is the reader), but it
// must emit structurally sound JSON: brace/bracket balance, one object per
// line in the traceEvents array, and events for every node lane.
TEST(TraceIo, PerfettoExportIsBalancedJson) {
  const auto t = sample_trace();
  const std::string path = ::testing::TempDir() + "trace_io_perfetto.json";
  std::string err;
  ASSERT_TRUE(trace::write_perfetto(t, path, &err)) << err;
  FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string body;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) body.append(buf, n);
  std::fclose(f);
  std::remove(path.c_str());
  ASSERT_FALSE(body.empty());
  long braces = 0, brackets = 0;
  std::size_t slices = 0, metas = 0;
  for (const char c : body) {
    if (c == '{') ++braces;
    if (c == '}') --braces;
    if (c == '[') ++brackets;
    if (c == ']') --brackets;
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  for (std::size_t pos = 0; (pos = body.find("\"ph\":\"X\"", pos)) !=
                            std::string::npos;
       ++pos)
    ++slices;
  for (std::size_t pos = 0;
       (pos = body.find("thread_name", pos)) != std::string::npos; ++pos)
    ++metas;
  EXPECT_GT(slices, 0u);
  // One app lane + one protocol lane per node.
  EXPECT_EQ(metas, 2u * t.meta.nodes);
  EXPECT_NE(body.find("\"traceEvents\""), std::string::npos);
}

TEST(TraceIo, MissingFileFailsCleanly) {
  trace::TraceData out;
  std::string err;
  EXPECT_FALSE(trace::read_file("/nonexistent/dir/trace.ptrc", &out, &err));
  EXPECT_FALSE(err.empty());
}

// A full device fails both ways a write can: a small trace fits the stdio
// buffer and fails only when fclose flushes it; a large one comes up short
// in fwrite itself. Either way the FILE is closed once and the call fails
// with a diagnostic (ASan catches a double close or a leaked FILE).
TEST(TraceIo, WriteFileToFullDeviceFails) {
  std::FILE* probe = std::fopen("/dev/full", "wb");
  if (probe == nullptr) GTEST_SKIP() << "/dev/full is not available";
  std::fclose(probe);
  for (const std::size_t events : {std::size_t{4}, std::size_t{100000}}) {
    SCOPED_TRACE(std::to_string(events) + " events");
    trace::TraceData t;
    t.meta.nodes = 2;
    t.meta.block_size = 32;
    t.events.resize(events);
    std::string err;
    EXPECT_FALSE(trace::write_file(t, "/dev/full", &err));
    EXPECT_NE(err.find("short write"), std::string::npos) << err;
  }
}

// Truncation at every structural boundary and at arbitrary cut points
// inside the payload must fail with a diagnostic, never crash or read
// out of bounds.
TEST(TraceIoAdversarial, TruncationFailsCleanly) {
  const auto t = sample_trace();
  const auto bytes = trace::serialize(t);
  const std::size_t kFixed = 4 + sizeof(trace::TraceMeta) + 8 + 8;
  const std::size_t cuts[] = {
      0, 1, 3, 4, 4 + sizeof(trace::TraceMeta) - 1,
      kFixed - 9,  // header complete, footer missing
      kFixed - 1,  // one byte short of the minimum
      kFixed + sizeof(trace::Event) / 2,   // mid-first-event
      bytes.size() - sizeof(trace::Event),  // one event short
      bytes.size() - 8,                     // footer missing
      bytes.size() - 1,
  };
  for (const std::size_t n : cuts) {
    SCOPED_TRACE("cut at " + std::to_string(n));
    ASSERT_LT(n, bytes.size());
    trace::TraceData out;
    std::string err;
    EXPECT_FALSE(trace::parse(bytes.data(), n, &out, &err));
    EXPECT_FALSE(err.empty());
  }
}

// Single-bit flips in every validated region: magic, version, count, event
// payload, and the integrity footer must each be rejected.
TEST(TraceIoAdversarial, BitFlipsFailCleanly) {
  const auto t = sample_trace();
  const auto orig = trace::serialize(t);
  const std::size_t count_off = 4 + sizeof(trace::TraceMeta);
  const std::size_t events_off = count_off + 8;
  const std::size_t offsets[] = {
      0, 2,                      // magic
      4,                         // version (first byte of meta)
      count_off, count_off + 4,  // event count
      events_off + 1,            // first event
      events_off + 17 * sizeof(trace::Event) + 9,  // mid-stream
      orig.size() - sizeof(trace::Event) - 8 + 5,  // last event
      orig.size() - 8, orig.size() - 1,            // footer
  };
  for (const std::size_t off : offsets) {
    for (const int bit : {0, 7}) {
      SCOPED_TRACE("flip byte " + std::to_string(off) + " bit " +
                   std::to_string(bit));
      ASSERT_LT(off, orig.size());
      auto bytes = orig;
      bytes[off] ^= static_cast<std::byte>(1u << bit);
      trace::TraceData out;
      std::string err;
      EXPECT_FALSE(trace::parse(bytes.data(), bytes.size(), &out, &err));
      EXPECT_FALSE(err.empty());
    }
  }
}

TEST(TraceIoAdversarial, VersionSkewReportsVersions) {
  const auto t = sample_trace();
  auto bytes = trace::serialize(t);
  // meta.version is the first field after the magic.
  std::uint32_t v = trace::kTraceVersion + 1;
  std::memcpy(bytes.data() + 4, &v, sizeof(v));
  trace::TraceData out;
  std::string err;
  EXPECT_FALSE(trace::parse(bytes.data(), bytes.size(), &out, &err));
  EXPECT_NE(err.find("version"), std::string::npos) << err;
  EXPECT_NE(err.find(std::to_string(v)), std::string::npos) << err;
}

TEST(TraceIoAdversarial, ImpossibleMetaRejected) {
  const auto t = sample_trace();

  auto patch_meta = [&](auto&& mutate) {
    trace::TraceData bad = t;
    mutate(bad.meta);
    const auto bytes = trace::serialize(bad);
    trace::TraceData out;
    std::string err;
    const bool ok = trace::parse(bytes.data(), bytes.size(), &out, &err);
    EXPECT_FALSE(ok);
    EXPECT_FALSE(err.empty());
  };

  patch_meta([](trace::TraceMeta& m) { m.nodes = 0; });
  patch_meta([](trace::TraceMeta& m) { m.nodes = 1u << 20; });
  patch_meta([](trace::TraceMeta& m) { m.block_size = 48; });  // not 2^k
  patch_meta([](trace::TraceMeta& m) {
    std::memset(m.protocol, 'x', sizeof(m.protocol));  // no NUL
  });
}

// Events referencing impossible nodes or kinds are rejected even when the
// hash is recomputed to match (a hostile writer, not line noise).
TEST(TraceIoAdversarial, ImpossibleEventsRejected) {
  auto reject = [](auto&& mutate) {
    trace::TraceData bad;
    bad.meta.nodes = 2;
    bad.meta.block_size = 32;
    std::strncpy(bad.meta.protocol, "stache", sizeof(bad.meta.protocol) - 1);
    trace::Event e;
    e.kind = static_cast<std::uint16_t>(trace::EventKind::kBarrierArrive);
    e.node = 0;
    e.seq = 0;
    bad.events.push_back(e);
    e.seq = 1;
    bad.events.push_back(e);
    mutate(bad.events);
    const auto bytes = trace::serialize(bad);  // hash footer is consistent
    trace::TraceData out;
    std::string err;
    EXPECT_FALSE(trace::parse(bytes.data(), bytes.size(), &out, &err));
    EXPECT_FALSE(err.empty());
  };

  reject([](std::vector<trace::Event>& ev) {
    ev[1].kind = static_cast<std::uint16_t>(trace::EventKind::kKindCount);
  });
  reject([](std::vector<trace::Event>& ev) { ev[1].node = 2; });
  reject([](std::vector<trace::Event>& ev) { ev[1].node = -2; });
  reject([](std::vector<trace::Event>& ev) { ev[1].seq = 0; });  // not monotone
}

// Parsed-but-corrupt data must also be safe downstream: the analysis passes
// only ever see validated TraceData, and on valid inputs they are total
// functions (no UB on weird-but-valid streams).
TEST(TraceIo, AnalysisTotalOnValidatedInput) {
  const auto t = sample_trace();
  const auto bytes = trace::serialize(t);
  trace::TraceData back;
  std::string err;
  ASSERT_TRUE(trace::parse(bytes.data(), bytes.size(), &back, &err)) << err;
  const auto att = trace::attribute(back);
  EXPECT_EQ(att.all.count,
            att.by_class[0].count + att.by_class[1].count +
                att.by_class[2].count);
  const auto scheds = trace::phase_schedules(back);
  EXPECT_FALSE(trace::summarize(back).empty());
  EXPECT_FALSE(trace::phases_report(back).empty());
  EXPECT_EQ(trace::diff(back, back), "traces are equivalent\n");
  (void)scheds;
}

}  // namespace
