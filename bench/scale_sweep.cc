// Block-size sweeps beyond the old 64-node ceiling: 256/512/1024-node
// machines running the paper's iterative producer/consumer pattern (a ring
// of per-node blocks plus one widely-read hot block), under Stache and the
// predictive protocol, whose directories keep exact node-grain sharer sets
// at every width.
//
// Two questions, per machine width and block size:
//   * Where does predictive presend pay at scale, and where does ccached's
//     commutative update? (exec_time ratio vs Stache per block size)
//   * Is resident protocol+network metadata sub-quadratic in nodes? Each
//     point reports measured metadata_bytes next to what dense layouts
//     (nodes² channel table + per-node full tag arrays) would allocate for
//     the same machine.
//
// Emits results/BENCH_scale.json (--json=... overrides; --quick skips the
// write by default). --max-metadata-bytes=N exits
// non-zero if any measured point exceeds N — the CI perf-smoke leg passes a
// ceiling so a quadratic-metadata regression fails the build. --check
// asserts the two ratio claims of docs/performance.md §10 at every point
// (bench::check_shape): predictive/stache below 0.5 on bcast and
// ccached/stache below 0.7 on reduce. It asserts nothing about the ring,
// whose ratio moves with the windowed engine's run-ahead (DESIGN.md §2).
#include <chrono>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "bench/bench_common.h"
#include "net/network.h"
#include "runtime/system.h"
#include "stats/recorder.h"
#include "util/check.h"
#include "util/cli.h"

using namespace presto;

namespace {

using Clock = std::chrono::steady_clock;

// The sweep's narrowest width. A nodes² channel table is still small there
// (320 KiB at 64 nodes) and a point can hold more than it, so only wider
// points must hold less metadata than the dense equivalent.
constexpr int kDenseAnchorNodes = 64;

// Claim bounds --check asserts at every point.
constexpr double kBcastPresendMax = 0.5;  // predictive/stache on bcast
constexpr double kReduceCcachedMax = 0.7;  // ccached/stache on reduce

struct SweepPoint {
  int nodes = 0;
  std::uint32_t block = 0;
  const char* protocol = "";
  const char* pattern = "";
  std::uint64_t exec_time = 0;  // simulated ns
  std::uint64_t msgs = 0;
  std::uint64_t bytes = 0;
  std::uint64_t read_faults = 0;
  std::uint64_t write_faults = 0;
  std::uint64_t cc_flushes = 0;
  std::uint64_t presend_blocks = 0;
  std::size_t metadata_bytes = 0;
  std::size_t dense_equiv_bytes = 0;
  double wall_s = 0.0;
};

double exec_ratio(const SweepPoint& a, const SweepPoint& b) {
  return b.exec_time > 0 ? static_cast<double>(a.exec_time) /
                               static_cast<double>(b.exec_time)
                         : 0.0;
}

// Two iterative sharing patterns, scaled by machine width, both with phase
// directives so the predictive protocol has its schedule after the priming
// round:
//   * "ring"  — every node writes one block each round and its two ring
//     successors read it, plus one hot block written by node 0 and read by
//     32 consumers spread across the whole machine (the widely-shared
//     directory entry that spills past 64 nodes). All-to-neighbor: every
//     node is producer, consumer, and (page-grain) home at once.
//   * "bcast" — the paper's §3.2 producer/consumer shape at scale: node 0
//     (also the home) rewrites a 16-block region each round; 32 consumers
//     spread across the machine read all of it. Consumer fault stalls and
//     home handler occupancy dominate — the regime presend targets.
//   * "reduce" — every node adds into a 16-block commutative region homed on
//     node 0 each round, then 32 consumers read the merged totals. Under
//     Stache the adds are an rmw ownership ping-pong across the whole
//     machine; under ccached they privatize into per-node logs merged at the
//     home — the regime the commutative-update protocol targets.
SweepPoint run_point(int nodes, std::uint32_t block, const char* pattern,
                     runtime::ProtocolKind kind, int rounds) {
  runtime::MachineConfig m = runtime::MachineConfig::cm5_blizzard(nodes, block);
  m.mem.page_size = 512 >= block ? 512 : block;  // spread homes; keep pages small
  runtime::System sys(m, kind);

  const bool ringp = std::string_view(pattern) == "ring";
  const bool reducep = std::string_view(pattern) == "reduce";
  const auto ring_home = [&](mem::PageId p) {
    // Home each page so ring block i lands near node i's home region
    // (blocks per page > 1, so homes advance page by page).
    const std::uint32_t bpp = m.mem.page_size / block;
    return static_cast<int>((p * bpp) % static_cast<mem::PageId>(nodes));
  };
  const mem::Addr ring =
      ringp ? sys.space().alloc(static_cast<std::size_t>(nodes) * block,
                                ring_home)
            : 0;
  const int region_blocks = 16;
  const mem::Addr hot = sys.space().alloc_on_node(
      0, static_cast<std::size_t>(ringp ? 1 : region_blocks) * block);
  if (reducep)
    sys.space().set_commutative(
        hot, static_cast<std::size_t>(region_blocks) * block);
  const int hot_readers = 32;
  const int stride = nodes / hot_readers;

  const auto t0 = Clock::now();
  sys.run([&](runtime::NodeCtx& c) {
    const int n = c.nodes();
    const mem::Addr mine = ring + static_cast<mem::Addr>(c.id()) * block;
    for (int r = 0; r < rounds; ++r) {
      if (reducep) {
        // Every node contributes one unit to each block's first word, then
        // the consumers verify the merged total. Reads after the flush +
        // barrier (the ccached discipline); the read copies installed here
        // are what the next round's merges must quiesce.
        c.phase(0);
        for (int b = 0; b < region_blocks; ++b)
          c.cc_add(hot + static_cast<mem::Addr>(b) * block, 1);
        c.cc_flush();
        c.barrier();
        c.phase(1);
        if (c.id() % stride == 1)
          for (int b = 0; b < region_blocks; ++b)
            PRESTO_CHECK(c.read<std::int64_t>(
                             hot + static_cast<mem::Addr>(b) * block) ==
                             static_cast<std::int64_t>(r + 1) * n,
                         "stale reduce read");
        c.barrier();
        continue;
      }
      c.phase(0);
      if (ringp) {
        c.write<int>(mine, r * n + c.id());
        if (c.id() == 0) c.write<int>(hot, r + 1);
      } else if (c.id() == 0) {
        for (int b = 0; b < region_blocks; ++b)
          c.write<int>(hot + static_cast<mem::Addr>(b) * block, r * 100 + b);
      }
      c.barrier();
      c.phase(1);
      if (ringp) {
        for (int d = 1; d <= 2; ++d) {
          const int src = (c.id() + n - d) % n;
          const mem::Addr a = ring + static_cast<mem::Addr>(src) * block;
          PRESTO_CHECK(c.read<int>(a) == r * n + src, "stale ring read");
        }
        if (c.id() % stride == 1)
          PRESTO_CHECK(c.read<int>(hot) == r + 1, "stale hot read");
      } else if (c.id() % stride == 1) {
        for (int b = 0; b < region_blocks; ++b)
          PRESTO_CHECK(c.read<int>(hot + static_cast<mem::Addr>(b) * block) ==
                           r * 100 + b,
                       "stale bcast read");
      }
      c.barrier();
    }
  });

  SweepPoint p;
  p.nodes = nodes;
  p.block = block;
  p.protocol = runtime::protocol_kind_name(kind);
  p.pattern = pattern;
  p.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  p.exec_time = static_cast<std::uint64_t>(sys.exec_time());
  p.msgs = sys.recorder().sum(&stats::NodeCounters::msgs_sent);
  p.bytes = sys.recorder().sum(&stats::NodeCounters::bytes_sent);
  p.read_faults = sys.recorder().sum(&stats::NodeCounters::read_faults);
  p.write_faults = sys.recorder().sum(&stats::NodeCounters::write_faults);
  p.cc_flushes = sys.recorder().sum(&stats::NodeCounters::cc_flushes);
  p.presend_blocks =
      sys.recorder().sum(&stats::NodeCounters::presend_blocks_received);
  p.metadata_bytes =
      sys.protocol().metadata_bytes() + sys.network().metadata_bytes();
  // Pre-sparse dense layouts for the same machine: the nodes² channel table
  // plus one tag byte per (node, block) over the whole allocated space.
  const std::size_t nblocks =
      sys.space().size_bytes() / sys.space().block_size();
  p.dense_equiv_bytes = net::Network::dense_equiv_bytes(nodes) +
                        static_cast<std::size_t>(nodes) * nblocks;
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const bool quick = cli.get_bool("quick");
  const int rounds = static_cast<int>(cli.get_int("rounds", quick ? 3 : 4));
  const long long max_meta = cli.get_int("max-metadata-bytes", 0);
  const bool check = cli.get_bool("check");
  const std::string json_path =
      cli.get("json", quick ? "" : "results/BENCH_scale.json");
  cli.reject_unknown();

  const std::vector<int> widths = quick
                                      ? std::vector<int>{64, 256}
                                      : std::vector<int>{64, 256, 512, 1024};
  const std::vector<std::uint32_t> blocks =
      quick ? std::vector<std::uint32_t>{32, 128}
            : std::vector<std::uint32_t>{32, 64, 128, 256};

  std::vector<SweepPoint> points;
  bool meta_ok = true;
  double bcast_max = 0.0;   // worst predictive/stache ratio on bcast
  double reduce_max = 0.0;  // worst ccached/stache ratio on reduce
  const auto print_point = [](const SweepPoint& p) {
    std::printf(
        "%-5s nodes=%4d block=%3u %-12s exec=%llu ns msgs=%llu "
        "faults=%llu presends=%llu meta=%zu dense_equiv=%zu wall=%.3fs\n",
        p.pattern, p.nodes, p.block, p.protocol,
        (unsigned long long)p.exec_time, (unsigned long long)p.msgs,
        (unsigned long long)p.read_faults,
        (unsigned long long)p.presend_blocks, p.metadata_bytes,
        p.dense_equiv_bytes, p.wall_s);
    std::fflush(stdout);
  };
  for (const char* pattern : {"ring", "bcast"}) {
    for (const int nodes : widths) {
      for (const std::uint32_t block : blocks) {
        const SweepPoint st = run_point(nodes, block, pattern,
                                        runtime::ProtocolKind::kStache, rounds);
        const SweepPoint pr = run_point(
            nodes, block, pattern, runtime::ProtocolKind::kPredictive, rounds);
        print_point(st);
        print_point(pr);
        // Predictive vs Stache at this shape: where presend pays.
        const double ratio = exec_ratio(pr, st);
        std::printf("  -> predictive/stache exec ratio %.3f at %s nodes=%d "
                    "block=%u\n",
                    ratio, pattern, nodes, block);
        if (std::string_view(pattern) == "bcast" && ratio > bcast_max)
          bcast_max = ratio;
        points.push_back(st);
        points.push_back(pr);
      }
    }
  }
  // The reduce pattern compares the commutative-update protocol against the
  // rmw storm the same program produces under Stache.
  for (const int nodes : widths) {
    for (const std::uint32_t block : blocks) {
      const SweepPoint st = run_point(nodes, block, "reduce",
                                      runtime::ProtocolKind::kStache, rounds);
      const SweepPoint cc = run_point(nodes, block, "reduce",
                                      runtime::ProtocolKind::kCCached, rounds);
      print_point(st);
      print_point(cc);
      const double ratio = exec_ratio(cc, st);
      if (ratio > reduce_max) reduce_max = ratio;
      std::printf("  -> ccached/stache exec ratio %.3f at reduce nodes=%d "
                  "block=%u (%llu rmw faults -> %llu flushes)\n",
                  ratio, nodes, block,
                  (unsigned long long)st.write_faults,
                  (unsigned long long)cc.cc_flushes);
      points.push_back(st);
      points.push_back(cc);
    }
  }

  for (const SweepPoint& p : points) {
    if (max_meta > 0 &&
        p.metadata_bytes > static_cast<std::size_t>(max_meta)) {
      std::fprintf(stderr,
                   "FAIL: metadata %zu bytes above ceiling %lld at nodes=%d "
                   "block=%u %s\n",
                   p.metadata_bytes, max_meta, p.nodes, p.block, p.protocol);
      meta_ok = false;
    }
    PRESTO_CHECK(p.nodes <= kDenseAnchorNodes ||
                     p.metadata_bytes < p.dense_equiv_bytes,
                 "metadata " << p.metadata_bytes
                             << " not below the dense-layout equivalent "
                             << p.dense_equiv_bytes << " at nodes="
                             << p.nodes);
  }

  if (!json_path.empty()) {
    FILE* f = std::fopen(json_path.c_str(), "w");
    PRESTO_CHECK(f != nullptr, "cannot open " << json_path
                                              << " (run from the repo root)");
    std::fprintf(f, "{\n  \"rounds\": %d,\n  \"sweep\": [\n", rounds);
    for (std::size_t i = 0; i < points.size(); ++i) {
      const SweepPoint& p = points[i];
      std::fprintf(
          f,
          "    {\"pattern\": \"%s\", \"nodes\": %d, \"block_size\": %u, "
          "\"protocol\": \"%s\", "
          "\"exec_time_ns\": %llu, \"msgs\": %llu, "
          "\"bytes\": %llu, \"read_faults\": %llu, \"write_faults\": %llu, "
          "\"cc_flushes\": %llu, \"presend_blocks\": %llu, "
          "\"metadata_bytes\": %zu, \"dense_equiv_bytes\": %zu, "
          "\"wall_s\": %.4f}%s\n",
          p.pattern, p.nodes, p.block, p.protocol,
          (unsigned long long)p.exec_time, (unsigned long long)p.msgs,
          (unsigned long long)p.bytes, (unsigned long long)p.read_faults,
          (unsigned long long)p.write_faults,
          (unsigned long long)p.cc_flushes,
          (unsigned long long)p.presend_blocks, p.metadata_bytes,
          p.dense_equiv_bytes, p.wall_s,
          i + 1 < points.size() ? "," : "");
    }
    std::fprintf(f,
                 "  ],\n"
                 "  \"note\": \"exec_time is simulated; metadata_bytes is "
                 "resident host metadata vs the pre-sparse dense-layout "
                 "equivalent for the same machine; see "
                 "docs/performance.md #10\"\n"
                 "}\n");
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }
  bench::check_shape(
      check, bcast_max < kBcastPresendMax,
      "bcast: predictive/stache <= " + util::fmt_double(bcast_max, 3) +
          " < " + util::fmt_double(kBcastPresendMax, 1) + " at every point");
  bench::check_shape(
      check, reduce_max < kReduceCcachedMax,
      "reduce: ccached/stache <= " + util::fmt_double(reduce_max, 3) + " < " +
          util::fmt_double(kReduceCcachedMax, 1) + " at every point");
  return meta_ok ? 0 : 1;
}
