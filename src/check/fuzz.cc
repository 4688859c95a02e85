#include "check/fuzz.h"

#include <cstring>
#include <sstream>

#include "check/bughook.h"
#include "check/oracle.h"
#include "runtime/lock.h"
#include "runtime/system.h"
#include "util/check.h"
#include "util/rng.h"

namespace presto::check {
namespace {

// Deterministic nonzero value for the write of (round, phase, block) — a
// pure function of the program seed so a shrunk program stays
// self-consistent (indices re-derive the same values).
std::uint32_t cell_value(std::uint64_t salt, int r, int p, int b) {
  std::uint64_t s = salt;
  s ^= (static_cast<std::uint64_t>(r) + 1) * 0x9e3779b97f4a7c15ULL;
  s ^= (static_cast<std::uint64_t>(p) + 1) * 0xbf58476d1ce4e5b9ULL;
  s ^= (static_cast<std::uint64_t>(b) + 1) * 0x94d049bb133111ebULL;
  return static_cast<std::uint32_t>(util::splitmix64(s)) | 1u;
}

// Commutative delta pushed by logical participant `lid` into cc block b in
// (round, phase) — 0 means that (node, block) pair sits the phase out. Pure
// in the program seed, so the host-side expectation and the in-fiber adds
// derive identical values and a shrunk program stays self-consistent.
std::int64_t cc_delta(std::uint64_t salt, int r, int p, int b, int lid) {
  std::uint64_t s = salt ^ 0xcccccccccccccccdULL;
  s ^= (static_cast<std::uint64_t>(r) + 1) * 0x9e3779b97f4a7c15ULL;
  s ^= (static_cast<std::uint64_t>(p) + 1) * 0xbf58476d1ce4e5b9ULL;
  s ^= (static_cast<std::uint64_t>(b) + 1) * 0x94d049bb133111ebULL;
  s ^= (static_cast<std::uint64_t>(lid) + 1) * 0xd6e8feb86659fd93ULL;
  const std::uint64_t h = util::splitmix64(s);
  if (h % 4 == 0) return 0;
  return static_cast<std::int64_t>((h >> 8) % 2001) - 1000;
}

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// Sets a bug hook for the duration of a differential run and always clears
// it on exit (the hooks are process-global).
class BugScope {
 public:
  explicit BugScope(const std::string& name) : name_(name) {
    if (!name_.empty()) set_bug_hook(name_.c_str(), true);
  }
  ~BugScope() {
    if (!name_.empty()) set_bug_hook(name_.c_str(), false);
  }
  BugScope(const BugScope&) = delete;
  BugScope& operator=(const BugScope&) = delete;

 private:
  std::string name_;
};

}  // namespace

int participant_count(const FuzzProgram& prog) {
  return prog.participants == 0 ? prog.nodes : prog.participants;
}

int participant_node(const FuzzProgram& prog, int i) {
  if (prog.participants == 0) return i;
  // Spread participants across the whole machine, pinning the last one to
  // node `nodes - 1` so wide shapes always touch spill-range ids (>= 64).
  return static_cast<int>(static_cast<std::int64_t>(i) *
                          (prog.nodes - 1) / (prog.participants - 1));
}

FuzzProgram generate(std::uint64_t seed) {
  std::uint64_t sm = seed;
  util::Rng rng(util::splitmix64(sm));
  FuzzProgram prog;
  prog.seed = seed;
  // Most seeds exercise dense small machines; ~1 in 8 runs the same phase
  // structure on a wide (>= 128-node) machine with a few spread-out
  // participants, driving the hybrid NodeSet / sparse-channel spill paths.
  if (rng.next_below_unbiased(8) == 0) {
    const int widths[] = {128, 192, 256};
    prog.nodes = widths[rng.next_below_unbiased(3)];
    prog.participants = 2 + static_cast<int>(rng.next_below_unbiased(4));
  } else {
    prog.nodes = 2 + static_cast<int>(rng.next_below_unbiased(4));   // 2..5
  }
  const int np = participant_count(prog);
  const std::uint32_t sizes[] = {32, 64, 128};
  prog.block_size = sizes[rng.next_below_unbiased(3)];
  prog.nblocks = 4 + static_cast<int>(rng.next_below_unbiased(21));  // 4..24
  const int phases = 1 + static_cast<int>(rng.next_below_unbiased(3));
  const int rounds = 2 + static_cast<int>(rng.next_below_unbiased(3));
  prog.use_locks = rng.next_below_unbiased(4) == 0;
  const bool use_reducers = rng.next_below_unbiased(4) == 0;
  // Commutative phases model reduction applications (ranker's push): ~1 in 4
  // programs pushes privatized adds, exercising ccached's log/merge paths —
  // and the degraded remote rmw storm under every other protocol.
  const bool use_cc = rng.next_below_unbiased(4) == 0;
  // Drifting assignments model adaptive applications (the schedule changes
  // between rounds, so the predictive protocol keeps mispredicting — it must
  // stay correct anyway).
  const bool drift = rng.next_below_unbiased(5) < 2;

  const auto nb = static_cast<std::size_t>(prog.nblocks);
  std::vector<FuzzPhase> base(static_cast<std::size_t>(phases));
  for (auto& ph : base) {
    ph.writer.assign(nb, -1);
    ph.reader_mask.assign(nb, 0);
    for (std::size_t b = 0; b < nb; ++b) {
      if (rng.next_below_unbiased(2) == 0)
        ph.writer[b] = static_cast<int>(
            rng.next_below_unbiased(static_cast<std::uint64_t>(np)));
      std::uint64_t mask = 0;
      for (int n = 0; n < np; ++n)
        if (rng.next_below_unbiased(10) < 3) mask |= 1ULL << n;
      ph.reader_mask[b] = mask;
    }
    if (prog.use_locks && rng.next_below_unbiased(2) == 0)
      for (int n = 0; n < np; ++n)
        if (rng.next_below_unbiased(10) < 3) ph.lock_users |= 1ULL << n;
    ph.reduce = use_reducers && rng.next_below_unbiased(2) == 0;
    if (use_cc && rng.next_below_unbiased(2) == 0)
      for (int n = 0; n < np; ++n)
        if (rng.next_below_unbiased(10) < 4) ph.cc_mask |= 1ULL << n;
  }

  for (int r = 0; r < rounds; ++r) {
    if (drift && r > 0) {
      // Mutate one assignment per phase; mutations accumulate round over
      // round (base is updated in place).
      for (auto& ph : base) {
        const std::size_t b = rng.next_below_unbiased(nb);
        ph.writer[b] =
            rng.next_below_unbiased(3) == 0
                ? -1
                : static_cast<int>(rng.next_below_unbiased(
                      static_cast<std::uint64_t>(np)));
        std::uint64_t mask = 0;
        for (int n = 0; n < np; ++n)
          if (rng.next_below_unbiased(10) < 3) mask |= 1ULL << n;
        ph.reader_mask[b] = mask;
      }
    }
    FuzzRound rd;
    rd.phases = base;
    prog.rounds.push_back(std::move(rd));
  }
  return prog;
}

bool has_commutative(const FuzzProgram& prog) {
  for (const auto& rd : prog.rounds)
    for (const auto& ph : rd.phases)
      if (ph.cc_mask != 0) return true;
  return false;
}

bool supports_write_update(const FuzzProgram& prog) {
  if (has_commutative(prog)) return false;  // rmw on a stale copy loses adds
  std::vector<int> writer(static_cast<std::size_t>(prog.nblocks), -1);
  for (const auto& rd : prog.rounds) {
    for (const auto& ph : rd.phases) {
      if (ph.lock_users != 0) return false;  // updates cannot mutually exclude
      for (std::size_t b = 0; b < ph.writer.size(); ++b) {
        const int w = ph.writer[b];
        if (w < 0) continue;
        if (writer[b] < 0)
          writer[b] = w;
        else if (writer[b] != w)
          return false;  // write-update assumes a stable owner per block
      }
    }
  }
  return true;
}

RunResult run_program(const FuzzProgram& prog, runtime::ProtocolKind kind,
                      const net::NetConfig& net, TraceCapture* capture,
                      sim::Backend backend, int workers) {
  using runtime::NodeCtx;
  PRESTO_CHECK(kind != runtime::ProtocolKind::kWriteUpdate ||
                   supports_write_update(prog),
               "program not meaningful under write-update");
  BugScope bug(prog.injected_bug);

  runtime::MachineConfig m =
      runtime::MachineConfig::cm5_blizzard(prog.nodes, prog.block_size);
  m.mem.page_size = 512;  // small pages spread homes across nodes
  m.net = net;
  m.backend = backend;
  m.workers = workers;
  m.trace.enabled = capture != nullptr;  // in-memory only
  runtime::System sys(m, kind);
  Oracle& oracle = sys.enable_oracle(FailMode::kRecord);
  // Fuzz programs are phase-synchronized (write -> publish -> barrier ->
  // read), so per-read data-value checking is sound even under phase
  // consistency.
  oracle.set_strict_reads(true);

  const auto nb = static_cast<std::size_t>(prog.nblocks);
  const mem::Addr base =
      sys.space().alloc(nb * prog.block_size, [&](mem::PageId p) {
        return static_cast<int>(p % static_cast<mem::PageId>(prog.nodes));
      });
  runtime::SharedLock lock;
  mem::Addr counter = 0;
  if (prog.use_locks) {
    lock = runtime::SharedLock::create(sys.space(), 0);
    counter = sys.space().arena_alloc(0, sizeof(std::uint64_t),
                                      /*align=*/prog.block_size);
  }
  auto addr = [&](std::size_t b) {
    return base + static_cast<mem::Addr>(b) * prog.block_size;
  };
  // Commutative (reduction) region: one 64-bit accumulator per block,
  // allocated only for programs with cc phases so every other program's
  // memory layout — and therefore its golden behavior — is untouched.
  const bool cc = has_commutative(prog);
  mem::Addr cc_base = 0;
  std::vector<std::int64_t> cc_expect(nb, 0);
  if (cc) {
    cc_base = sys.space().alloc(nb * prog.block_size, [&](mem::PageId p) {
      return static_cast<int>(p % static_cast<mem::PageId>(prog.nodes));
    });
    sys.space().set_commutative(cc_base, nb * prog.block_size);
    // Host-side expectation, precomputed so the fibers never touch shared
    // host state: blocks start zero and addition commutes.
    for (std::size_t r = 0; r < prog.rounds.size(); ++r)
      for (std::size_t p = 0; p < prog.rounds[r].phases.size(); ++p) {
        const std::uint64_t mask = prog.rounds[r].phases[p].cc_mask;
        for (int lid = 0; lid < participant_count(prog); ++lid) {
          if (!(mask >> lid & 1)) continue;
          for (std::size_t b = 0; b < nb; ++b)
            cc_expect[b] += cc_delta(prog.seed, static_cast<int>(r),
                                     static_cast<int>(p),
                                     static_cast<int>(b), lid);
        }
      }
  }
  auto cc_addr = [&](std::size_t b) {
    return cc_base + static_cast<mem::Addr>(b) * prog.block_size;
  };
  auto* wu = sys.writeupdate();

  std::vector<std::uint32_t> ref(nb, 0);  // host-side ground truth
  RunResult out;

  // Physical node -> logical participant id (-1 = barriers/reduces only).
  // With participants == 0 this is the identity, so classic dense programs
  // behave exactly as before; wide shapes index writer/reader_mask/lock_users
  // by the logical id, which always fits the one-word masks.
  std::vector<int> logical_of(static_cast<std::size_t>(prog.nodes), -1);
  for (int i = 0; i < participant_count(prog); ++i)
    logical_of[static_cast<std::size_t>(participant_node(prog, i))] = i;

  sys.run([&](NodeCtx& c) {
    const int lid = logical_of[static_cast<std::size_t>(c.id())];
    for (std::size_t r = 0; r < prog.rounds.size(); ++r) {
      const auto& rd = prog.rounds[r];
      for (std::size_t p = 0; p < rd.phases.size(); ++p) {
        const auto& ph = rd.phases[p];
        // Writes and reads get separate phase ids (2p, 2p+1): the
        // producer/consumer separation the compiler's directive placement
        // produces.
        c.phase(2 * static_cast<int>(p));
        for (std::size_t b = 0; lid >= 0 && b < nb; ++b) {
          if (ph.writer[b] != lid) continue;
          const std::uint32_t v = cell_value(prog.seed, static_cast<int>(r),
                                             static_cast<int>(p),
                                             static_cast<int>(b));
          c.write<std::uint32_t>(addr(b), v);
          ref[b] = v;
        }
        if (wu != nullptr && lid >= 0)
          for (std::size_t b = 0; b < nb; ++b)
            if (ph.writer[b] == lid)
              wu->wu_publish(c.id(), addr(b), prog.block_size);
        c.barrier();
        c.phase(2 * static_cast<int>(p) + 1);
        for (std::size_t b = 0; lid >= 0 && b < nb; ++b) {
          if (!(ph.reader_mask[b] >> lid & 1)) continue;
          if (c.read<std::uint32_t>(addr(b)) != ref[b]) ++out.read_mismatches;
        }
        c.barrier();
        if (ph.cc_mask != 0) {
          // Commutative push: every masked participant privatizes its adds,
          // then ALL nodes flush and barrier before anyone reads the region
          // (the ccached discipline; a no-op flush under other protocols,
          // where cc_add degraded to an immediate remote rmw).
          if (lid >= 0 && (ph.cc_mask >> lid & 1)) {
            for (std::size_t b = 0; b < nb; ++b) {
              const std::int64_t d =
                  cc_delta(prog.seed, static_cast<int>(r),
                           static_cast<int>(p), static_cast<int>(b), lid);
              if (d != 0) c.cc_add(cc_addr(b), d);
            }
          }
          if (lid >= 0) c.cc_flush();
          c.barrier();
        }
        if (prog.use_locks) {
          if (lid >= 0 && (ph.lock_users >> lid & 1)) {
            lock.acquire(c);
            const auto v = c.read<std::uint64_t>(counter);
            c.write<std::uint64_t>(counter, v + 1);
            lock.release(c);
          }
          c.barrier();
        }
        if (ph.reduce) {
          const double contrib = static_cast<double>(
              (r * 31 + p * 7 + static_cast<std::size_t>(c.id()) * 3 +
               prog.seed % 997) %
              97);
          const double s = c.reduce_sum(contrib);
          if (c.id() == 0) out.reduce_digest += s;
        }
      }
    }
    c.barrier();
    if (c.id() == 0) {
      out.memory.resize(nb);
      for (std::size_t b = 0; b < nb; ++b)
        out.memory[b] = c.read<std::uint32_t>(addr(b));
      if (cc) {
        out.cc_memory.resize(nb);
        for (std::size_t b = 0; b < nb; ++b) {
          const auto v = c.read<std::int64_t>(cc_addr(b));
          out.cc_memory[b] = v;
          // Every flush landed before the final barrier, so the merged
          // image must equal the host-side sum exactly.
          if (v != cc_expect[b]) ++out.read_mismatches;
        }
      }
      if (prog.use_locks) out.lock_total = c.read<std::uint64_t>(counter);
    }
  });

  out.oracle_violations = oracle.violation_count();
  if (!oracle.violations().empty()) {
    const Violation& v = oracle.violations().front();
    std::ostringstream os;
    os << "T=" << v.when << " node " << v.node << " block " << v.block << ": "
       << v.what;
    out.first_violation = os.str();
  }
  out.exec_time = static_cast<std::uint64_t>(sys.exec_time());
  out.messages = sys.network().messages_sent();
  out.bytes = sys.network().bytes_sent();
  if (capture != nullptr) {
    capture->digest = sys.tracer()->digest();
    capture->summary = sys.tracer()->summary();
    capture->data = sys.tracer()->build(m.costs, m.net);
    for (int n = 0; n < prog.nodes; ++n)
      capture->counters.push_back(sys.recorder().node(n));
    if (auto* ccp = sys.ccached(); ccp != nullptr)
      capture->cc_flushes = ccp->cc_stats().flushes;
  }
  return out;
}

FuzzVerdict check_program(const FuzzProgram& prog, bool latency_sweep,
                          int parallel_workers) {
  using runtime::ProtocolKind;
  std::vector<std::pair<std::string, ProtocolKind>> kinds = {
      {"stache", ProtocolKind::kStache},
      {"predictive", ProtocolKind::kPredictive},
      {"anticipate", ProtocolKind::kPredictiveAnticipate},
      // ccached always applies: programs without commutative phases must
      // reproduce Stache exactly (empty logs change nothing), and cc
      // programs must merge to the same totals every rmw-based protocol
      // reaches.
      {"ccached", ProtocolKind::kCCached},
  };
  if (supports_write_update(prog))
    kinds.emplace_back("write-update", ProtocolKind::kWriteUpdate);

  std::vector<std::pair<std::string, net::NetConfig>> nets;
  nets.emplace_back("", net::NetConfig{});
  if (latency_sweep) {
    // Perturbed latency models shift every arrival time and interleaving;
    // program-visible values must not move.
    net::NetConfig fast;
    fast.wire_latency = sim::microseconds(2);
    fast.per_byte = 5;
    fast.self_latency = sim::microseconds(1);
    net::NetConfig slow;
    slow.wire_latency = sim::microseconds(120);
    slow.per_byte = 400;
    slow.self_latency = sim::microseconds(20);
    nets.emplace_back("@fast", fast);
    nets.emplace_back("@slow", slow);
  }

  FuzzVerdict verdict;
  std::uint64_t digest = kFnvBasis;
  RunResult baseline;
  bool have_baseline = false;

  auto fail = [&](const std::string& category, const std::string& detail) {
    verdict.ok = false;
    verdict.signature = category;
    std::ostringstream os;
    os << category << ": " << detail << "\ndigest " << hex64(digest);
    verdict.report = os.str();
  };

  for (const auto& [nlabel, netcfg] : nets) {
    for (const auto& [klabel, kind] : kinds) {
      // The anticipate policy differs from predictive only in schedule
      // derivation; one latency point suffices for it.
      if (!nlabel.empty() && klabel == "anticipate") continue;
      const std::string label = klabel + nlabel;
      const RunResult r = run_program(prog, kind, netcfg);

      digest = fnv1a(digest, label.data(), label.size());
      digest = fnv1a(digest, r.memory.data(),
                     r.memory.size() * sizeof(std::uint32_t));
      digest = fnv1a(digest, r.cc_memory.data(),
                     r.cc_memory.size() * sizeof(std::int64_t));
      digest = fnv1a(digest, &r.lock_total, sizeof r.lock_total);
      digest = fnv1a(digest, &r.reduce_digest, sizeof r.reduce_digest);
      digest = fnv1a(digest, &r.read_mismatches, sizeof r.read_mismatches);
      digest =
          fnv1a(digest, &r.oracle_violations, sizeof r.oracle_violations);

      // Oracle verdict first: it fires at the faulty protocol event itself
      // (e.g. the write that breaks single-writer), upstream of the stale
      // read the host reference would flag.
      if (r.oracle_violations != 0) {
        fail("violation[" + label + "]",
             std::to_string(r.oracle_violations) +
                 " oracle violation(s); first: " + r.first_violation);
        return verdict;
      }
      if (r.read_mismatches != 0) {
        fail("mismatch[" + label + "]",
             std::to_string(r.read_mismatches) +
                 " read(s) differed from the host reference");
        return verdict;
      }
      if (!have_baseline) {
        baseline = r;
        have_baseline = true;
        continue;
      }
      if (r.memory != baseline.memory) {
        std::size_t b = 0;
        while (b < r.memory.size() && r.memory[b] == baseline.memory[b]) ++b;
        fail("memdiff[" + label + "]",
             "final memory differs from stache at block " +
                 std::to_string(b) + " (" + std::to_string(r.memory[b]) +
                 " vs " + std::to_string(baseline.memory[b]) + ")");
        return verdict;
      }
      if (r.cc_memory != baseline.cc_memory) {
        std::size_t b = 0;
        while (b < r.cc_memory.size() && r.cc_memory[b] == baseline.cc_memory[b])
          ++b;
        fail("ccdiff[" + label + "]",
             "commutative totals differ from stache at block " +
                 std::to_string(b) + " (" + std::to_string(r.cc_memory[b]) +
                 " vs " + std::to_string(baseline.cc_memory[b]) + ")");
        return verdict;
      }
      if (r.lock_total != baseline.lock_total) {
        fail("lockdiff[" + label + "]",
             "lock-protected counter " + std::to_string(r.lock_total) +
                 " vs " + std::to_string(baseline.lock_total));
        return verdict;
      }
      if (std::memcmp(&r.reduce_digest, &baseline.reduce_digest,
                      sizeof r.reduce_digest) != 0) {
        fail("reducediff[" + label + "]", "reduction results diverged");
        return verdict;
      }
    }
  }

  // ---- Backend differential: parallel vs serial windowed --------------------
  // The windowed canon is one deterministic result per (program, machine,
  // window); the worker pool must reproduce it bit-identically — not just
  // program-visible values but exec time, message counts and bytes. Any
  // inequality here is an engine/network-staging bug, not a protocol bug.
  if (parallel_workers > 0) {
    const net::NetConfig& netcfg = nets.front().second;
    for (const auto& [klabel, kind] : kinds) {
      const std::string label = klabel + "@parallel";
      const RunResult serial =
          run_program(prog, kind, netcfg, nullptr, sim::Backend::kFiber);
      const RunResult par = run_program(prog, kind, netcfg, nullptr,
                                        sim::Backend::kParallel,
                                        parallel_workers);

      digest = fnv1a(digest, label.data(), label.size());
      digest = fnv1a(digest, &par.exec_time, sizeof par.exec_time);
      digest = fnv1a(digest, &par.messages, sizeof par.messages);
      digest = fnv1a(digest, &par.bytes, sizeof par.bytes);
      digest = fnv1a(digest, par.memory.data(),
                     par.memory.size() * sizeof(std::uint32_t));

      if (par.oracle_violations != 0 || serial.oracle_violations != 0) {
        fail("violation[" + label + "]",
             std::to_string(par.oracle_violations + serial.oracle_violations) +
                 " oracle violation(s); first: " +
                 (par.oracle_violations != 0 ? par.first_violation
                                             : serial.first_violation));
        return verdict;
      }
      if (par.read_mismatches != 0 || serial.read_mismatches != 0) {
        fail("mismatch[" + label + "]",
             std::to_string(par.read_mismatches + serial.read_mismatches) +
                 " read(s) differed from the host reference");
        return verdict;
      }
      if (par.memory != serial.memory || par.lock_total != serial.lock_total ||
          std::memcmp(&par.reduce_digest, &serial.reduce_digest,
                      sizeof par.reduce_digest) != 0) {
        fail("pardiff[" + label + "]",
             "parallel backend changed program-visible values");
        return verdict;
      }
      if (par.exec_time != serial.exec_time ||
          par.messages != serial.messages || par.bytes != serial.bytes) {
        fail("pardiff[" + label + "]",
             "parallel backend diverged from the serial windowed canon "
             "(exec " +
                 std::to_string(par.exec_time) + " vs " +
                 std::to_string(serial.exec_time) + ", msgs " +
                 std::to_string(par.messages) + " vs " +
                 std::to_string(serial.messages) + ")");
        return verdict;
      }
    }
  }

  verdict.report = "ok\ndigest " + hex64(digest);
  return verdict;
}

FuzzProgram shrink(const FuzzProgram& prog, const std::string& signature,
                   bool latency_sweep, int max_attempts,
                   int parallel_workers) {
  FuzzProgram best = prog;
  int attempts = 0;
  auto still_fails = [&](const FuzzProgram& cand) {
    if (attempts >= max_attempts) return false;
    ++attempts;
    const FuzzVerdict v = check_program(cand, latency_sweep, parallel_workers);
    return !v.ok && v.signature == signature;
  };

  bool progress = true;
  while (progress && attempts < max_attempts) {
    progress = false;

    // Drop whole rounds.
    for (std::size_t i = 0; i < best.rounds.size() && best.rounds.size() > 1;) {
      FuzzProgram cand = best;
      cand.rounds.erase(cand.rounds.begin() + static_cast<std::ptrdiff_t>(i));
      if (still_fails(cand)) {
        best = std::move(cand);
        progress = true;
      } else {
        ++i;
      }
    }
    // Drop phases within rounds.
    for (std::size_t r = 0; r < best.rounds.size(); ++r) {
      for (std::size_t p = 0;
           p < best.rounds[r].phases.size() && best.rounds[r].phases.size() > 1;) {
        FuzzProgram cand = best;
        auto& phs = cand.rounds[r].phases;
        phs.erase(phs.begin() + static_cast<std::ptrdiff_t>(p));
        if (still_fails(cand)) {
          best = std::move(cand);
          progress = true;
        } else {
          ++p;
        }
      }
    }
    // Clear per-phase features.
    for (std::size_t r = 0; r < best.rounds.size(); ++r) {
      for (std::size_t p = 0; p < best.rounds[r].phases.size(); ++p) {
        auto& ph = best.rounds[r].phases[p];
        if (ph.lock_users != 0) {
          FuzzProgram cand = best;
          cand.rounds[r].phases[p].lock_users = 0;
          if (still_fails(cand)) {
            best = std::move(cand);
            progress = true;
          }
        }
        if (best.rounds[r].phases[p].reduce) {
          FuzzProgram cand = best;
          cand.rounds[r].phases[p].reduce = false;
          if (still_fails(cand)) {
            best = std::move(cand);
            progress = true;
          }
        }
        if (best.rounds[r].phases[p].cc_mask != 0) {
          FuzzProgram cand = best;
          cand.rounds[r].phases[p].cc_mask = 0;
          if (still_fails(cand)) {
            best = std::move(cand);
            progress = true;
          }
        }
      }
    }
    // Clear every assignment of one block across the whole program.
    for (std::size_t b = 0; b < static_cast<std::size_t>(best.nblocks); ++b) {
      FuzzProgram cand = best;
      bool any = false;
      for (auto& rd : cand.rounds)
        for (auto& ph : rd.phases) {
          any = any || ph.writer[b] != -1 || ph.reader_mask[b] != 0;
          ph.writer[b] = -1;
          ph.reader_mask[b] = 0;
        }
      if (any && still_fails(cand)) {
        best = std::move(cand);
        progress = true;
      }
    }
    // Trim trailing untouched blocks and retire an unused lock feature.
    {
      FuzzProgram cand = best;
      auto used = [&](const FuzzProgram& pr, std::size_t b) {
        for (const auto& rd : pr.rounds)
          for (const auto& ph : rd.phases)
            if (ph.writer[b] != -1 || ph.reader_mask[b] != 0) return true;
        return false;
      };
      while (cand.nblocks > 1 &&
             !used(cand, static_cast<std::size_t>(cand.nblocks) - 1)) {
        --cand.nblocks;
        for (auto& rd : cand.rounds)
          for (auto& ph : rd.phases) {
            ph.writer.pop_back();
            ph.reader_mask.pop_back();
          }
      }
      if (cand.nblocks != best.nblocks && still_fails(cand)) {
        best = std::move(cand);
        progress = true;
      }
    }
    // Collapse a wide shape to the equivalent dense machine (participants
    // become the only nodes). Changes home placement and spill behavior, so
    // it only sticks when the failure is not spill-specific.
    if (best.participants != 0) {
      FuzzProgram cand = best;
      cand.nodes = best.participants;
      cand.participants = 0;
      if (still_fails(cand)) {
        best = std::move(cand);
        progress = true;
      }
    }
    if (best.use_locks) {
      bool any_users = false;
      for (const auto& rd : best.rounds)
        for (const auto& ph : rd.phases) any_users |= ph.lock_users != 0;
      if (!any_users) {
        FuzzProgram cand = best;
        cand.use_locks = false;
        if (still_fails(cand)) {
          best = std::move(cand);
          progress = true;
        }
      }
    }
  }
  return best;
}

std::string serialize_trace(const FuzzProgram& prog) {
  std::ostringstream os;
  os << "presto-fuzz-trace v1\n";
  os << "seed " << prog.seed << '\n';
  os << "nodes " << prog.nodes << '\n';
  // Written only for wide shapes: dense traces stay byte-identical to the
  // pre-`participants` format, and old traces parse unchanged.
  if (prog.participants != 0)
    os << "participants " << prog.participants << '\n';
  os << "block_size " << prog.block_size << '\n';
  os << "nblocks " << prog.nblocks << '\n';
  os << "locks " << (prog.use_locks ? 1 : 0) << '\n';
  os << "bug " << (prog.injected_bug.empty() ? "none" : prog.injected_bug)
     << '\n';
  os << "rounds " << prog.rounds.size() << '\n';
  for (std::size_t r = 0; r < prog.rounds.size(); ++r) {
    const auto& rd = prog.rounds[r];
    os << "round " << r << " phases " << rd.phases.size() << '\n';
    for (std::size_t p = 0; p < rd.phases.size(); ++p) {
      const auto& ph = rd.phases[p];
      os << "phase " << p << " lock " << std::hex << ph.lock_users << std::dec
         << " reduce " << (ph.reduce ? 1 : 0);
      // Written only for commutative phases: traces without them stay
      // byte-identical to the pre-`cc` format, and old traces parse
      // unchanged (the `participants` precedent).
      if (ph.cc_mask != 0)
        os << " cc " << std::hex << ph.cc_mask << std::dec;
      os << '\n';
      os << "w";
      for (int w : ph.writer) os << ' ' << w;
      os << "\nr" << std::hex;
      for (std::uint64_t m : ph.reader_mask) os << ' ' << m;
      os << std::dec << '\n';
    }
  }
  os << "end\n";
  return os.str();
}

FuzzProgram parse_trace(const std::string& text) {
  std::istringstream is(text);
  std::string tok;
  auto expect = [&](const char* want) {
    PRESTO_CHECK(is >> tok && tok == want,
                 "malformed trace: expected '" << want << "', got '" << tok
                                               << "'");
  };
  std::string line;
  PRESTO_CHECK(std::getline(is, line) && line == "presto-fuzz-trace v1",
               "not a presto-fuzz trace (bad header '" << line << "')");
  FuzzProgram prog;
  std::size_t rounds = 0;
  expect("seed");
  is >> prog.seed;
  expect("nodes");
  is >> prog.nodes;
  PRESTO_CHECK(is >> tok, "malformed trace: truncated after nodes");
  if (tok == "participants") {
    is >> prog.participants;
    PRESTO_CHECK(is >> tok, "malformed trace: truncated after participants");
  }
  PRESTO_CHECK(tok == "block_size",
               "malformed trace: expected 'block_size', got '" << tok << "'");
  is >> prog.block_size;
  expect("nblocks");
  is >> prog.nblocks;
  int flag = 0;
  expect("locks");
  is >> flag;
  prog.use_locks = flag != 0;
  expect("bug");
  is >> tok;
  prog.injected_bug = tok == "none" ? "" : tok;
  expect("rounds");
  is >> rounds;
  // Dense shapes (participants == 0) index the one-word masks by physical
  // node id, so they stay capped at 64 nodes; wide shapes go through the
  // logical-participant mapping and only the machine width grows.
  PRESTO_CHECK(is && prog.nodes >= 1 && prog.nodes <= 65536 &&
                   (prog.participants == 0
                        ? prog.nodes <= 64
                        : prog.participants >= 2 && prog.participants <= 64 &&
                              prog.participants <= prog.nodes) &&
                   prog.nblocks >= 1 && rounds >= 1,
               "malformed trace header");
  const auto nb = static_cast<std::size_t>(prog.nblocks);
  for (std::size_t r = 0; r < rounds; ++r) {
    std::size_t idx = 0, phases = 0;
    expect("round");
    is >> idx;
    expect("phases");
    is >> phases;
    PRESTO_CHECK(is && idx == r && phases >= 1, "malformed round header");
    FuzzRound rd;
    for (std::size_t p = 0; p < phases; ++p) {
      FuzzPhase ph;
      expect("phase");
      is >> idx;
      expect("lock");
      is >> std::hex >> ph.lock_users >> std::dec;
      expect("reduce");
      is >> flag;
      ph.reduce = flag != 0;
      PRESTO_CHECK(is && idx == p, "malformed phase header");
      PRESTO_CHECK(is >> tok, "malformed trace: truncated after reduce");
      if (tok == "cc") {
        is >> std::hex >> ph.cc_mask >> std::dec;
        PRESTO_CHECK(is >> tok, "malformed trace: truncated after cc");
      }
      PRESTO_CHECK(tok == "w",
                   "malformed trace: expected 'w', got '" << tok << "'");
      ph.writer.resize(nb);
      for (auto& w : ph.writer) is >> w;
      expect("r");
      ph.reader_mask.resize(nb);
      is >> std::hex;
      for (auto& m : ph.reader_mask) is >> m;
      is >> std::dec;
      PRESTO_CHECK(is, "malformed phase body");
      rd.phases.push_back(std::move(ph));
    }
    prog.rounds.push_back(std::move(rd));
  }
  expect("end");
  return prog;
}

}  // namespace presto::check
