// Differential schedule fuzzer for the coherence protocols.
//
// Generates seeded random phase-structured SPMD programs (a generalization
// of tests/phase_property_test.cc: optional locks, reducers, drifting
// assignments, mixed block sizes), runs each program under every applicable
// protocol (Stache, predictive, predictive+anticipate, write-update) and
// under perturbed network-latency models, then diffs everything the program
// can observe:
//
//   * final shared memory contents,
//   * per-read verification against a host-side reference,
//   * reduction results and lock-protected counters,
//   * the invariant oracle's verdict (attached in record mode).
//
// Timing may differ across protocols and latencies; program-visible values
// may not (the paper's claim that schedules change *when* data moves, never
// *what* a read observes). On a mismatch the failing program is greedily
// shrunk (drop rounds, phases, block assignments, features) while the
// failure signature reproduces, then dumped as a compact self-contained
// text trace that `presto_fuzz --replay=<file>` re-executes bit-identically.
// The simulation is deterministic, so seed + spec reproduce the run exactly;
// the trace stores the fully-expanded spec so shrinking needs no re-derivation.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/network.h"
#include "runtime/machine.h"
#include "stats/recorder.h"
#include "trace/tracer.h"

namespace presto::check {

// One phase of one round, fully expanded: per block, who writes and who
// reads (writes happen first, then a barrier, then the reads — the
// producer/consumer separation the compiler's directive placement produces).
struct FuzzPhase {
  std::vector<int> writer;                 // per block; -1 = nobody
  std::vector<std::uint64_t> reader_mask;  // per block; bit per node
  std::uint64_t lock_users = 0;            // nodes bumping the locked counter
  bool reduce = false;                     // end the phase with a reduce_sum
  // Nodes pushing commutative adds into the reduction region this phase.
  // The phase ends with an all-node cc_flush + barrier — the discipline the
  // ccached protocol requires before anyone reads (or plain-writes) a
  // commutative block.
  std::uint64_t cc_mask = 0;
};

struct FuzzRound {
  std::vector<FuzzPhase> phases;
};

struct FuzzProgram {
  int nodes = 2;
  // Wide machine shapes: 0 means every node is a participant and logical ids
  // equal physical node ids (the classic <= 64-node corpus, bit-identical to
  // programs generated before this field existed). A positive value P runs
  // the program on a `nodes`-wide machine with only P logical participants,
  // spread evenly so the top participant sits at node `nodes - 1` — this is
  // how the fuzzer reaches spill-range node ids (>= 64) while writer /
  // reader_mask / lock_users stay indexed by logical participant and the
  // reader masks keep fitting in one word.
  int participants = 0;
  std::uint32_t block_size = 32;
  int nblocks = 8;
  bool use_locks = false;
  std::uint64_t seed = 0;        // generator seed; salts the written values
  std::string injected_bug;      // empty = none (see check/bughook.h)
  std::vector<FuzzRound> rounds; // fully expanded, shrink-friendly
};

// Everything a program can observe, plus a determinism digest.
struct RunResult {
  std::vector<std::uint32_t> memory;  // final value per block (node 0 reads)
  // Final value per commutative block (empty when the program has no
  // commutative phases). Integer adds commute exactly, so these must agree
  // bit-for-bit across every protocol and merge order.
  std::vector<std::int64_t> cc_memory;
  std::uint64_t lock_total = 0;       // final lock-protected counter
  double reduce_digest = 0.0;         // accumulated reduction results
  std::uint64_t read_mismatches = 0;  // reads differing from the host ref
  std::uint64_t oracle_violations = 0;
  std::string first_violation;        // empty if none
  // Timing/traffic digest — compared only between identical configurations
  // (the determinism self-check), never across protocols or latencies.
  std::uint64_t exec_time = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
};

struct FuzzVerdict {
  bool ok = true;
  std::string report;     // human-readable description of the first failure
  std::string signature;  // stable hash of the failure; equal across replays
};

// Logical-participant geometry (see FuzzProgram::participants).
// participant_count is `participants`, or `nodes` for classic dense shapes;
// participant_node maps logical id -> physical node id.
int participant_count(const FuzzProgram& prog);
int participant_node(const FuzzProgram& prog, int i);

// Seeded program generation (uses Rng::next_below_unbiased throughout).
FuzzProgram generate(std::uint64_t seed);

// True when the program is meaningful under write-update: no locks (an
// update protocol cannot provide mutual exclusion), a stable single
// writer per block across the whole program (the hand-optimized SPMD
// usage the protocol models), and no commutative phases (a read-modify-write
// on a stale phase-consistent copy loses concurrent updates).
bool supports_write_update(const FuzzProgram& prog);

// True when any phase carries commutative adds (a second, set_commutative
// region is allocated and diffed only for such programs).
bool has_commutative(const FuzzProgram& prog);

// Optional per-run trace capture (tests/trace_property_test.cc reconciles
// the tracer's independent accounting against the protocol counters over
// the fuzz corpus). Non-null `capture` runs the program with the event
// tracer attached, in memory.
struct TraceCapture {
  trace::Digest digest;
  trace::Summary summary;
  trace::TraceData data;  // canonical stream + cost-model meta
  std::vector<stats::NodeCounters> counters;  // per node, for reconciliation
  // ccached flush round trips (0 under other protocols): each opens one
  // merge-class miss window with no tag fault, so the reconciliation
  // identity is misses == faults + cc_flushes.
  std::uint64_t cc_flushes = 0;
};

// Runs the program under one protocol/network configuration with the oracle
// attached in record mode. Deterministic: equal inputs give equal results.
// `backend`/`workers` map onto MachineConfig (runtime/machine.h); the
// window width is derived from the network.
RunResult run_program(const FuzzProgram& prog, runtime::ProtocolKind kind,
                      const net::NetConfig& net,
                      TraceCapture* capture = nullptr,
                      sim::Backend backend = sim::default_backend(),
                      int workers = 0);

// Full differential check: all applicable protocols under the default
// latency model, plus perturbed latency models when `latency_sweep`. With
// `parallel_workers` > 0 every protocol additionally runs serial
// fiber-windowed vs Backend::kParallel at that worker count, and the two
// must agree BIT-IDENTICALLY — program-visible values AND exec time,
// message counts and bytes (the windowed canon is backend-invariant).
FuzzVerdict check_program(const FuzzProgram& prog, bool latency_sweep = true,
                          int parallel_workers = 0);

// Greedy shrink: returns the smallest found program whose check_program
// signature matches the original failure. `max_attempts` bounds re-runs.
FuzzProgram shrink(const FuzzProgram& prog, const std::string& signature,
                   bool latency_sweep, int max_attempts = 200,
                   int parallel_workers = 0);

// Self-contained text trace (spec + seed + injected bug).
std::string serialize_trace(const FuzzProgram& prog);
// Parses a trace; aborts with a diagnostic on malformed input.
FuzzProgram parse_trace(const std::string& text);

}  // namespace presto::check
