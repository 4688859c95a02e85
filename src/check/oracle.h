// Coherence invariant oracle.
//
// Maintains a shadow model of every cache block — the committed bytes (the
// value of the most recent application write in simulated execution order)
// plus the last writer — and checks, per simulated event, the invariants the
// paper's central claim rests on (§3: schedules change *when* data moves,
// never *what* a read observes):
//
//   * single-writer/multiple-reader — while a node writes a block, no other
//     node holds a valid copy; while a node reads, no other node holds
//     ReadWrite (sequentially consistent protocols only);
//   * data-value — a read returns exactly the bytes of the most recent
//     write in simulated-time order (execution order is a linearization of
//     simulated time for data-race-free programs, see DESIGN.md);
//   * presend coherence — any data-carrying protocol message (including the
//     predictive protocol's BulkData presends) carries bytes equal to the
//     sender's committed view of the block at send time, and installs of
//     those bytes still match the committed view at arrival;
//   * directory/cache agreement — via StacheProtocol::check_invariants(),
//     which callers run at quiescent points; plus a final whole-memory
//     sweep (every valid copy equals the committed bytes) at end of run.
//
// The write-update protocol deliberately provides only phase consistency
// (readers may hold stale copies until the writer publishes), so under
// Mode::kPhase the oracle tracks the shadow but only checks writer-side
// sends; per-read data-value checking can be opted into with
// set_strict_reads(true) by harnesses whose programs are phase-synchronized
// (write -> publish -> barrier -> read), as the fuzzer's are.
//
// Observation is pure: the oracle never charges simulated time or schedules
// events, so results are bit-identical with or without it. It is compiled in
// always and attached per System when enabled — a runtime flag
// (PRESTO_ORACLE=1/0) or by default in builds without NDEBUG (Debug /
// sanitizer CI). Detached, the hot paths pay one null-pointer test
// (mem/global_space.h read()/write(), proto/protocol.cc post()).
//
// Hooks fire on concurrently draining lanes of the windowed engine
// (sim/engine.h), so they cannot touch the shared shadow directly. Each
// hook instead records its arguments (payload bytes copied into a per-lane
// arena) and replay_window() — registered as BoundaryOp::kOracle — applies
// the window's records against the shadow in merged (time, lane, record)
// order on the coordinating thread. Tag-state checks then see boundary-time
// tags rather than event-time tags; that is sound at window granularity:
// the window never exceeds the network's minimum latency, so any copy a
// peer gained since the event was recorded stems from a grant chain that
// began in an earlier window — if it conflicts with the recorded access,
// the protocol really did let a conflicting copy and an access coexist.
//
// A 256-event ring of recent accesses/messages is kept for failure triage;
// the fuzzer embeds its tail in dumped trace files (docs/testing.md).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mem/global_space.h"
#include "net/network.h"
#include "proto/protocol.h"
#include "sim/engine.h"

namespace presto::check {

// Consistency model the protocol under test claims to provide.
enum class Mode : std::uint8_t {
  kSC,     // sequentially consistent (Stache, predictive)
  kPhase,  // phase-consistent (write-update: staleness until publish is legal)
};

enum class FailMode : std::uint8_t {
  kAbort,   // dump the event ring and abort on first violation (debug runs)
  kRecord,  // record and keep simulating (the fuzzer inspects afterwards)
};

struct Violation {
  std::string what;
  sim::Time when = 0;
  int node = -1;
  mem::BlockId block = 0;
};

class Oracle final : public mem::AccessObserver,
                     public proto::CoherenceObserver,
                     public net::Network::Observer {
 public:
  Oracle(mem::GlobalSpace& space, const sim::Engine* engine, Mode mode,
         FailMode fail);

  Mode mode() const { return mode_; }
  FailMode fail_mode() const { return fail_; }

  // Enables per-read data-value checking under Mode::kPhase (no-op for
  // kSC, which always checks). Only valid for phase-synchronized programs.
  void set_strict_reads(bool on) { strict_reads_ = on; }

  // ---- mem::AccessObserver --------------------------------------------------
  void on_app_read(int node, mem::BlockId b, std::size_t off,
                   const void* seen, std::size_t n) override;
  void on_app_write(int node, mem::BlockId b, std::size_t off,
                    const void* data, std::size_t n) override;
  // Privatized commutative update (ccached): folds delta into the committed
  // shadow immediately — addition commutes, so the shadow stays exact no
  // matter what order the protocol's logs merge in. No tag checks apply (the
  // update is local by design); a merge that loses or double-applies a delta
  // is caught by final_sweep when the home's copy diverges from the shadow.
  void on_cc_update(int node, mem::BlockId b, std::size_t off,
                    std::int64_t delta) override;

  // ---- proto::CoherenceObserver ---------------------------------------------
  void on_data_send(int src, int dst, const proto::Msg& m) override;
  void on_install(int node, mem::BlockId b, const std::byte* data,
                  mem::Tag tag) override;

  // ---- net::Network::Observer -----------------------------------------------
  void on_message(int src, int dst, std::size_t bytes, sim::Time depart,
                  sim::Time arrival) override;

  // ---- Quiescent checks ------------------------------------------------------
  // Whole-memory agreement sweep: every materialized, non-Invalid copy at
  // every node must equal the committed bytes. SC mode only (stale valid
  // copies are legal under phase consistency). Call with no transactions in
  // flight (end of run). Returns the number of copies compared.
  std::size_t final_sweep();

  // Windowed mode (BoundaryOp::kOracle): applies every record buffered this
  // window against the shadow, in (time, lane, record) order. Idempotent on
  // an empty window; called once more by final_sweep() as a drain.
  void replay_window();

  // ---- Results ----------------------------------------------------------------
  std::uint64_t violation_count() const { return violation_count_; }
  const std::vector<Violation>& violations() const { return violations_; }
  std::uint64_t reads_checked() const { return reads_checked_; }
  std::uint64_t writes_checked() const { return writes_checked_; }
  std::uint64_t sends_checked() const { return sends_checked_; }
  std::uint64_t installs_checked() const { return installs_checked_; }
  std::uint64_t cc_updates_checked() const { return cc_updates_checked_; }

  // The committed (most recently written) bytes of a block — the shadow the
  // fuzzer uses as its host-side reference.
  const std::byte* committed(mem::BlockId b) const;

  // Renders the most recent ring events (oldest first), one per line.
  std::string ring_dump(std::size_t max_events = 64) const;

 private:
  enum class Ev : std::uint8_t {
    kRead, kWrite, kInstall, kSend, kNet, kCcUpdate
  };
  struct RingEvent {
    sim::Time t = 0;
    Ev kind = Ev::kRead;
    std::int16_t a = -1;  // node / src
    std::int16_t b = -1;  // dst (sends) or tag (installs)
    std::uint8_t info = 0;  // MsgType for sends
    mem::BlockId block = 0;
  };
  static constexpr std::size_t kRingSize = 256;
  static constexpr std::size_t kMaxStoredViolations = 32;

  // One deferred hook invocation (windowed mode). Payload bytes live in the
  // owning lane's arena at data_off; msg is meaningful for kSend only (its
  // data pointer is re-targeted to the arena copy at replay).
  struct DefRec {
    Ev kind = Ev::kRead;
    sim::Time t = 0;
    std::int16_t a = -1;  // node / src
    std::int16_t b = -1;  // dst (sends) or tag (installs)
    mem::BlockId block = 0;
    std::uint32_t off = 0;
    std::uint32_t n = 0;
    std::size_t data_off = 0;
    bool has_data = false;
    proto::Msg msg{};
  };
  struct LaneBuf {
    std::vector<DefRec> recs;
    std::vector<std::byte> bytes;
  };

  void ensure_block(mem::BlockId b);
  sim::Time now() const {
    if (replaying_) return replay_t_;
    return engine_ != nullptr ? engine_->now() : 0;
  }
  // True when the calling hook must buffer instead of checking (inside a
  // lane drain). Returns the lane's buffer.
  LaneBuf* defer_target();
  std::size_t stash(LaneBuf& lb, const void* data, std::size_t n);
  void push_ring(Ev kind, int a, int b, std::uint8_t info, mem::BlockId blk);
  void violation(int node, mem::BlockId b, std::string what);

  // Immediate check bodies; hooks call these directly outside lane drains
  // and replay_window() calls them with replay_t_ overriding now().
  void check_read(int node, mem::BlockId b, std::size_t off, const void* seen,
                  std::size_t n);
  void check_write(int node, mem::BlockId b, std::size_t off, const void* data,
                   std::size_t n);
  void check_send(int src, int dst, const proto::Msg& m);
  void check_install(int node, mem::BlockId b, const std::byte* data,
                     mem::Tag tag);
  void check_cc_update(int node, mem::BlockId b, std::size_t off,
                       std::int64_t delta);

  mem::GlobalSpace& space_;
  const sim::Engine* engine_;
  const Mode mode_;
  const FailMode fail_;
  bool strict_reads_ = false;

  std::vector<LaneBuf> lanes_;  // [lane]
  bool replaying_ = false;
  sim::Time replay_t_ = 0;

  // Flat shadow of the whole space (grown on demand, zero-filled to match
  // zero-initialized frames) + last writer per block (-1 = never written).
  std::vector<std::byte> committed_;
  std::vector<std::int16_t> last_writer_;
  // Sticky per-block flag: two distinct nodes have written this block. Under
  // phase consistency the committed shadow is then a merged view no single
  // writer's local copy holds (false sharing — each writer publishes whole
  // blocks containing only its own stores), so the writer-side publish check
  // does not apply.
  std::vector<std::uint8_t> multi_writer_;

  std::vector<RingEvent> ring_;
  std::size_t ring_next_ = 0;

  std::vector<Violation> violations_;
  std::uint64_t violation_count_ = 0;
  std::uint64_t reads_checked_ = 0;
  std::uint64_t writes_checked_ = 0;
  std::uint64_t sends_checked_ = 0;
  std::uint64_t installs_checked_ = 0;
  std::uint64_t cc_updates_checked_ = 0;
};

// True when a System should attach an oracle without being asked:
// PRESTO_ORACLE=1/0 overrides; otherwise on in builds without NDEBUG
// (Debug / sanitizer CI) and off in optimized builds.
bool oracle_enabled_by_default();

// Oracle mode matching a protocol's consistency claim, by protocol name()
// ("write-update" -> kPhase, everything else -> kSC).
Mode mode_for_protocol(const char* protocol_name);

}  // namespace presto::check
