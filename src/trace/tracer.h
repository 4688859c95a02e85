// The tracer: turns the simulator's observation hooks (trace/hooks.h, every
// one of which it overrides) into a deterministic typed event stream plus an
// online accounting summary.
//
// Buffering is chunked, like net/record_ring.h, at event granularity:
// fixed 32-byte POD events are appended through a raw write
// cursor into 2048-event chunks (no per-event allocation; one 64 KiB chunk
// allocation per 2048 events, sized under the allocator's mmap threshold so
// chunk memory recycles through the heap arena instead of costing a fresh
// mmap + page-fault sweep per chunk — the dominant tracing cost at millions
// of events was the virtual-memory churn, not the stores). The
// append path is branch-lean by construction: category filtering is one
// indexed load from a per-kind enable table precomputed at construction, the
// store is a plain cursor write, and the canonical sequence number is never
// assigned at emit time — events buffer unstamped per node and are stamped
// in bulk at window boundaries (BoundaryOp::kTrace of the engine the tracer
// is attached to), and once more at finalize. A tracer built with no engine
// (a host-cost probe that calls hooks directly) has the same per-node
// buffers and is stamped at finalize alone; its access and install hooks,
// which are passed no clock, record time 0. Buffers are bounded by
// TraceConfig::max_events_per_node; overflow drops events but never
// silently — dropped counts land in the summary and the file meta.
//
// Observation is pure (no simulated time charged, no events scheduled), and
// the tracer forwards the five hooks the coherence oracle checks (app read,
// app write, cc update, send, install) to the observer chained below it
// (the oracle, attached in Debug builds), so oracle + tracer coexist, the
// oracle checks the stream it would check alone (tests/check_test.cc,
// Oracle.ChecksTheSameStreamUnderATracer), and golden counters stay
// bit-identical with tracing on (tests/trace_test.cc). The other hooks have
// no consumer below the tracer and are not forwarded; an oracle that starts
// checking one needs its forward here.
//
// Presend accounting (two independent paths reconciled by
// tests/trace_property_test.cc): every presend-installed block is pending
// until resolved exactly once —
//   * hit    — the node's next access to it completes without a fault;
//   * waste  — the node faults on it anyway (kMissStart with class
//              kPresendWaste), or a re-presend overwrites it;
//   * unused — still pending at end of run.
// hits + waste + unused == presend_blocks_received (the protocol's counter).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mem/global_space.h"
#include "net/network.h"
#include "proto/protocol.h"
#include "trace/event.h"
#include "trace/file.h"
#include "trace/hooks.h"
#include "util/block_table.h"

namespace presto::trace {

// Event counts + an FNV-1a hash over the canonical (seq-merged) stream —
// the golden-trace pin unit. Equal digests ⇒ byte-identical streams.
struct Digest {
  std::uint64_t events = 0;
  std::uint64_t hash = 0;
  std::array<std::uint64_t, kNumEventKinds> by_kind{};

  bool operator==(const Digest&) const = default;
};

// Online totals the tracer accumulates independently of the event stream
// (surfaced in stats::Report and reconciled against protocol counters).
struct Summary {
  std::uint64_t events = 0;
  std::uint64_t dropped = 0;

  std::uint64_t misses = 0;
  std::array<std::uint64_t, kNumMissClasses> miss_by_class{};
  sim::Time miss_latency_total = 0;

  std::uint64_t presend_installs = 0;  // blocks installed by BulkData runs
  std::uint64_t presend_hits = 0;
  std::uint64_t presend_waste = 0;   // re-faulted or overwritten
  std::uint64_t presend_unused = 0;  // still pending at finalize

  // Per-phase hit/waste totals, indexed by phase id + 1 (bucket 0 = before
  // any phase directive). Sized on demand.
  struct PhaseTotals {
    std::uint64_t misses = 0;
    std::array<std::uint64_t, kNumMissClasses> miss_by_class{};
    sim::Time miss_latency = 0;
    std::uint64_t presend_hits = 0;
    std::uint64_t presend_waste = 0;
  };
  std::vector<PhaseTotals> phases;
};

class Tracer final : public Hooks {
 public:
  Tracer(const TraceConfig& cfg, mem::GlobalSpace& space, sim::Engine* engine);
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // The observer below the tracer (the oracle, when one is attached; null
  // for none). The oracle's five hooks forward to it after recording.
  void chain(Hooks* next) { next_ = next; }

  const TraceConfig& config() const { return cfg_; }

  // ---- trace::Hooks ---------------------------------------------------------
  void on_app_read(int node, mem::BlockId b, std::size_t off, const void* seen,
                   std::size_t n) override;
  void on_app_write(int node, mem::BlockId b, std::size_t off,
                    const void* data, std::size_t n) override;
  void on_cc_update(int node, mem::BlockId b, std::size_t off,
                    std::int64_t delta) override;
  void on_phase_begin(int node, int phase, sim::Time t) override;
  void on_phase_ready(int node, int phase, sim::Time t) override;
  void on_phase_flush(int node, int phase, sim::Time t) override;
  void on_barrier_arrive(int node, std::uint64_t epoch, sim::Time t) override;
  void on_barrier_release(int node, std::uint64_t epoch, sim::Time t) override;
  void on_lock_acquire(int node, std::uint64_t lock_block,
                       sim::Time t) override;
  void on_lock_acquired(int node, std::uint64_t lock_block, sim::Time t,
                        bool contended) override;
  void on_lock_release(int node, std::uint64_t lock_block,
                       sim::Time t) override;
  void on_miss_start(int node, std::uint64_t block, bool is_write,
                     sim::Time t0) override;
  void on_miss_end(int node, std::uint64_t block, bool is_write,
                   sim::Time t1) override;
  // Records the message through on_msg_send.
  void on_send(int src, int dst, const proto::Msg& m, std::uint32_t wire_bytes,
               sim::Time depart) override;
  void on_msg_recv(int dst, int src, std::uint8_t msg_type,
                   std::uint64_t block, std::uint32_t wire_bytes,
                   sim::Time arrival, sim::Time dispatch) override;
  void on_install(int node, mem::BlockId b, const std::byte* data,
                  mem::Tag tag) override;
  void on_presend_install(int node, int src, std::uint64_t block0,
                          std::uint32_t count, sim::Time t) override;
  void on_ctx_block(int node, sim::Time t) override;
  void on_ctx_resume(int node, sim::Time t) override;

  // Appends one kMsgSend event: the whole of on_send's recording, callable
  // without a Msg (host-cost probes time the append path through it).
  void on_msg_send(int src, int dst, std::uint8_t msg_type,
                   std::uint64_t block, std::uint32_t count,
                   std::uint32_t wire_bytes, sim::Time depart);

  // ---- End of run ------------------------------------------------------------
  // Resolves still-pending presends as unused and freezes the summary.
  // Idempotent; called by System::run.
  void finalize(sim::Time exec_time, const char* protocol_name);

  // Canonical stream + meta, buildable only after finalize(). The meta's
  // cost-model fields come from the machine config captured at attach.
  TraceData build(const proto::ProtoCosts& costs,
                  const net::NetConfig& net_cfg) const;

  Digest digest() const;
  const Summary& summary() const { return summary_; }

 private:
  // 2048 events = 64 KiB: deliberately below glibc's 128 KiB mmap threshold,
  // so chunks come from (and return to) the heap arena — repeated traced
  // runs in one process reuse warm pages instead of re-faulting fresh maps.
  static constexpr std::size_t kChunkEvents = 2048;
  struct Chunk {
    std::array<Event, kChunkEvents> ev;
    std::size_t n = 0;
  };
  struct NodeBuf {
    // Raw write cursor into the tail chunk; cur == end triggers the refill
    // slow path. The tail chunk's element count is synced from the cursor
    // before any walk (sync_tail).
    Event* cur = nullptr;
    Event* end = nullptr;
    std::vector<std::unique_ptr<Chunk>> chunks;
    // First event not yet given a canonical sequence number (see
    // stamp_window).
    std::size_t stamp_chunk = 0;
    std::size_t stamp_pos = 0;
  };

  // Per-(node, block) presend/validity state bits.
  static constexpr std::uint8_t kEverValid = 1u << 0;
  static constexpr std::uint8_t kPending = 1u << 1;

  void emit(EventKind k, int node, sim::Time t, std::uint64_t block,
            std::uint32_t arg, std::int16_t peer, std::uint16_t aux);
  // Slow path of emit: seals the tail chunk and opens a fresh one (freelist
  // first), returning the new cursor.
  Event* refill(NodeBuf& buf);
  // Syncs the tail chunk's element count from the write cursor; required
  // before any chunk walk (stamp, build).
  static void sync_tail(NodeBuf& buf);
  std::uint8_t& state(int node, mem::BlockId b) {
    return state_[static_cast<std::size_t>(node)].at(b);
  }
  // Summary shard the node's hooks accumulate into: one per node, since
  // hooks fire on concurrently draining lanes; finalize() folds the shards
  // into summary_.
  Summary& sum(int node) { return shards_[static_cast<std::size_t>(node)]; }
  Summary::PhaseTotals& phase_totals(int node);
  // Assigns canonical sequence numbers to every event not yet stamped, in
  // node order then append order — a total order independent of how lanes
  // were partitioned over workers. Runs at every window boundary
  // (BoundaryOp::kTrace) and once more at finalize.
  void stamp_window();
  // Resolves a pending presend on access (hit) or fault/overwrite (waste).
  void resolve_pending(int node, mem::BlockId b, bool hit, sim::Time t);
  // Clocks for the hooks that pass none (accesses, installs): the engine's,
  // or the node's processor's. A tracer with no engine stamps those events
  // at 0.
  sim::Time engine_now() const;
  sim::Time node_now(int node) const;

  const TraceConfig cfg_;
  mem::GlobalSpace& space_;
  sim::Engine* engine_;

  Hooks* next_ = nullptr;

  // Per-node buffers and summary shards: lanes append concurrently.
  std::vector<NodeBuf> bufs_;
  std::vector<Summary> shards_;
  // Per-kind record filter, precomputed from cfg_.categories: the emit fast
  // path's only filter branch is one indexed load.
  std::array<bool, kNumEventKinds> kind_enabled_{};
  // Per-node appended/dropped counts (the max_events_per_node cap).
  std::vector<std::uint64_t> node_events_;
  std::vector<std::uint64_t> node_dropped_;
  std::uint32_t seq_ = 0;

  std::vector<util::BlockTable<std::uint8_t>> state_;
  std::vector<int> cur_phase_;        // per node; -1 before first directive
  std::vector<std::uint64_t> pending_count_;  // per node, for finalize

  // One outstanding miss per node (on_fault blocks the node's thread).
  struct MissState {
    sim::Time t0 = 0;
    MissClass cls = MissClass::kCold;
  };
  std::vector<MissState> miss_;

  Summary summary_;
  bool finalized_ = false;
  sim::Time exec_time_ = 0;
  std::string protocol_name_;
};

}  // namespace presto::trace
