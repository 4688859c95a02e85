// C**'s predictive cache-coherence protocol (paper §3.3–3.4).
//
// Augments Stache in two parts:
//
//  1. *Schedule building.* Every request processed at a home node while a
//     phase is active is recorded in that phase's communication schedule:
//     entry = {readers, writers} per block. All requests reaching the home
//     involve communication (purely local accesses never fault), including
//     the home's own faults that trigger remote invalidations/recalls.
//     Schedules grow incrementally — faults in later iterations extend them
//     (adaptive applications); deletions are not tracked (paper §3.3), so
//     phase_flush() lets applications rebuild a schedule from scratch.
//
//  2. *Presend.* At phase_begin(p) every node walks the phase-p entries for
//     blocks it homes and executes the anticipated transactions early:
//       - Read-marked blocks: recall dirty data, then forward ReadOnly
//         copies to the recorded readers the directory does not list yet.
//       - Write-marked blocks: invalidate other copies and forward a
//         ReadWrite copy to the recorded writer (pre-invalidation when the
//         writer is the home itself).
//       - Conflict blocks (read & written by different nodes in one phase,
//         e.g. false sharing) are skipped, or optionally anticipate the
//         first stable state (the paper's suggested extension).
//     Neighbouring blocks destined for the same node are coalesced into
//     bulk messages to amortize message startup (§3.4). A global barrier
//     stabilizes all block states before the phase's computation starts.
#pragma once

#include <memory>

#include "proto/stache.h"

namespace presto::proto {

enum class ConflictPolicy {
  kSkip,        // paper's default: no action for conflict blocks
  kAnticipate,  // paper's suggested extension: use the first stable state
};

class PredictiveProtocol : public StacheProtocol {
 public:
  PredictiveProtocol(sim::Engine& engine, net::Network& net,
                     mem::GlobalSpace& space, stats::Recorder& rec,
                     const ProtoCosts& costs,
                     ConflictPolicy conflicts = ConflictPolicy::kSkip);

  const char* name() const override { return "predictive"; }

  // Compiler-placed directive: presend phase `phase`, then global barrier.
  // Runs on the node's processor thread.
  void phase_begin(int node, int phase) override;

  // Discards this home's schedule for `phase` (schedule rebuild, §3.3).
  void phase_flush(int node, int phase) override;

  // Number of live schedule entries for (home, phase) — test/bench hook.
  std::size_t schedule_size(int home, int phase) const;

  // Ablation hook: disable bulk coalescing (§3.4) — every presend block
  // travels in its own message.
  void set_coalescing(bool on) { coalescing_ = on; }

  std::size_t metadata_bytes() const override;

 protected:
  void record_request(int home, mem::BlockId b, int requester,
                      bool is_write) override;
  // Presend traffic: bulk runs, their acks, and the RecallAckData of a
  // presend recall; everything else goes on to StacheProtocol::handle.
  void handle(int self, const Msg& m) override;

 private:
  struct Entry {
    util::NodeSet readers;
    util::NodeSet writers;
    bool first_is_write = false;
    bool first_set = false;
  };
  enum class Kind { kRead, kWrite, kConflict };

  // One phase's communication schedule. Recording is an O(1) append plus a
  // flat block-indexed probe — no hashing, no rehash, ever. The index table
  // stores record-index + 1 (0 = not recorded), chunk-materialized per page
  // like the directory, so a probe is two shifts and an indirection into
  // memory this home already touches. The block ordering that run coalescing
  // needs is established lazily, by sorting once at presend time. Presend
  // iterates in block order while new requests may keep arriving (the
  // recording home is also presending), so insertions bump `gen` and the
  // iterator re-sorts and re-locates — reproducing std::map
  // iteration-under-insertion semantics: blocks inserted behind the cursor
  // are skipped, ahead of it are visited.
  struct PhaseSched {
    struct Rec {
      mem::BlockId block;
      Entry e;
    };
    std::vector<Rec> recs;
    util::BlockTable<std::uint32_t> index;  // block -> recs idx + 1; 0 absent
    std::uint64_t gen = 0;  // bumped per insertion
    bool sorted = true;     // recs ascending by block

    void ensure_sorted();
  };

  Kind derive(const Entry& e) const;

  // One presend action staged during the stage-2 schedule walk: push (or
  // invalidate) `block` at `target`, installing `tag`. Packed to 8 bytes: a
  // Barnes presend stages hundreds of thousands of them. The constructor
  // checks that every node id fits `target`, and batch_item() that each
  // block id fits `block`.
  struct BatchItem {
    std::uint32_t block;
    std::uint16_t target;
    mem::Tag tag;
  };
  static_assert(sizeof(BatchItem) == 8);
  static BatchItem batch_item(int target, mem::BlockId b, mem::Tag tag);

  PhaseSched& ensure_phase(int home, int phase);
  void do_presend(int node, int phase);
  void send_bulk_runs(int node, int target, const BatchItem* items,
                      std::size_t count, bool invalidate);

  // sched_[home][phase] -> flat schedule, materialized on first record.
  // unique_ptr keeps PhaseSched references stable while the phase vector
  // grows (presend holds one across yields).
  std::vector<std::vector<std::unique_ptr<PhaseSched>>> sched_;
  std::vector<int> cur_phase_;
  // Per-presending-node staging for stage 2, reused across phases (cleared,
  // not freed) — O(actions), where the old per-(node, target) vector-of-
  // vectors was O(nodes²) even when idle. Items are appended in block order
  // and stable-sorted by target before sending, which reproduces the dense
  // layout's per-target block order exactly. Per node because all nodes
  // presend concurrently: send_bulk_runs yields inside charge(), so another
  // node's presend can run mid-batch.
  std::vector<std::vector<BatchItem>> push_batch_;
  std::vector<std::vector<BatchItem>> inv_batch_;
  std::uint32_t blocks_per_page_ = 1;
  ConflictPolicy conflict_policy_;
  bool coalescing_ = true;
};

}  // namespace presto::proto
