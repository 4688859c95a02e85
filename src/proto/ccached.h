// CCached: commutative-update protocol for reduction-tagged blocks.
//
// Blocks inside a mem::GlobalSpace::set_commutative region may be updated
// with order-independent 64-bit integer adds (NodeCtx::cc_add). Instead of
// faulting for ReadWrite ownership — which turns a hot reduction block into
// an invalidation ping-pong between every contributing node — each node
// privatizes its adds into a per-block word log (delta per 8-byte word) and
// ships the log to the block's home as one CcFlush message at a phase
// boundary (NodeCtx::cc_flush) or on demand when the node itself faults on
// the block. The home serializes flushes per block, quiesces remote copies
// through the ordinary Stache transaction engine (a home write request), and
// folds the deltas into its own — now sole — copy. Integer addition commutes
// exactly, so the merged image is bit-identical regardless of flush order,
// which keeps the protocol inside the golden-pin and differential-fuzzer
// equivalence tiers.
//
// Ordinary (untagged) blocks see stock Stache semantics: this class only
// adds behaviour, never changes the base protocol's, so ccached is
// bit-identical to stache on workloads that never call cc_add.
//
// Required application discipline (enforced by the apps and the fuzzer's
// program generator): all cc_add updates to a block happen-before a
// cc_flush + barrier, and only after that barrier may any node read or
// plainly write the block. The oracle's final_sweep stays strict for
// commutative blocks — a lost or double-applied delta is caught there.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "proto/stache.h"
#include "util/block_table.h"

namespace presto::proto {

class CCachedProtocol : public StacheProtocol {
 public:
  CCachedProtocol(sim::Engine& engine, net::Network& net,
                  mem::GlobalSpace& space, stats::Recorder& rec,
                  const ProtoCosts& costs);

  const char* name() const override { return "ccached"; }

  // A fault on a commutative block first flushes the node's own pending
  // deltas for it (they must reach the home before the node observes the
  // block), then falls through to the Stache miss path.
  void on_fault(int node, mem::BlockId b, bool is_write) override;

  // ---- Directives (runtime::NodeCtx, app thread) ---------------------------

  // Privatizes `delta` against the 8-byte word at address a (which must lie
  // in a commutative region, 8-byte aligned). No permission needed, no
  // messages; the update becomes globally visible when the log flushes.
  void cc_add(int node, mem::Addr a, std::int64_t delta) override;

  // Flushes every block the node holds pending deltas for, in first-touch
  // order. Each block's flush is one CcFlush -> merge -> CcFlushAck round
  // trip, waited out serially on the app thread and bracketed as a write
  // miss (trace MissClass::kMerge), so Σ miss latency == Σ remote_wait holds.
  void cc_flush(int node) override;

  // One on-the-wire log entry: delta for one 8-byte word of the block.
  struct FlushEntry {
    std::uint64_t word = 0;  // word index within the block
    std::int64_t delta = 0;
  };
  static_assert(sizeof(FlushEntry) == 16);

  std::size_t metadata_bytes() const override;

 protected:
  // CcFlush at the home, CcFlushAck at the flushing node; everything else
  // goes on to StacheProtocol::handle.
  void handle(int self, const Msg& m) override;

 private:
  // Per-block privatized delta log: one slot per 8-byte word.
  struct WordLog {
    mem::BlockId block = 0;
    std::vector<std::int64_t> delta;  // words_per_block_ entries
    std::vector<std::uint8_t> used;
  };
  // Per-node log set: block -> pool slot (+1; 0 = none), pool recycled via a
  // freelist, `active` keeps first-touch order for deterministic flushing.
  struct NodeLog {
    util::BlockTable<std::uint32_t> slot;
    std::vector<std::uint32_t> active;
    std::vector<WordLog> pool;
    std::vector<std::uint32_t> free;
  };
  // A flush waiting to merge at its home. Entries are copied out of the
  // channel's record (it is only valid during handle()).
  struct FlushOp {
    std::int32_t src = -1;
    mem::BlockId block = 0;
    std::vector<FlushEntry> entries;
  };

  // Sends one block's log to its home and waits for the merge ack, a remote
  // miss in the trace's attribution (MissClass::kMerge).
  void flush_block(int node, mem::BlockId b);
  // Drains the home's flush queue: merges every op whose directory entry is
  // quiescent-Idle, otherwise starts a home write request to quiesce the
  // block and re-polls after a handler occupancy. At most one retry pump is
  // scheduled per home at a time.
  void try_pump(int home);
  void apply_flush(int home, const FlushOp& op);

  const std::uint32_t words_per_block_;
  std::vector<NodeLog> logs_;
  std::vector<std::deque<FlushOp>> flushq_;
  std::vector<std::uint8_t> pump_scheduled_;
};

}  // namespace presto::proto
