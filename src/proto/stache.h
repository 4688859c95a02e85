// Stache: Blizzard's default sequentially-consistent, directory-based
// write-invalidate protocol (paper §3.1).
//
// Every block has a home node holding its directory entry. Requests are
// serialized per block at the home: while a transaction is in flight the
// entry is busy and later requests queue. Directory states (home's view):
//
//   Idle    — no remote copies; the home's own tag is ReadWrite.
//   Shared  — remote ReadOnly copies in `readers`; home tag is ReadOnly.
//   Excl    — a single remote ReadWrite `owner`; home tag is Invalid.
//
// Sharer sets are exact and node-grained, as in the paper: `readers` lists
// exactly the remote nodes holding a ReadOnly copy and never the home, so
// an invalidation round reaches only nodes that hold the block.
//
// The four-message producer-consumer pattern of §3.2 falls out directly:
// consumer GetS -> home RecallS -> producer RecallAckData -> home DataS.
//
// Directory layout: home assignment is page-grained, so each home's
// directory is a flat block-indexed table of page chunks
// (util::BlockTable<DirEntry>) rather than a hash map — a probe is two
// shifts and an indirection, and phase-repetitive traffic walks dense,
// cache-resident runs (docs/performance.md §8). Queued requests spill into
// a pooled FIFO chain instead of a per-entry deque, so steady-state queuing
// never allocates. Each home owns its pool, as it owns its directory, so
// homes drained concurrently by a worker pool share no protocol state.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "proto/protocol.h"
#include "util/bitset.h"
#include "util/block_table.h"

namespace presto::proto {

class StacheProtocol : public Protocol {
 public:
  StacheProtocol(sim::Engine& engine, net::Network& net,
                 mem::GlobalSpace& space, stats::Recorder& rec,
                 const ProtoCosts& costs);

  const char* name() const override { return "stache"; }

  void on_fault(int node, mem::BlockId b, bool is_write) override;

  // Debug validator: asserts the directory and every node's access tags
  // agree for all quiescent (non-busy) blocks —
  //   Idle:    home ReadWrite, everyone else Invalid;
  //   Shared:  home ReadOnly and not listed, remote tags ReadOnly exactly on
  //            `readers`;
  //   Excl:    owner ReadWrite, everyone else (incl. home) Invalid.
  // Call at barrier-aligned points (no transactions in flight). Aborts on
  // violation; returns the number of directory entries checked.
  std::size_t check_invariants() const;

  static constexpr std::uint32_t kNoPend = 0xffffffffu;

  struct DirEntry {
    enum class S : std::uint8_t { Idle, Shared, Excl };
    S state = S::Idle;

    // In-flight transaction (requests queue behind it).
    bool busy = false;
    bool req_write = false;
    // Predictive protocol: a presend-initiated recall is in flight (its
    // RecallAckData must not run the normal transaction-completion path).
    bool presend_recall = false;
    std::int32_t owner = -1;     // remote ReadWrite owner when Excl
    std::int32_t req_node = -1;
    std::int32_t acks_needed = 0;
    util::NodeSet readers;       // exactly the remote ReadOnly copies
    // Pooled FIFO chain of queued (requester, is_write) requests.
    std::uint32_t pend_head = kNoPend;
    std::uint32_t pend_tail = kNoPend;

    bool has_pending() const { return pend_head != kNoPend; }
  };

  // Read-only audit walk over every materialized directory entry (test
  // hook: the dir-audit test rebuilds a reference directory from the access
  // tags and cross-checks it against this flat layout).
  template <typename Fn>
  void for_each_dir_entry(Fn&& fn) const {
    for (int h = 0; h < space_.nodes(); ++h)
      dir_[static_cast<std::size_t>(h)].for_each(
          [&](mem::BlockId b, const DirEntry& d) { fn(h, b, d); });
  }

  // Host bytes held by protocol metadata (directory chunks, pending pool,
  // scratch) — surfaced as stats::HostCounters::metadata_bytes.
  std::size_t metadata_bytes() const override;

 protected:
  // Stache's message types; any other type fails here, at the end of the
  // handler chain of every protocol built on Stache.
  void handle(int self, const Msg& m) override;

  // Home-side transaction engine. A directory probe is the protocol's
  // single hottest metadata access; every call is counted per home node.
  DirEntry& dir(int home, mem::BlockId b) {
    ++rec_.node(home).dir_probes;
    return dir_[static_cast<std::size_t>(home)].at(b);
  }
  void start_request(int home, mem::BlockId b, int requester, bool is_write);
  void complete_gets(int home, mem::BlockId b, int requester);
  void complete_getx(int home, mem::BlockId b, int requester);
  void finish_transaction(int home, mem::BlockId b);
  void grant(int home, mem::BlockId b, int requester, mem::Tag tag);
  // Home side of a RecallAckData for the recall in flight on d: installs
  // the owner's bytes at the home and leaves the entry Idle (after a
  // RecallX) or Shared with the old owner as a reader (after a RecallS).
  void take_recalled(int home, const Msg& m, DirEntry& d);

  // Pending-request spill arena of `home` (whose directory holds d):
  // fixed-size nodes recycled via a freelist.
  void pend_push(int home, DirEntry& d, int node, bool is_write);
  std::pair<int, bool> pend_pop(int home, DirEntry& d);

  // Hook for the predictive protocol: called for every request the home
  // processes (all of which involve communication — purely local accesses
  // never fault through here). May be overridden to record schedules.
  virtual void record_request(int home, mem::BlockId b, int requester,
                              bool is_write) {
    (void)home;
    (void)b;
    (void)requester;
    (void)is_write;
  }

  // Visits the members of a directory sharer set, ascending, skipping
  // skip_a and skip_b (typically requester and home). It walks the stored
  // set in place; a copy that dropped a spilled member would run the
  // NodeSet's spill shrink on the invalidation path.
  template <typename Fn>
  static void for_each_sharer(const util::NodeSet& s, int skip_a, int skip_b,
                              Fn&& fn) {
    s.for_each([&](int n) {
      if (n != skip_a && n != skip_b) fn(n);
    });
  }

  // dir_[home]: flat block-indexed directory, chunk-materialized per page.
  std::vector<util::BlockTable<DirEntry>> dir_;

 private:
  struct PendNode {
    std::int32_t node = -1;
    bool is_write = false;
    std::uint32_t next = kNoPend;
  };
  struct PendPool {
    std::vector<PendNode> nodes;
    std::uint32_t free = kNoPend;
  };
  // pend_[home]: that home's pending-request arena, indexed like dir_.
  std::vector<PendPool> pend_;
};

}  // namespace presto::proto
