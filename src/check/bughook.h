// Hidden fault-injection hooks for validating the checking subsystem.
//
// The invariant oracle and the differential fuzzer are only trustworthy if
// they demonstrably catch real protocol bugs. These hooks let a test (or
// `presto_fuzz --inject-bug=...`) plant a classic coherence bug in an
// otherwise-correct protocol — e.g. an invalidation that is acknowledged but
// never applied — and assert that the oracle fires and the failure replays
// bit-identically. Production code never sets them; the consulting branches
// sit on cold handler paths. The PRESTO_TEST_BUG environment variable seeds
// the flags on first use so subprocess-based tests can inject without an API.
#pragma once

namespace presto::check {

struct BugHooks {
  // Stache's Inv handler acknowledges the invalidation but leaves the stale
  // ReadOnly copy in place — the textbook "lost invalidation" bug. Breaks
  // single-writer/multiple-reader and, later, the data-value invariant.
  bool skip_invalidate = false;

  // The predictive presend pushes block bytes but installs them without
  // updating the bytes at the target (install tag only) — pre-sent data
  // diverges from the home's committed bytes.
  bool drop_presend_data = false;

  // Windowed engines with a worker pool only (workers > 1): the network
  // holds one source's staged records back a full window before flushing them
  // (once per run) — the classic conservative-PDES bug of a flush missing
  // its window boundary. Deliveries slip a window, so the parallel run
  // diverges from the serial windowed canon and the parallel-vs-serial
  // differential must catch it. Serial (workers <= 1) runs are unaffected,
  // which is what lets the same process hold a clean reference.
  bool delay_window_flush = false;

  // Parallel worker pool only (workers > 1): the first released helper to
  // claim a lane other than its window's last runnable lane believes its
  // stale sense flag already shows the window complete, so it arrives at the
  // barrier without draining that lane (once per run). The lane's events
  // execute one window late — per-lane (time, seq) order is intact, so
  // counters and execution results match, but the window-boundary trace
  // stamping order diverges and the parallel differential's trace digest
  // must catch it. Serial runs have no pool and are unaffected.
  bool stale_sense_flag = false;

  // Hybrid NodeSet only (machines > 64 nodes): when clearing the last
  // spill-array member shrinks a sharer set back to its inline
  // representation, the shrink also drops the highest surviving inline
  // member — a lost sharer, so a later invalidation round skips that node
  // and leaves a stale ReadOnly copy the oracle's data-value/single-writer
  // invariants must flag. Machines of <= 64 nodes never spill and are
  // unaffected.
  bool drop_spill_sharer = false;

  // ccached only: the home's merge discards the first (word, delta) entry of
  // every CcFlush it applies — a lost commutative update. The merged image
  // diverges from the oracle's committed shadow (final_sweep) and from every
  // other protocol's result (differential fuzzer).
  bool drop_merge_entry = false;

  // ccached only: the home applies each CcFlush log twice — the classic
  // non-idempotent replay bug for logged updates. Every flushed delta lands
  // doubled, caught the same two ways as drop_merge_entry.
  bool double_apply_on_replay = false;
};

// Mutable process-wide hooks; initialized once from PRESTO_TEST_BUG
// ("skip-invalidate", "drop-presend-data" or "delay-window-flush",
// comma-separable).
BugHooks& bug_hooks();

// Maps a bug name to the corresponding flag; aborts on unknown names.
void set_bug_hook(const char* name, bool on);

// Plants one bug for a scope (teeth tests).
class ScopedBugHook {
 public:
  explicit ScopedBugHook(const char* name) : name_(name) {
    set_bug_hook(name, true);
  }
  ~ScopedBugHook() { set_bug_hook(name_, false); }
  ScopedBugHook(const ScopedBugHook&) = delete;
  ScopedBugHook& operator=(const ScopedBugHook&) = delete;

 private:
  const char* name_;
};

}  // namespace presto::check
