// Trace event schema (binary format v1, docs/observability.md).
//
// One fixed 32-byte POD per event, written to the file verbatim — every
// field is explicitly sized and ordered so the struct has no padding holes,
// which makes the FNV digest of the canonical stream (and the golden-trace
// pins built on it) a function of simulated behaviour alone, not of compiler
// layout.
//
// `seq` is a global monotone sequence number stamped at record time. Exactly
// one execution context runs at any moment (sim/engine.h), so the sequence
// is a deterministic total order of trace events — the canonical stream is
// simply all per-node buffers merged by seq. The windowed engine stamps seq
// at window boundaries instead, so its stream is byte-identical on the
// serial and parallel backends (tests/parallel_equivalence_test.cc).
#pragma once

#include <cstdint>
#include <type_traits>

#include "trace/config.h"

namespace presto::trace {

enum class EventKind : std::uint16_t {
  kPhaseBegin = 0,   // node entered phase(arg=phase id); t = directive start
  kPhaseReady,       // presend + barrier done, compute begins
  kPhaseFlush,       // flush_phase directive
  kBarrierArrive,    // block = epoch
  kBarrierRelease,   // block = epoch
  kLockAcquire,      // block = lock block id; t = first attempt
  kLockAcquired,     // arg = 1 when the acquisition was contended
  kLockRelease,
  kMissStart,        // aux = MissClass | (is_write << 8); t matches the
                     //   remote_wait window start in the protocol exactly
  kMissEnd,          // arg = min(latency, u32max) for convenience
  kMsgSend,          // node=src, peer=dst, aux=MsgType, arg=wire bytes
  kMsgRecv,          // node=dst, peer=src; t = FIFO-clamped arrival
  kMsgDispatch,      // t = handler occupancy start (queue wait ended)
  kInstall,          // block copy/permission landed; peer = installed tag
  kPresendInstall,   // BulkData run installed; arg = run length, peer = src
  kPresendHit,       // present block consumed without a fault
  kPresendWaste,     // presend overwritten, re-faulted, or never used
  kCtxBlock,         // processor parked in block()
  kCtxResume,        // block() returned; t = resumed clock
  kKindCount,
};

inline constexpr std::size_t kNumEventKinds =
    static_cast<std::size_t>(EventKind::kKindCount);

// Miss classification recorded in kMissStart's aux low byte.
enum class MissClass : std::uint8_t {
  kCold = 0,          // node never held a valid copy of the block
  kInvalidation = 1,  // held one and lost it (includes upgrades)
  kPresendWaste = 2,  // lost a *presend-installed* copy — the schedule paid
                      //   for this block and the miss happened anyway
  kMerge = 3,         // miss on a commutative (set_commutative) block:
                      //   ccached flush round trips and, under other
                      //   protocols, the reduction traffic ccached replaces
};
inline constexpr std::size_t kNumMissClasses = 4;
inline constexpr std::uint16_t kMissWriteBit = 1u << 8;

struct Event {
  std::uint64_t t = 0;      // simulated ns
  std::uint64_t block = 0;  // block id / epoch / phase-free scalar
  std::uint32_t seq = 0;    // global record order (canonical total order)
  std::uint32_t arg = 0;    // kind-specific (bytes, run length, latency)
  std::uint16_t kind = 0;   // EventKind
  std::int16_t node = -1;   // primary node (dst for recv/dispatch)
  std::int16_t peer = -1;   // src/dst counterpart, or installed tag
  std::uint16_t aux = 0;    // kind-specific (MsgType, MissClass|write bit)
};
static_assert(sizeof(Event) == 32 && std::is_trivially_copyable_v<Event>,
              "Event is the on-disk record; layout is part of format v1");

const char* event_kind_name(EventKind k);
Category event_kind_category(EventKind k);
const char* miss_class_name(MissClass c);

}  // namespace presto::trace
