// Compact versioned binary trace format + readers/writers.
//
// Layout (format v1, little-endian host order — traces are a same-machine
// analysis artifact):
//
//   u32        magic    "PTRC" (0x43525450)
//   TraceMeta  fixed 112-byte POD header (version, machine + cost model)
//   u64        event count
//   Event[n]   32-byte records in canonical (seq) order
//   u64        FNV-1a hash of the event bytes (integrity footer)
//
// The reader never trusts the file: truncation, bit flips, version skew and
// impossible field values all fail cleanly with a diagnostic string — never
// a crash (tests/trace_io_test.cc feeds it adversarial bytes under ASan).
//
// write_perfetto() emits the same stream as Chrome trace_event JSON that
// loads directly in ui.perfetto.dev (docs/observability.md has the how-to).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace/event.h"

namespace presto::trace {

inline constexpr std::uint32_t kTraceMagic = 0x43525450u;  // "PTRC"
inline constexpr std::uint32_t kTraceVersion = 1;

struct TraceMeta {
  std::uint32_t version = kTraceVersion;
  std::uint32_t nodes = 0;
  std::uint32_t block_size = 0;
  std::uint32_t categories = 0;
  char protocol[24] = {};
  // Cost model captured at record time — what the reader-side latency
  // attribution decomposes miss windows with (trace/analysis.h).
  std::int64_t cost_fault = 0;
  std::int64_t cost_handler = 0;
  std::int64_t cost_presend_per_block = 0;
  std::int64_t header_bytes = 0;
  std::int64_t net_wire_latency = 0;
  std::int64_t net_per_byte = 0;
  std::int64_t net_self_latency = 0;
  std::int64_t exec_time = 0;
  std::uint64_t dropped = 0;
};
static_assert(sizeof(TraceMeta) == 112,
              "TraceMeta is the on-disk header; layout is part of format v1");

struct TraceData {
  TraceMeta meta;
  std::vector<Event> events;  // canonical seq order
};

std::uint64_t fnv1a64(std::uint64_t h, const void* p, std::size_t n);
inline constexpr std::uint64_t kFnvBasis = 1469598103934665603ULL;

// Serialization is deterministic: equal TraceData gives equal bytes (the
// round-trip identity tests depend on this).
std::vector<std::byte> serialize(const TraceData& t);
bool write_file(const TraceData& t, const std::string& path,
                std::string* err);

// Validating readers; on failure *err describes the first problem found.
bool parse(const std::byte* data, std::size_t n, TraceData* out,
           std::string* err);
bool read_file(const std::string& path, TraceData* out, std::string* err);

// Chrome/Perfetto trace_event JSON (open in ui.perfetto.dev).
bool write_perfetto(const TraceData& t, const std::string& path,
                    std::string* err);

}  // namespace presto::trace
