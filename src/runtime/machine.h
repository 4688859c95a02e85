// Machine cost models.
//
// cm5_blizzard() reproduces the paper's platform: a 32-node Thinking
// Machines CM-5 running the Blizzard software fine-grain DSM, where the
// average remote shared-data miss costs on the order of 200 microseconds
// (paper §5.4): software fault vectoring + request message + home handler
// (+ recall round trip for dirty data) + data message + install handler.
// hw_dsm() models a hardware-assisted DSM (low-latency regime) for the
// §5.4 trade-off discussion.
#pragma once

#include <cstdint>

#include "mem/global_space.h"
#include "net/network.h"
#include "proto/protocol.h"
#include "sim/fiber.h"
#include "sim/time.h"
#include "trace/config.h"

namespace presto::runtime {

struct MachineConfig {
  int nodes = 32;
  mem::MemConfig mem;
  net::NetConfig net;
  proto::ProtoCosts costs;
  // Two-level cluster directory for Stache/predictive (proto/stache.h):
  // directory sharer sets track clusters of this many consecutive nodes;
  // invalidations conservatively fan out to whole clusters. 0 (default)
  // keeps exact node-grain sets — required for bit-identity with every
  // pinned golden result. Ignored by write-update (its reader sets drive
  // data pushes, which must stay exact).
  int cluster_nodes = 0;

  sim::Time access_check = 60;  // software fine-grain tag check per access
  sim::Time flop = 30;          // one floating-point op (~33 MHz + FPU)
  sim::Time op = 15;            // one integer/addressing op
  sim::Time barrier_latency = sim::microseconds(5);  // CM-5 control network
  sim::Time reduce_per_byte = 50;                    // control-network combine
  std::uint64_t seed = 0x5EEDF00DULL;
  // Host-side backend (lanes drained on one thread, or on a worker pool);
  // only host speed differs across backends.
  sim::Backend backend = sim::default_backend();
  // Window width of the conservative-window engine (sim/engine.h) every
  // System runs on: 0 (the default) derives it from the network's minimum
  // latency (net::Network::min_latency); a positive width is clamped to
  // that. Results are bit-identical across backends and worker counts for a
  // given width.
  sim::Time window = 0;
  // Worker threads draining lanes under backend kParallel. 0 = the
  // PRESTO_WORKERS environment variable, falling back to
  // min(nodes, hardware_concurrency); ignored by other backends.
  int workers = 0;
  // Event tracing (trace/tracer.h); disabled by default. Observation is
  // pure, so simulated results are bit-identical with tracing on or off.
  trace::TraceConfig trace;

  static MachineConfig cm5_blizzard(int nodes = 32,
                                    std::uint32_t block_size = 32) {
    MachineConfig m;
    m.nodes = nodes;
    m.mem.block_size = block_size;
    m.mem.page_size = 4096;
    m.net.wire_latency = sim::microseconds(30);
    m.net.per_byte = 100;  // ~10 MB/s effective software messaging
    m.net.self_latency = sim::microseconds(5);
    m.costs.fault = sim::microseconds(10);
    m.costs.handler = sim::microseconds(15);
    m.costs.presend_per_block = sim::microseconds(1);
    return m;
  }

  // Hardware-assisted DSM: microsecond-scale messaging, hardware access
  // checks and handlers (§5.4's "tradeoff is likely to be different").
  static MachineConfig hw_dsm(int nodes = 32, std::uint32_t block_size = 64) {
    MachineConfig m;
    m.nodes = nodes;
    m.mem.block_size = block_size;
    m.mem.page_size = 4096;
    m.net.wire_latency = sim::microseconds(1);
    m.net.per_byte = 10;  // ~100 MB/s
    m.net.self_latency = nanoseconds_(200);
    m.costs.fault = nanoseconds_(500);
    m.costs.handler = nanoseconds_(500);
    m.costs.presend_per_block = nanoseconds_(200);
    m.access_check = 5;
    m.barrier_latency = sim::microseconds(1);
    return m;
  }

 private:
  static constexpr sim::Time nanoseconds_(std::int64_t n) { return n; }
};

enum class ProtocolKind {
  kStache,                 // unoptimized C** versions
  kPredictive,             // compiler-directed predictive protocol
  kPredictiveAnticipate,   // + conflict anticipation extension (§3.4)
  kWriteUpdate,            // hand-optimized SPMD baseline [5]
  kCCached,                // commutative-update (reduction) protocol
};

const char* protocol_kind_name(ProtocolKind k);

// Protocol registry: every kind, in canonical sweep order. Benches and CLIs
// iterate this instead of keeping their own arrays, so a new protocol shows
// up in every sweep without per-tool edits.
inline constexpr ProtocolKind kAllProtocolKinds[] = {
    ProtocolKind::kStache,
    ProtocolKind::kPredictive,
    ProtocolKind::kPredictiveAnticipate,
    ProtocolKind::kWriteUpdate,
    ProtocolKind::kCCached,
};
inline constexpr int kNumProtocolKinds =
    static_cast<int>(sizeof(kAllProtocolKinds) / sizeof(kAllProtocolKinds[0]));

// Parses a name as printed by protocol_kind_name; false on unknown names.
bool protocol_kind_from_name(const char* name, ProtocolKind* out);

}  // namespace presto::runtime
