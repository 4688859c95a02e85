#include "runtime/node_ctx.h"

namespace presto::runtime {

NodeCtx::NodeCtx(int id, const MachineConfig& cfg, sim::Processor& proc,
                 mem::GlobalSpace& space, stats::Recorder& rec,
                 BarrierManager& barrier, proto::Protocol& protocol)
    : id_(id),
      cfg_(cfg),
      proc_(proc),
      space_(space),
      rec_(rec),
      barrier_(barrier),
      protocol_(protocol),
      rng_(cfg.seed ^ (0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(id + 1))) {}

}  // namespace presto::runtime
