#include "runtime/system.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "proto/ccached.h"
#include "proto/writeupdate.h"
#include "sim/parallel.h"
#include "trace/file.h"
#include "util/check.h"

namespace presto::runtime {

const char* protocol_kind_name(ProtocolKind k) {
  switch (k) {
    case ProtocolKind::kStache: return "stache";
    case ProtocolKind::kPredictive: return "predictive";
    case ProtocolKind::kPredictiveAnticipate: return "predictive+anticipate";
    case ProtocolKind::kWriteUpdate: return "write-update";
    case ProtocolKind::kCCached: return "ccached";
  }
  return "?";
}

bool protocol_kind_from_name(const char* name, ProtocolKind* out) {
  for (const ProtocolKind k : kAllProtocolKinds) {
    if (std::strcmp(name, protocol_kind_name(k)) == 0) {
      *out = k;
      return true;
    }
  }
  return false;
}

namespace {

// Worker count for Backend::kParallel when the config leaves it at 0:
// PRESTO_WORKERS, else min(nodes, hardware_concurrency).
int default_workers(int nodes) {
  if (const char* env = std::getenv("PRESTO_WORKERS")) {
    char* end = nullptr;
    const long w = std::strtol(env, &end, 10);
    PRESTO_CHECK(env[0] != '\0' && end != nullptr && *end == '\0' && w >= 1,
                 "PRESTO_WORKERS: expected a positive integer, got '" << env
                                                                     << "'");
    return static_cast<int>(w);
  }
  int hw = static_cast<int>(std::thread::hardware_concurrency());
  if (hw < 1) hw = 1;
  return hw < nodes ? hw : nodes;
}

}  // namespace

System::System(const MachineConfig& cfg, ProtocolKind kind)
    : cfg_(cfg), kind_(kind), rec_(cfg.nodes), engine_(cfg.backend) {
  // Every System runs windowed (conservative lookahead). The width may not
  // exceed the network's minimum cross-node latency, or staged boundary
  // flushes could land in a destination lane's past.
  const sim::Time lookahead = net::Network::min_latency(cfg.net);
  sim::Time w = cfg.window > 0 && cfg.window < lookahead ? cfg.window
                                                         : lookahead;
  if (w < 1) w = 1;
  cfg_.window = w;
  cfg_.workers = cfg.backend == sim::Backend::kParallel
                     ? (cfg.workers > 0 ? cfg.workers
                                        : default_workers(cfg.nodes))
                     : 1;
  engine_.enable_windows(w, cfg.nodes, cfg_.workers);
  net_ = std::make_unique<net::Network>(engine_, cfg.nodes, cfg.net);
  space_ = std::make_unique<mem::GlobalSpace>(cfg.nodes, cfg.mem);
  space_->set_grow_gate([this](std::function<void()> fn) {
    engine_.boundary_gate(std::move(fn));
  });
  switch (kind) {
    case ProtocolKind::kStache:
      protocol_ = std::make_unique<proto::StacheProtocol>(
          engine_, *net_, *space_, rec_, cfg.costs);
      break;
    case ProtocolKind::kPredictive:
      protocol_ = std::make_unique<proto::PredictiveProtocol>(
          engine_, *net_, *space_, rec_, cfg.costs,
          proto::ConflictPolicy::kSkip);
      break;
    case ProtocolKind::kPredictiveAnticipate:
      protocol_ = std::make_unique<proto::PredictiveProtocol>(
          engine_, *net_, *space_, rec_, cfg.costs,
          proto::ConflictPolicy::kAnticipate);
      break;
    case ProtocolKind::kWriteUpdate:
      protocol_ = std::make_unique<proto::WriteUpdateProtocol>(
          engine_, *net_, *space_, rec_, cfg.costs);
      break;
    case ProtocolKind::kCCached:
      protocol_ = std::make_unique<proto::CCachedProtocol>(
          engine_, *net_, *space_, rec_, cfg.costs);
      break;
  }
  protocol_->install();
  barrier_ = std::make_unique<BarrierManager>(
      engine_, rec_, cfg.nodes, cfg.barrier_latency, cfg.reduce_per_byte);
  protocol_->set_barrier([this](int node) { barrier_->barrier(node); });
  if (check::oracle_enabled_by_default()) enable_oracle(check::FailMode::kAbort);
  if (cfg.trace.enabled) enable_trace(cfg.trace);
}

check::Oracle& System::enable_oracle(check::FailMode fail) {
  oracle_ = std::make_unique<check::Oracle>(
      *space_, engine_, check::mode_for_protocol(protocol_->name()), fail);
  // Replay the oracle's per-lane buffers at every window boundary. Captures
  // the System (not the oracle) so a replacement oracle inherits the slot
  // without re-registration.
  engine_.set_boundary_op(sim::BoundaryOp::kOracle,
                          [this] { oracle_->replay_window(); });
  attach_observer();
  return *oracle_;
}

trace::Tracer& System::enable_trace(const trace::TraceConfig& tcfg) {
  tracer_ = std::make_unique<trace::Tracer>(tcfg, *space_, &engine_);
  attach_observer();
  return *tracer_;
}

void System::attach_observer() {
  trace::Hooks* h = oracle_.get();
  if (tracer_ != nullptr) {
    tracer_->chain(h);
    h = tracer_.get();
  }
  engine_.set_trace_hooks(h);
  space_->set_trace_hooks(h);
}

System::~System() = default;

proto::PredictiveProtocol* System::predictive() {
  return kind_ == ProtocolKind::kPredictive ||
                 kind_ == ProtocolKind::kPredictiveAnticipate
             ? static_cast<proto::PredictiveProtocol*>(protocol_.get())
             : nullptr;
}

void System::run(const std::function<void(NodeCtx&)>& body) {
  PRESTO_CHECK(!ran_, "System::run is single-shot");
  ran_ = true;
  for (int n = 0; n < cfg_.nodes; ++n) {
    auto& p = engine_.add_processor();
    ctxs_.push_back(std::make_unique<NodeCtx>(n, cfg_, p, *space_, rec_,
                                              *barrier_, *protocol_));
  }
  for (int n = 0; n < cfg_.nodes; ++n) {
    NodeCtx* ctx = ctxs_[static_cast<std::size_t>(n)].get();
    engine_.processor(n).start([this, ctx, &body] {
      body(*ctx);
      ctx->counters().finish = ctx->proc().now();
    });
  }
  const auto host_t0 = std::chrono::steady_clock::now();
  engine_.run();
  stats::HostCounters& host = rec_.host();
  host.run_wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - host_t0)
          .count();
  host.events = engine_.events_executed();
  host.handoffs = engine_.handoffs();
  host.direct_resumes = engine_.direct_resumes();
  host.backend = sim::backend_name(engine_.backend());
  host.windows = engine_.windows_run();
  host.workers = engine_.workers();
  const sim::WindowPoolStats wps = engine_.window_stats();
  host.win_barrier_wait_ns = wps.barrier_wait_ns;
  host.win_drain_ns = wps.drain_ns;
  host.win_boundary_ns = wps.boundary_ns;
  host.win_park_ns = wps.park_ns;
  host.win_parks = wps.parks;
  host.win_spin_releases = wps.spin_releases;
  host.win_releases = wps.releases;
  host.win_serial_windows = wps.serial_windows;
  host.win_adopted_drains = wps.adopted_drains;
  for (int n = 0; n < cfg_.nodes; ++n) {
    host.yields += engine_.processor(n).yield_count();
    host.blocks += engine_.processor(n).block_count();
  }
  host.metadata_bytes =
      protocol_->metadata_bytes() + net_->metadata_bytes();
  exec_time_ = rec_.max(&stats::NodeCounters::finish);
  if (oracle_ != nullptr) {
    // End-of-run quiescent checks: whole-memory agreement sweep plus the
    // directory/cache consistency audit for directory-based protocols. The
    // audit aborts on failure, so it only runs in abort mode (the fuzzer's
    // record mode must survive a buggy protocol to diff and shrink it).
    oracle_->final_sweep();
    if (oracle_->fail_mode() == check::FailMode::kAbort &&
        kind_ != ProtocolKind::kWriteUpdate)
      static_cast<proto::StacheProtocol*>(protocol_.get())->check_invariants();
  }
  if (tracer_ != nullptr) {
    tracer_->finalize(exec_time_, protocol_->name());
    if (!tracer_->config().path.empty()) write_trace();
  }
}

void System::write_trace() {
  const trace::TraceData data = tracer_->build(cfg_.costs, cfg_.net);
  const std::string& path = tracer_->config().path;
  const bool json = path.size() >= 5 &&
                    path.compare(path.size() - 5, 5, ".json") == 0;
  std::string err;
  const bool ok = json ? trace::write_perfetto(data, path, &err)
                       : trace::write_file(data, path, &err);
  if (!ok) {
    std::fprintf(stderr, "presto: trace write failed: %s\n", err.c_str());
    return;
  }
  std::fprintf(stderr,
               "presto: %s trace written to %s (%zu events, %llu dropped)\n",
               json ? "perfetto" : "binary", path.c_str(), data.events.size(),
               static_cast<unsigned long long>(data.meta.dropped));
}

stats::Report System::report(std::string label) const {
  stats::Report r;
  r.label = std::move(label);
  r.nodes = cfg_.nodes;
  r.block_size = cfg_.mem.block_size;
  r.exec = exec_time_;
  r.remote_wait =
      static_cast<sim::Time>(rec_.avg(&stats::NodeCounters::remote_wait));
  r.presend = static_cast<sim::Time>(rec_.avg(&stats::NodeCounters::presend));
  r.compute_synch = r.exec - r.remote_wait - r.presend;
  r.barrier_wait =
      static_cast<sim::Time>(rec_.avg(&stats::NodeCounters::barrier_wait));
  r.lock_wait =
      static_cast<sim::Time>(rec_.avg(&stats::NodeCounters::lock_wait));
  r.shared_accesses = rec_.sum(&stats::NodeCounters::shared_reads) +
                      rec_.sum(&stats::NodeCounters::shared_writes);
  r.faults = rec_.sum(&stats::NodeCounters::read_faults) +
             rec_.sum(&stats::NodeCounters::write_faults);
  r.local_faults = rec_.sum(&stats::NodeCounters::local_faults);
  r.local_hit_pct =
      r.shared_accesses == 0
          ? 100.0
          : 100.0 * (1.0 - static_cast<double>(r.faults) /
                               static_cast<double>(r.shared_accesses));
  r.msgs = rec_.sum(&stats::NodeCounters::msgs_sent);
  r.bytes = rec_.sum(&stats::NodeCounters::bytes_sent);
  r.presend_blocks = rec_.sum(&stats::NodeCounters::presend_blocks_sent);
  r.dir_probes = rec_.sum(&stats::NodeCounters::dir_probes);
  r.sched_lookups = rec_.sum(&stats::NodeCounters::sched_lookups);
  r.cc_flushes = rec_.sum(&stats::NodeCounters::cc_flushes);
  r.cc_entries = rec_.sum(&stats::NodeCounters::cc_flushed_entries);
  r.host = rec_.host();
  if (tracer_ != nullptr) {
    const trace::Summary& s = tracer_->summary();
    r.traced = true;
    r.trace_events = s.events;
    r.trace_dropped = s.dropped;
    r.miss_cold =
        s.miss_by_class[static_cast<std::size_t>(trace::MissClass::kCold)];
    r.miss_invalidation = s.miss_by_class[static_cast<std::size_t>(
        trace::MissClass::kInvalidation)];
    r.miss_presend_waste = s.miss_by_class[static_cast<std::size_t>(
        trace::MissClass::kPresendWaste)];
    r.miss_merge =
        s.miss_by_class[static_cast<std::size_t>(trace::MissClass::kMerge)];
    r.miss_latency_total = s.miss_latency_total;
    r.presend_hits = s.presend_hits;
    r.presend_waste = s.presend_waste;
    r.presend_unused = s.presend_unused;
  }
  return r;
}

}  // namespace presto::runtime
