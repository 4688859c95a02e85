// Top-level simulated machine: engine + network + global space + coherence
// protocol + barrier manager, with an SPMD launcher.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "check/oracle.h"
#include "mem/global_space.h"
#include "net/network.h"
#include "proto/predictive.h"
#include "proto/stache.h"
#include "runtime/barrier.h"
#include "runtime/machine.h"
#include "runtime/node_ctx.h"
#include "sim/engine.h"
#include "stats/recorder.h"
#include "stats/report.h"
#include "trace/tracer.h"

namespace presto::runtime {

class System {
 public:
  System(const MachineConfig& cfg, ProtocolKind kind);
  ~System();

  System(const System&) = delete;
  System& operator=(const System&) = delete;

  const MachineConfig& config() const { return cfg_; }
  ProtocolKind kind() const { return kind_; }
  sim::Engine& engine() { return engine_; }
  net::Network& network() { return *net_; }
  mem::GlobalSpace& space() { return *space_; }
  stats::Recorder& recorder() { return rec_; }
  BarrierManager& barrier_manager() { return *barrier_; }
  proto::Protocol& protocol() { return *protocol_; }

  // Null unless a predictive protocol kind is active.
  proto::PredictiveProtocol* predictive();

  // Attaches the coherence invariant oracle (check/oracle.h), below an
  // attached tracer. Attached automatically at construction when
  // check::oracle_enabled_by_default() — PRESTO_ORACLE=1/0 overrides the
  // build-type default (on without NDEBUG, off otherwise). Observation is
  // pure, so simulated results are bit-identical either way. Calling again
  // replaces the oracle (the fuzzer attaches one with FailMode::kRecord).
  check::Oracle& enable_oracle(check::FailMode fail);
  check::Oracle* oracle() { return oracle_.get(); }

  // Attaches the event tracer (trace/tracer.h). Attached automatically at
  // construction when cfg.trace.enabled (the --trace CLI flag). The tracer
  // observes first and forwards the oracle's five hooks to it (attached in
  // Debug builds), so both observe the same run. At the end of run() the
  // trace is written to cfg.trace.path as given: ".json" → Perfetto
  // trace_event JSON, anything else → the binary format (trace/file.h).
  // Callers running several Systems name each run's file with
  // TraceConfig::for_run.
  trace::Tracer& enable_trace(const trace::TraceConfig& tcfg);
  trace::Tracer* tracer() { return tracer_.get(); }

  // Runs `body` on every node to completion; callable once per System.
  void run(const std::function<void(NodeCtx&)>& body);

  sim::Time exec_time() const { return exec_time_; }
  stats::Report report(std::string label) const;

 private:
  // Makes the run's one observer (trace/hooks.h) the tracer, chained to
  // the oracle, or else the oracle, and hands it to the engine and the
  // space.
  void attach_observer();
  void write_trace();

  MachineConfig cfg_;
  ProtocolKind kind_;
  stats::Recorder rec_;
  sim::Engine engine_;
  std::unique_ptr<net::Network> net_;
  std::unique_ptr<mem::GlobalSpace> space_;
  std::unique_ptr<proto::Protocol> protocol_;
  std::unique_ptr<check::Oracle> oracle_;
  std::unique_ptr<trace::Tracer> tracer_;
  std::unique_ptr<BarrierManager> barrier_;
  std::vector<std::unique_ptr<NodeCtx>> ctxs_;
  sim::Time exec_time_ = 0;
  bool ran_ = false;
};

}  // namespace presto::runtime
