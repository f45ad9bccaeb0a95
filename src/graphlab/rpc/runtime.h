// Copyright 2026 The Distributed GraphLab Reproduction Authors.
//
// Runtime: owns one machine's (or, in simulation, a whole cluster's) view
// of the message fabric — CommLayer + barrier + termination detector +
// per-machine metrics — and executes SPMD programs on it, mirroring the
// paper's symmetric process design (Sec. 4.4: "one instance of the
// GraphLab program is executed on each machine").
//
// Three deployment shapes behind one surface:
//
//  * Simulated (TransportKind::kInProcess): every machine lives in this
//    process and shares one CommLayer; Run() spawns one program thread
//    per machine.  This is the figure-bench configuration.
//
//  * TCP loopback cluster (kTcp + tcp_loopback_cluster): every machine
//    still lives in this process, but each gets its OWN CommLayer over a
//    real localhost socket mesh with ephemeral ports — the hermetic
//    harness the transport-parameterized tests run on.
//
//  * TCP multi-process (kTcp): this process hosts exactly machine
//    `tcp.me`; peers are separate processes at `tcp.endpoints`.  Run()
//    executes the program once, for the local machine.
//
// Components that coordinate through their own message slots (Barrier,
// FlushRound, TerminationDetector, SumAllReduce, SyncManager) are
// instantiated per CommLayer; handler registrations for machines a fabric
// does not host return empty scopes (rpc/comm_layer.h), so the same
// component code serves all three shapes.  The Runtime owns each
// fabric's barrier, flush round and termination detector, registered
// before its transport starts, so no program needs a fence before its
// first round.

#ifndef GRAPHLAB_RPC_RUNTIME_H_
#define GRAPHLAB_RPC_RUNTIME_H_

#include <functional>
#include <memory>
#include <vector>

#include "graphlab/metrics/metrics.h"
#include "graphlab/rpc/barrier.h"
#include "graphlab/rpc/comm_layer.h"
#include "graphlab/rpc/flush_round.h"
#include "graphlab/rpc/termination.h"
#include "graphlab/rpc/transport.h"

namespace graphlab {
namespace rpc {

/// Cluster-level configuration.
struct ClusterOptions {
  /// Number of machines in the cluster (across all processes).
  size_t num_machines = 4;
  /// Engine worker threads per machine (the paper uses 8 per EC2 node; the
  /// default here keeps total thread count laptop-friendly).
  size_t threads_per_machine = 2;
  /// Interconnect backend selection.
  TransportKind transport = TransportKind::kInProcess;
  /// Simulated-interconnect parameters (kInProcess).
  CommOptions comm;
  /// TCP backend parameters (kTcp).  For the multi-process shape,
  /// `tcp.endpoints` must list all machines and `tcp.me` names this
  /// process's machine.
  TcpOptions tcp;
  /// With kTcp: host every machine in this process over a loopback
  /// socket mesh on ephemeral ports (ignores tcp.me / tcp.endpoints).
  bool tcp_loopback_cluster = false;
};

class Runtime;

/// Handle given to each machine's program thread.
struct MachineContext {
  MachineId id = 0;
  Runtime* runtime = nullptr;

  size_t num_machines() const;
  CommLayer& comm() const;
  Barrier& barrier() const;
  FlushRound& flush() const;
  TerminationDetector& termination() const;
  metrics::MetricsRegistry& metrics() const;
  const ClusterOptions& options() const;
};

/// One process's membership in a cluster plus the machinery to run SPMD
/// programs on it.
class Runtime {
 public:
  explicit Runtime(ClusterOptions options);
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Runs `program` once on every locally hosted machine (one thread per
  /// machine) and joins.  May be called repeatedly; the fabric persists
  /// across runs.
  void Run(const std::function<void(MachineContext&)>& program);

  const ClusterOptions& options() const { return options_; }
  size_t num_machines() const { return options_.num_machines; }
  TransportKind transport() const { return options_.transport; }

  /// Machines hosted by this process.
  const std::vector<MachineId>& local_machines() const {
    return local_machines_;
  }

  /// Per-machine fabric accessors; valid for any locally hosted machine.
  CommLayer& comm(MachineId m) { return *comms_[FabricIndex(m)]; }
  Barrier& barrier(MachineId m) { return *barriers_[FabricIndex(m)]; }
  FlushRound& flush(MachineId m) { return *flushes_[FabricIndex(m)]; }
  TerminationDetector& termination(MachineId m) {
    return *terminations_[FabricIndex(m)];
  }
  /// The per-machine metrics namespace, owned by the machine's transport
  /// (one registry per hosted machine; see rpc/transport.h).
  metrics::MetricsRegistry& metrics(MachineId m) {
    return comms_[FabricIndex(m)]->registry(m);
  }

  /// Legacy shared-fabric accessors (simulated transport, where one
  /// CommLayer serves the whole cluster).
  CommLayer& comm();
  Barrier& barrier();
  TerminationDetector& termination();

 private:
  enum class Mode { kSharedFabric, kLoopbackCluster, kMultiProcess };

  size_t FabricIndex(MachineId m) const;

  ClusterOptions options_;
  Mode mode_ = Mode::kSharedFabric;
  std::vector<std::unique_ptr<CommLayer>> comms_;
  std::vector<std::unique_ptr<Barrier>> barriers_;
  std::vector<std::unique_ptr<FlushRound>> flushes_;
  std::vector<std::unique_ptr<TerminationDetector>> terminations_;
  std::vector<MachineId> local_machines_;
};

}  // namespace rpc
}  // namespace graphlab

#endif  // GRAPHLAB_RPC_RUNTIME_H_
