// Copyright 2026 The Distributed GraphLab Reproduction Authors.
//
// Distributed termination detection for the asynchronous locking engine.
//
// The paper (Sec. 4.2.2, 4.4) detects that "all schedulers are empty" with
// the distributed consensus algorithm of Misra [26].  We implement the
// counting variant: every machine periodically reports
//     (idle?, #task-messages sent, #task-messages received)
// to a coordinator (machine 0).  Computation has terminated when, over two
// consecutive complete report rounds, every machine is idle and the global
// sent count equals the global received count with no change between the
// rounds — which proves no task message was in flight.  The coordinator
// then broadcasts a verdict that each machine observes locally.
//
// All coordination is via RPC messages; machines only touch their own slot.

#ifndef GRAPHLAB_RPC_TERMINATION_H_
#define GRAPHLAB_RPC_TERMINATION_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "graphlab/rpc/comm_layer.h"

namespace graphlab {
namespace rpc {

/// Cluster-wide termination detector (one instance per cluster; machines
/// interact with their own slot only).
class TerminationDetector {
 public:
  /// Snapshot of one machine's progress, supplied by the engine.
  struct LocalState {
    /// True when the machine's scheduler, lock pipeline and worker threads
    /// have no work.
    bool idle = false;
    /// Count of task (scheduling) messages this machine has sent / received.
    uint64_t tasks_sent = 0;
    uint64_t tasks_received = 0;
  };

  using StateFn = std::function<LocalState()>;

  explicit TerminationDetector(CommLayer* comm);

  /// Installs machine m's state provider.  Call before the run starts.
  void SetStateFn(MachineId m, StateFn fn);

  /// Starts a new detection epoch; stale messages from earlier runs are
  /// discarded.  Call once (from any single thread) before each engine run.
  void NewRun();

  /// Machine m's engine coordinator calls this periodically (a few hundred
  /// Hz is plenty).  Sends a report when m currently looks idle.
  void Poll(MachineId m);

  /// True once machine m has received the termination verdict.
  bool Done(MachineId m) const;

 private:
  struct Report {
    uint32_t epoch = 0;
    uint8_t idle = 0;
    uint64_t sent = 0;
    uint64_t received = 0;
  };

  void OnReport(MachineId src, InArchive& payload);
  void Evaluate();  // coordinator, holding master_mutex_

  CommLayer* comm_;
  std::vector<StateFn> state_fns_;
  std::vector<std::unique_ptr<std::atomic<bool>>> done_;
  std::atomic<uint32_t> epoch_{0};

  // Coordinator state (machine 0 only).
  std::mutex master_mutex_;
  std::vector<Report> latest_;
  bool have_candidate_ = false;
  uint64_t candidate_sent_ = 0;
  uint64_t candidate_received_ = 0;
  uint64_t rounds_since_candidate_ = 0;
  bool verdict_sent_ = false;

  std::vector<HandlerScope> handler_scopes_;
  Subscription membership_subscription_;
};

}  // namespace rpc
}  // namespace graphlab

#endif  // GRAPHLAB_RPC_TERMINATION_H_
