// Copyright 2026 The Distributed GraphLab Reproduction Authors.
//
// InProcessTransport: the simulated cluster interconnect.
//
// Design (see DESIGN.md §1):
//  * Each machine has one inbox (a TimedQueue) and one dispatch thread
//    that pops deliverable messages and hands them to the delivery sink,
//    exactly like an RPC receive thread.
//  * Send() charges the byte accounting and enqueues the message with
//    deliver_at = now + link latency.  With a constant latency the inbox
//    is FIFO per sender, matching TCP ordering.
//  * Handlers run on the destination's dispatch thread and may themselves
//    Send() (used by the pipelined lock chains of Sec. 4.2.2).
//  * InjectStall(m, d) freezes machine m's dispatch for d — the mechanism
//    used to reproduce the paper's simulated 15 s machine fault (Fig. 4b).
//  * Channels are flushed by the runtime's flush round (rpc/flush_round.h),
//    which needs only the per-sender FIFO order above.  The simulated
//    machines share one process clock, so ClockOffsetNs and SyncClocks
//    keep the ITransport defaults (0 and nothing).

#ifndef GRAPHLAB_RPC_INPROC_TRANSPORT_H_
#define GRAPHLAB_RPC_INPROC_TRANSPORT_H_

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "graphlab/rpc/transport.h"
#include "graphlab/util/blocking_queue.h"

namespace graphlab {
namespace rpc {

class InProcessTransport final : public ITransport {
 public:
  InProcessTransport(size_t num_machines, CommOptions options);
  ~InProcessTransport() override;

  InProcessTransport(const InProcessTransport&) = delete;
  InProcessTransport& operator=(const InProcessTransport&) = delete;

  const char* name() const override { return "inproc"; }
  TransportKind kind() const override { return TransportKind::kInProcess; }
  size_t num_machines() const override { return num_machines_; }
  bool IsLocal(MachineId m) const override { return m < num_machines_; }
  const CommOptions& options() const { return options_; }

  void SetDeliverySink(DeliverySink sink) override;
  void Start() override;
  void Stop() override;
  void Send(MachineId src, MachineId dst, HandlerId handler,
            OutArchive payload) override;

  void InjectStall(MachineId machine,
                   std::chrono::nanoseconds duration) override;
  bool StallActive(MachineId machine) const override;

  // Failure surface.  Death in the simulated interconnect is always
  // injected (there is no wire to fail): InjectKill / MarkPeerDown stop a
  // machine's inbox from delivering and drop its traffic.
  void SetPeerDownListener(PeerDownCallback cb) override;
  void MarkPeerDown(MachineId peer) override;
  bool IsPeerDown(MachineId peer) const override;
  void EnableHeartbeats(std::chrono::milliseconds interval,
                        std::chrono::milliseconds timeout) override;
  void InjectKill(MachineId m) override;
  CommStats GetStats(MachineId machine) const override;
  std::vector<PeerCommStats> GetPeerStats(MachineId machine) const override;
  void ResetStats() override;
  metrics::MetricsRegistry& registry(MachineId m) override;

 private:
  struct MachineState;

  void DispatchLoop(MachineId machine);

  size_t num_machines_;
  CommOptions options_;
  DeliverySink sink_;
  std::vector<std::unique_ptr<MachineState>> machines_;
  std::atomic<bool> started_{false};

  // Failure state: one down flag per machine.
  std::vector<std::unique_ptr<std::atomic<bool>>> down_;
  std::mutex peer_down_mutex_;
  PeerDownCallback peer_down_;
};

}  // namespace rpc
}  // namespace graphlab

#endif  // GRAPHLAB_RPC_INPROC_TRANSPORT_H_
