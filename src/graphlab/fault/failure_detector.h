// Copyright 2026 The Distributed GraphLab Reproduction Authors.
//
// FailureDetector: the policy half of failure detection.
//
// Mechanism lives in the transports (rpc/transport.h): TCP pings every
// connected peer at an interval and stamps per-peer last-heard times; a
// missed deadline, a send error, or receive-side EOF marks the peer down,
// which surfaces through CommLayer as a Membership transition.  This
// class owns the policy: it arms those heartbeats with the configured
// cadence, converts membership transitions into PeerDown events for its
// subscriber, and answers the two questions the recovery path asks —
// "who is alive?" and "am I the one who died?" (InjectKill notifies the
// victim about itself so its program threads can wind down).
//
// One instance per machine (per CommLayer fabric).  Symmetric: every
// machine must construct one, or the silent side gets timed out by its
// peers.

#ifndef GRAPHLAB_FAULT_FAILURE_DETECTOR_H_
#define GRAPHLAB_FAULT_FAILURE_DETECTOR_H_

#include <atomic>
#include <functional>
#include <vector>

#include "graphlab/fault/options.h"
#include "graphlab/rpc/comm_layer.h"
#include "graphlab/util/status.h"

namespace graphlab {
namespace fault {

class FailureDetector {
 public:
  /// Fired once per death, on a transport thread; must not block.
  using PeerDownFn = std::function<void(rpc::MachineId peer)>;

  FailureDetector(rpc::CommLayer* comm, rpc::MachineId me,
                  const FtOptions& options);

  FailureDetector(const FailureDetector&) = delete;
  FailureDetector& operator=(const FailureDetector&) = delete;

  /// Installs the PeerDown subscriber (replaces any previous one).
  /// Self-death (InjectKill of this machine) is delivered too, with
  /// peer == me.
  void SetPeerDownListener(PeerDownFn fn);

  rpc::Membership& membership() { return comm_->membership(); }
  std::vector<rpc::MachineId> alive() const {
    return comm_->membership().alive_machines();
  }
  uint64_t membership_epoch() const { return comm_->membership().epoch(); }

  /// True once this machine itself has been declared dead (fault
  /// injection); its program thread should stop participating.
  bool self_down() const { return !comm_->membership().alive(me_); }
  /// OK while this machine is alive; Aborted("machine died") after.
  Status CheckSelf() const;

  /// Deaths observed since construction (this machine's local count).
  uint64_t deaths_observed() const {
    return deaths_.load(std::memory_order_acquire);
  }

 private:
  rpc::CommLayer* comm_;
  rpc::MachineId me_;
  std::atomic<uint64_t> deaths_{0};

  std::mutex listener_mutex_;
  PeerDownFn listener_;

  rpc::Subscription membership_subscription_;
};

}  // namespace fault
}  // namespace graphlab

#endif  // GRAPHLAB_FAULT_FAILURE_DETECTOR_H_
