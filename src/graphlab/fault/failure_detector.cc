#include "graphlab/fault/failure_detector.h"

#include <chrono>

#include "graphlab/metrics/trace_event.h"
#include "graphlab/util/logging.h"

namespace graphlab {
namespace fault {

FailureDetector::FailureDetector(rpc::CommLayer* comm, rpc::MachineId me,
                                 const FtOptions& options)
    : comm_(comm), me_(me) {
  GL_CHECK_GT(options.heartbeat_interval_ms, 0u);
  comm_->EnableHeartbeats(
      std::chrono::milliseconds(options.heartbeat_interval_ms),
      std::chrono::milliseconds(options.heartbeat_timeout_ms));
  membership_subscription_ = comm_->membership().Subscribe(
      [this](rpc::MachineId down, uint64_t) {
        GL_TRACE_INSTANT1(trace::kFault, "fault.peer_down", "machine", down);
        deaths_.fetch_add(1, std::memory_order_acq_rel);
        PeerDownFn fn;
        {
          std::lock_guard<std::mutex> lock(listener_mutex_);
          fn = listener_;
        }
        if (fn) fn(down);
      });
}

void FailureDetector::SetPeerDownListener(PeerDownFn fn) {
  std::lock_guard<std::mutex> lock(listener_mutex_);
  listener_ = std::move(fn);
}

Status FailureDetector::CheckSelf() const {
  if (self_down()) {
    return Status::Aborted("machine " + std::to_string(me_) + " died");
  }
  return Status::OK();
}

}  // namespace fault
}  // namespace graphlab
