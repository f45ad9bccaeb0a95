#include "graphlab/rpc/termination.h"

#include "graphlab/util/logging.h"

namespace graphlab {
namespace rpc {

TerminationDetector::TerminationDetector(CommLayer* comm) : comm_(comm) {
  size_t n = comm->num_machines();
  state_fns_.resize(n);
  latest_.resize(n);
  done_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    done_.push_back(std::make_unique<std::atomic<bool>>(false));
  }
  // Coordinator report handler (machine 0 only).
  handler_scopes_.push_back(comm_->RegisterHandler(
      0, kTerminationReport,
      [this](MachineId src, InArchive& ia) { OnReport(src, ia); }));
  // Verdict and epoch-sync handlers on every machine.
  for (MachineId m = 0; m < n; ++m) {
    handler_scopes_.push_back(comm_->RegisterHandler(
        m, kTerminationVerdict, [this, m](MachineId, InArchive& ia) {
          uint32_t epoch = ia.ReadValue<uint32_t>();
          if (epoch == epoch_.load(std::memory_order_acquire)) {
            done_[m]->store(true, std::memory_order_release);
          }
        }));
    // NewRun() runs on the coordinator's detector instance only; with
    // per-machine instances (TCP deployments) the other machines learn
    // the new epoch — and reset their done flag — from this broadcast.
    // The engines' "barrier; NewRun(); barrier" pattern makes delivery
    // safe: the epoch frame is sent before the coordinator enters the
    // second barrier, so per-channel FIFO delivers it before the
    // barrier release on every machine.
    handler_scopes_.push_back(comm_->RegisterHandler(
        m, kTerminationEpoch, [this, m](MachineId, InArchive& ia) {
          uint32_t epoch = ia.ReadValue<uint32_t>();
          uint32_t current = epoch_.load(std::memory_order_acquire);
          while (epoch > current &&
                 !epoch_.compare_exchange_weak(current, epoch,
                                               std::memory_order_acq_rel)) {
          }
          if (epoch >= epoch_.load(std::memory_order_acquire)) {
            done_[m]->store(false, std::memory_order_release);
          }
        }));
  }
  // A machine death can complete a round that was waiting for the dead
  // machine's report (the consensus then covers survivors only — the
  // engines' abort path handles semantic cleanup).
  membership_subscription_ = comm_->membership().Subscribe(
      [this](MachineId, uint64_t) {
        std::lock_guard<std::mutex> lock(master_mutex_);
        Evaluate();
      });
}

void TerminationDetector::SetStateFn(MachineId m, StateFn fn) {
  GL_CHECK_LT(m, state_fns_.size());
  state_fns_[m] = std::move(fn);
}

void TerminationDetector::NewRun() {
  uint32_t epoch;
  {
    std::lock_guard<std::mutex> lock(master_mutex_);
    epoch = epoch_.fetch_add(1, std::memory_order_acq_rel) + 1;
    for (auto& r : latest_) r = Report{};
    have_candidate_ = false;
    rounds_since_candidate_ = 0;
    verdict_sent_ = false;
    for (auto& d : done_) d->store(false, std::memory_order_release);
  }
  // Tell every machine's detector instance (see constructor comment).
  for (MachineId dst = 0; dst < comm_->num_machines(); ++dst) {
    OutArchive oa;
    oa << epoch;
    comm_->Send(/*src=*/0, dst, kTerminationEpoch, std::move(oa));
  }
}

void TerminationDetector::Poll(MachineId m) {
  GL_CHECK_LT(m, state_fns_.size());
  if (Done(m)) return;
  GL_CHECK(state_fns_[m]) << "no state fn for machine " << m;
  LocalState state = state_fns_[m]();
  // Only idle machines report; a busy machine's silence blocks the verdict
  // because the coordinator requires fresh idle reports from everyone.
  if (!state.idle) return;
  OutArchive oa;
  oa << epoch_.load(std::memory_order_acquire) << uint8_t{1}
     << state.tasks_sent << state.tasks_received;
  comm_->Send(m, /*dst=*/0, kTerminationReport, std::move(oa));
}

void TerminationDetector::OnReport(MachineId src, InArchive& payload) {
  Report r;
  r.epoch = payload.ReadValue<uint32_t>();
  r.idle = payload.ReadValue<uint8_t>();
  r.sent = payload.ReadValue<uint64_t>();
  r.received = payload.ReadValue<uint64_t>();

  std::lock_guard<std::mutex> lock(master_mutex_);
  if (r.epoch != epoch_.load(std::memory_order_acquire) || verdict_sent_) {
    return;
  }
  latest_[src] = r;
  Evaluate();
}

void TerminationDetector::Evaluate() {
  uint32_t epoch = epoch_.load(std::memory_order_acquire);
  if (verdict_sent_) return;
  uint64_t total_sent = 0, total_received = 0;
  for (MachineId m = 0; m < latest_.size(); ++m) {
    // Dead machines neither report nor count: the consensus covers the
    // live membership (task messages in flight to a dead machine keep
    // sent != received, so no false verdict; the engines' abort path is
    // what ends such a run).
    if (!comm_->membership().alive(m)) continue;
    const Report& r = latest_[m];
    // An incomplete round (a machine has not re-reported since the last
    // invalidation) is simply inconclusive — keep any candidate.
    if (r.epoch != epoch || !r.idle) return;
    total_sent += r.sent;
    total_received += r.received;
  }
  if (total_sent != total_received) {
    // Task messages in flight: this round proves nothing; any candidate is
    // stale because counts will move again.
    have_candidate_ = false;
    for (auto& r : latest_) r.epoch = 0;
    return;
  }
  if (!have_candidate_ || candidate_sent_ != total_sent ||
      candidate_received_ != total_received) {
    // First stable observation; require confirmation with fresh reports.
    have_candidate_ = true;
    candidate_sent_ = total_sent;
    candidate_received_ = total_received;
    rounds_since_candidate_ = 0;
    // Invalidate current reports so the confirmation uses new ones.
    for (auto& r : latest_) r.epoch = 0;
    return;
  }
  // Confirmed: same counts over two complete rounds of fresh idle reports.
  verdict_sent_ = true;
  for (MachineId dst = 0; dst < comm_->num_machines(); ++dst) {
    OutArchive oa;
    oa << epoch;
    comm_->Send(/*src=*/0, dst, kTerminationVerdict, std::move(oa));
  }
}

bool TerminationDetector::Done(MachineId m) const {
  GL_CHECK_LT(m, done_.size());
  return done_[m]->load(std::memory_order_acquire);
}

}  // namespace rpc
}  // namespace graphlab
