#include "graphlab/rpc/allreduce.h"

#include <algorithm>

#include "graphlab/metrics/metrics.h"
#include "graphlab/util/logging.h"

namespace graphlab {
namespace rpc {

namespace {
constexpr MachineId kMaster = 0;
}  // namespace

AllReduce::AllReduce(CommLayer* comm, size_t width, HandlerId value_handler,
                     HandlerId result_handler)
    : comm_(comm),
      width_(width),
      value_handler_(value_handler),
      result_handler_(result_handler),
      ring_(kRing) {
  const size_t n = comm_->num_machines();
  slots_.reserve(n);
  for (size_t i = 0; i < n; ++i) slots_.push_back(std::make_unique<Slot>());
  handler_scopes_.push_back(comm_->RegisterHandler(
      kMaster, value_handler_,
      [this](MachineId src, InArchive& ia) { OnValue(src, ia); }));
  for (MachineId m = 0; m < n; ++m) {
    handler_scopes_.push_back(comm_->RegisterHandler(
        m, result_handler_,
        [this, m](MachineId src, InArchive& ia) { OnResult(m, src, ia); }));
  }
  // A death may complete a pending round (the dead machine was the one
  // everyone waited for): re-check against the shrunk membership.  Runs
  // on a transport thread; must not block.
  membership_subscription_ = comm_->membership().Subscribe([this](MachineId,
                                                                 uint64_t) {
    std::vector<Release> released;
    {
      std::lock_guard<std::mutex> lock(master_mutex_);
      for (uint64_t id = released_ + 1, last = released_ + kRing; id <= last;
           ++id) {
        Round& r = ring_[id % kRing];
        if (r.id == id) ReleaseIfCompleteLocked(r, &released);
      }
    }
    Broadcast(released);
  });
}

bool AllReduce::Exchange(MachineId m, const std::vector<uint64_t>& value,
                         std::vector<uint64_t>* sum) {
  GL_CHECK_LT(m, slots_.size());
  GL_CHECK_EQ(value.size(), width_);
  Slot& slot = *slots_[m];
  uint64_t round;
  {
    std::lock_guard<std::mutex> lock(slot.mutex);
    if (slot.cancelled) return false;
    round = ++slot.round;
  }
  Send(m, kMaster, value_handler_, round, value);

  std::unique_lock<std::mutex> lock(slot.mutex);
  slot.cv.wait(lock,
               [&] { return slot.result_round >= round || slot.cancelled; });
  // A cancelled wait ends with false even when the release has already
  // landed: the caller's abort must not race the master's broadcast.
  if (slot.cancelled || slot.result_round < round) return false;
  if (sum != nullptr) *sum = slot.result;
  return true;
}

void AllReduce::Cancel(MachineId m) {
  GL_CHECK_LT(m, slots_.size());
  Slot& slot = *slots_[m];
  std::lock_guard<std::mutex> lock(slot.mutex);
  slot.cancelled = true;
  slot.cv.notify_all();
}

uint64_t AllReduce::round(MachineId m) {
  GL_CHECK_LT(m, slots_.size());
  Slot& slot = *slots_[m];
  std::lock_guard<std::mutex> lock(slot.mutex);
  return slot.round;
}

void AllReduce::Realign(MachineId m, uint64_t round) {
  GL_CHECK_LT(m, slots_.size());
  Slot& slot = *slots_[m];
  std::lock_guard<std::mutex> lock(slot.mutex);
  slot.round = round;
  slot.result_round = round;
  slot.cancelled = false;
}

void AllReduce::MasterReset(uint64_t round) {
  std::lock_guard<std::mutex> lock(master_mutex_);
  for (Round& r : ring_) r = Round{};
  released_ = round;
}

bool AllReduce::Decode(MachineId dst, MachineId src, InArchive& ia,
                       uint64_t* round, std::vector<uint64_t>* values) {
  ia >> *round;
  if (width_ > 0) ia >> *values;
  if (ia.ok() && ia.AtEnd() && values->size() == width_) return true;
  Drop(dst, src, "torn or wrong-width frame");
  return false;
}

void AllReduce::Drop(MachineId dst, MachineId src, const char* why) const {
  GL_LOG(WARNING) << "machine " << dst << ": dropping collective frame "
                  << "(handlers " << value_handler_ << "/"
                  << result_handler_ << ") from machine " << src << ": "
                  << why;
  comm_->registry(dst).counter("rpc.collective_dropped")->Inc();
}

void AllReduce::Send(MachineId src, MachineId dst, HandlerId id,
                     uint64_t round, const std::vector<uint64_t>& values) {
  OutArchive oa;
  oa << round;
  // A barrier frame is the bare round: no length prefix for zero slots.
  if (width_ > 0) oa << values;
  comm_->Send(src, dst, id, std::move(oa));
}

void AllReduce::OnValue(MachineId src, InArchive& ia) {
  // Runs on machine 0's dispatch threads.
  uint64_t round = 0;
  std::vector<uint64_t> value;
  if (!Decode(kMaster, src, ia, &round, &value)) return;
  std::vector<Release> released;
  {
    std::lock_guard<std::mutex> lock(master_mutex_);
    // Late contribution to a round a degraded release already closed.
    if (round <= released_) return;
    if (round > released_ + kRing) {
      Drop(kMaster, src, "round beyond the master ring");
      return;
    }
    Round& r = ring_[round % kRing];
    if (r.id != round) {
      r.id = round;
      r.contributions = 0;
      r.sum.assign(width_, 0);
    }
    for (size_t i = 0; i < width_; ++i) r.sum[i] += value[i];
    ++r.contributions;
    ReleaseIfCompleteLocked(r, &released);
  }
  Broadcast(released);
}

void AllReduce::ReleaseIfCompleteLocked(Round& r, std::vector<Release>* out) {
  // >= rather than ==: a machine may die after contributing, shrinking
  // the membership below a count that already includes it.
  if (r.contributions == 0 ||
      r.contributions < comm_->membership().num_alive()) {
    return;
  }
  released_ = std::max(released_, r.id);
  out->push_back(Release{r.id, std::move(r.sum)});
  r = Round{};
}

void AllReduce::Broadcast(const std::vector<Release>& released) {
  for (const Release& rel : released) {
    for (MachineId dst = 0; dst < comm_->num_machines(); ++dst) {
      Send(kMaster, dst, result_handler_, rel.round, rel.sum);
    }
  }
}

void AllReduce::OnResult(MachineId self, MachineId src, InArchive& ia) {
  uint64_t round = 0;
  std::vector<uint64_t> sum;
  if (!Decode(self, src, ia, &round, &sum)) return;
  Slot& slot = *slots_[self];
  std::lock_guard<std::mutex> lock(slot.mutex);
  if (round <= slot.result_round) return;  // already released here
  // A result may run ahead of this machine's own round: degraded releases
  // can close rounds it has not entered yet.  Bound it by machine 0's
  // ring window so a forged huge round cannot release every later wait.
  if (src != kMaster || round > slot.round + kRing) {
    Drop(self, src, "result for no round this machine can be in");
    return;
  }
  slot.result_round = round;
  slot.result = std::move(sum);
  slot.cv.notify_all();
}

}  // namespace rpc
}  // namespace graphlab
