#include "graphlab/fault/recovery.h"

#include "graphlab/engine/handler_ids.h"
#include "graphlab/util/logging.h"

namespace graphlab {
namespace fault {

RecoveryRendezvous::RecoveryRendezvous(rpc::CommLayer* comm,
                                       rpc::Barrier* barrier,
                                       SumAllReduce* allreduce,
                                       rpc::FlushRound* flush)
    : comm_(comm), barrier_(barrier), allreduce_(allreduce), flush_(flush) {
  const size_t n = comm_->num_machines();
  slots_.reserve(n);
  for (size_t i = 0; i < n; ++i) slots_.push_back(std::make_unique<Slot>());
  for (rpc::MachineId m = 0; m < n; ++m) {
    handler_scopes_.push_back(comm_->RegisterHandler(
        m, kRecoveryControlHandler,
        [this, m](rpc::MachineId src, InArchive& ia) {
          OnMessage(m, src, ia);
        }));
  }
  // A death while survivors wait: the coordinator re-evaluates (the dead
  // machine may have been the missing arrival), and every local waiter
  // wakes to re-check its own liveness.
  membership_subscription_ = comm_->membership().Subscribe(
      [this](rpc::MachineId, uint64_t) {
        {
          std::lock_guard<std::mutex> lock(master_mutex_);
          EvaluateLocked();
        }
        for (auto& slot : slots_) {
          std::lock_guard<std::mutex> lock(slot->mutex);
          slot->cv.notify_all();
        }
      });
}

Expected<RendezvousOutcome> RecoveryRendezvous::Arrive(rpc::MachineId me,
                                                       uint64_t seq,
                                                       bool saw_failure) {
  if (!comm_->membership().alive(me)) {
    return Status::Aborted("machine " + std::to_string(me) + " died");
  }
  // Sized up front: the frame is 34 bytes, and growing it from the
  // one-byte tag lets gcc's -O3 -Wstringop-overflow misread the copy of
  // the first u64 as a write into a one-byte buffer.
  OutArchive oa;
  oa.Reserve(2 * sizeof(uint8_t) + 4 * sizeof(uint64_t));
  oa << uint8_t{kEnter} << seq << barrier_->entered_generation(me)
     << allreduce_->round(me) << flush_->generation(me)
     << static_cast<uint8_t>(saw_failure ? 1 : 0);
  comm_->Send(me, /*dst=*/0, kRecoveryControlHandler, std::move(oa));

  Slot& slot = *slots_[me];
  std::unique_lock<std::mutex> lock(slot.mutex);
  slot.cv.wait(lock, [&] {
    return slot.released_seq >= seq || !comm_->membership().alive(me);
  });
  if (slot.released_seq < seq) {
    return Status::Aborted("machine " + std::to_string(me) +
                           " died during recovery rendezvous");
  }

  // Converge membership to the coordinator's view, then realign the
  // collective components past every generation/round any survivor
  // reached during the aborted run.
  comm_->membership().Adopt(slot.bitmap);
  barrier_->Realign(me, slot.max_barrier_gen);
  allreduce_->Realign(me, slot.max_allreduce_round);
  flush_->Realign(me, slot.max_flush_gen);

  RendezvousOutcome outcome;
  outcome.any_failure = slot.any_failure;
  outcome.alive = comm_->membership().alive_machines();
  return outcome;
}

void RecoveryRendezvous::OnMessage(rpc::MachineId self, rpc::MachineId src,
                                   InArchive& ia) {
  uint8_t tag = ia.ReadValue<uint8_t>();
  if (tag == kEnter) {
    // Coordinator side (runs on machine 0's dispatch thread).
    uint64_t seq = ia.ReadValue<uint64_t>();
    uint64_t barrier_gen = ia.ReadValue<uint64_t>();
    uint64_t allreduce_round = ia.ReadValue<uint64_t>();
    uint64_t flush_gen = ia.ReadValue<uint64_t>();
    uint8_t failure = ia.ReadValue<uint8_t>();
    if (!ia.ok()) return;
    std::lock_guard<std::mutex> lock(master_mutex_);
    PendingSeq& p = pending_[seq];
    if (p.entered.empty()) p.entered.assign(comm_->num_machines(), 0);
    p.entered[src] = 1;
    p.max_barrier_gen = std::max(p.max_barrier_gen, barrier_gen);
    p.max_allreduce_round = std::max(p.max_allreduce_round, allreduce_round);
    p.max_flush_gen = std::max(p.max_flush_gen, flush_gen);
    p.any_failure = p.any_failure || failure != 0;
    EvaluateLocked();
  } else if (tag == kRelease) {
    uint64_t seq = ia.ReadValue<uint64_t>();
    uint64_t max_gen = ia.ReadValue<uint64_t>();
    uint64_t max_round = ia.ReadValue<uint64_t>();
    uint64_t max_flush = ia.ReadValue<uint64_t>();
    uint8_t any_failure = ia.ReadValue<uint8_t>();
    std::vector<uint8_t> bitmap;
    ia >> bitmap;
    if (!ia.ok() || bitmap.size() != comm_->num_machines()) return;
    Slot& slot = *slots_[self];
    std::lock_guard<std::mutex> lock(slot.mutex);
    if (seq > slot.released_seq) {
      slot.released_seq = seq;
      slot.max_barrier_gen = max_gen;
      slot.max_allreduce_round = max_round;
      slot.max_flush_gen = max_flush;
      slot.any_failure = any_failure != 0;
      slot.bitmap = std::move(bitmap);
      slot.cv.notify_all();
    }
  } else {
    GL_LOG(ERROR) << "rendezvous: unknown tag " << static_cast<int>(tag);
  }
}

void RecoveryRendezvous::EvaluateLocked() {
  const std::vector<uint8_t> alive = comm_->membership().alive_bitmap();
  for (auto& [seq, p] : pending_) {
    if (p.released || p.entered.empty()) continue;
    bool complete = true;
    for (rpc::MachineId m = 0; m < alive.size(); ++m) {
      if (alive[m] && !p.entered[m]) {
        complete = false;
        break;
      }
    }
    if (!complete) continue;
    p.released = true;
    // All survivors' stale barrier/allreduce master traffic has been
    // FIFO-delivered behind their rendezvous enters: safe to wipe the
    // master rings, at the rounds every survivor realigns to, before
    // anyone sends realigned traffic (which only happens after this
    // release).
    barrier_->MasterReset(p.max_barrier_gen);
    allreduce_->MasterReset(p.max_allreduce_round);
    OutArchive release;
    release << uint8_t{kRelease} << seq << p.max_barrier_gen
            << p.max_allreduce_round << p.max_flush_gen
            << static_cast<uint8_t>(p.any_failure ? 1 : 0) << alive;
    for (rpc::MachineId dst = 0; dst < alive.size(); ++dst) {
      if (!alive[dst]) continue;
      OutArchive copy;
      copy.WriteBytes(release.buffer().data(), release.size());
      comm_->Send(/*src=*/0, dst, kRecoveryControlHandler, std::move(copy));
    }
  }
}

}  // namespace fault
}  // namespace graphlab
