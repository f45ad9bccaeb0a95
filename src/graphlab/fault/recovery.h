// Copyright 2026 The Distributed GraphLab Reproduction Authors.
//
// RecoveryRendezvous: the collective alignment point survivors meet at
// between run attempts.
//
// After a machine loss every survivor aborts its engine through a
// different code path — one was yanked out of a barrier, another out
// of a flush round — so their barrier generations, allreduce rounds and
// flush-round generations diverge, and their membership views may
// briefly disagree.  Arrive(seq) fixes all of it in one exchange:
//
//   1. every survivor sends ENTER(seq) to machine 0 with its local
//      barrier generation, allreduce round, next flush-round generation
//      and failure flag;
//   2. machine 0 waits until every machine alive IN ITS VIEW has entered
//      (re-evaluated on every membership change, so a second death
//      cannot wedge the rendezvous), then — on its dispatch thread,
//      after all stale barrier/allreduce traffic on the same FIFO
//      channels has necessarily been delivered — resets the barrier and
//      allreduce master state and broadcasts RELEASE(seq) carrying its
//      alive bitmap, the maxima of the collected counters, and the OR of
//      the failure flags;
//   3. each survivor adopts the coordinator's bitmap (membership
//      convergence), realigns its barrier/allreduce/flush-round slots to
//      the maxima, and learns the collective retry/done decision.  No
//      survivor sent a flush frame of the maximum generation before the
//      rendezvous, so no frame of an aborted attempt can be accepted
//      afterwards, while a round a faster survivor starts right after
//      its own release is not lost (FlushRound::Realign).
//
// Machine 0 is the immortal coordinator by assumption — the same role it
// already plays for the barrier, the allreduce, and the termination
// consensus (and the Spark-driver-style assumption the paper's EC2
// deployment makes of its master).  FIFO note: a survivor's stale
// BARRIER_ENTER frames travel the same survivor->machine-0 channel as
// its rendezvous ENTER, so by the time machine 0 has collected every
// survivor's ENTER, no stale master traffic can arrive afterwards; the
// master reset in step 2 is therefore race free, and survivors only send
// realigned traffic after RELEASE.

#ifndef GRAPHLAB_FAULT_RECOVERY_H_
#define GRAPHLAB_FAULT_RECOVERY_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <vector>

#include "graphlab/engine/allreduce.h"
#include "graphlab/rpc/barrier.h"
#include "graphlab/rpc/comm_layer.h"
#include "graphlab/rpc/flush_round.h"
#include "graphlab/util/status.h"

namespace graphlab {
namespace fault {

/// What a completed rendezvous tells each survivor.
struct RendezvousOutcome {
  std::vector<rpc::MachineId> alive;  // converged membership, ascending
  bool any_failure = false;           // OR of all survivors' flags
};

class RecoveryRendezvous {
 public:
  /// `barrier` / `allreduce` / `flush` are the components realigned on
  /// release (master state reset runs on machine 0's instances).
  RecoveryRendezvous(rpc::CommLayer* comm, rpc::Barrier* barrier,
                     SumAllReduce* allreduce, rpc::FlushRound* flush);

  RecoveryRendezvous(const RecoveryRendezvous&) = delete;
  RecoveryRendezvous& operator=(const RecoveryRendezvous&) = delete;

  /// Collective among the live membership.  `seq` must advance by 1 per
  /// call and match across machines (the runner's attempt counter).
  /// `saw_failure` is this machine's "a peer died since the last
  /// rendezvous" observation.  Blocks until the coordinator releases;
  /// returns Aborted if this machine itself dies while waiting.
  Expected<RendezvousOutcome> Arrive(rpc::MachineId me, uint64_t seq,
                                     bool saw_failure);

 private:
  enum Tag : uint8_t { kEnter = 0, kRelease = 1 };

  struct PendingSeq {
    std::vector<uint8_t> entered;  // per machine
    uint64_t max_barrier_gen = 0;
    uint64_t max_allreduce_round = 0;
    uint64_t max_flush_gen = 0;
    bool any_failure = false;
    bool released = false;
  };

  struct Slot {
    std::mutex mutex;
    std::condition_variable cv;
    uint64_t released_seq = 0;
    uint64_t max_barrier_gen = 0;
    uint64_t max_allreduce_round = 0;
    uint64_t max_flush_gen = 0;
    bool any_failure = false;
    std::vector<uint8_t> bitmap;
  };

  void OnMessage(rpc::MachineId self, rpc::MachineId src, InArchive& ia);
  void EvaluateLocked();  // coordinator; holds master_mutex_

  rpc::CommLayer* comm_;
  rpc::Barrier* barrier_;
  SumAllReduce* allreduce_;
  rpc::FlushRound* flush_;

  std::vector<std::unique_ptr<Slot>> slots_;

  // Coordinator (machine 0) state.
  std::mutex master_mutex_;
  std::map<uint64_t, PendingSeq> pending_;

  std::vector<rpc::HandlerScope> handler_scopes_;
  rpc::Subscription membership_subscription_;
};

}  // namespace fault
}  // namespace graphlab

#endif  // GRAPHLAB_FAULT_RECOVERY_H_
