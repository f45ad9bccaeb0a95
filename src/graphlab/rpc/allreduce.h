// Copyright 2026 The Distributed GraphLab Reproduction Authors.
//
// AllReduce: the one membership-aware master round behind every cluster
// collective — the barriers between colour-steps, sweeps and supersteps
// (Sec. 4.2.1), the engines' sum all-reduce and the load rebalancer's
// decision round.
//
// Protocol: each machine sends VALUE(round, width u64 slots) to machine 0;
// machine 0 sums a round's contributions and, once every LIVE machine is
// in, broadcasts RESULT(round, sum).  A barrier is the width-0 case, whose
// frames are a bare u64 round.
//
// Failure semantics: machine 0 counts contributions against the fabric's
// current Membership and re-checks its pending rounds on every death, so
// survivors blocked on a dead machine's contribution are released over
// the survivors (degraded collective semantics; the engines abort and the
// fault runner re-synchronizes) instead of hanging.  A contribution to a
// round machine 0 already released is dropped.  Cancel(m) wakes machine
// m's waiter and makes its rounds return false until Realign(m, ...); the
// recovery rendezvous realigns every survivor and resets machine 0's ring
// before the next run.
//
// Wire checks: a frame that does not decode to exactly a round and
// `width` values, or whose round lies outside what the receiver can be
// waiting for, is logged, counted in the receiver's
// "rpc.collective_dropped" counter and dropped.  Machine 0 holds rounds
// (released, released + 64]; a machine in round r accepts results from
// machine 0 up to r + 64 (degraded releases may reach a slow survivor
// before it enters).

#ifndef GRAPHLAB_RPC_ALLREDUCE_H_
#define GRAPHLAB_RPC_ALLREDUCE_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "graphlab/rpc/comm_layer.h"

namespace graphlab {
namespace rpc {

/// Sum all-reduce over a fixed width of u64 slots.  One instance serves a
/// whole fabric; each machine touches only its own slot.
class AllReduce {
 public:
  AllReduce(CommLayer* comm, size_t width, HandlerId value_handler,
            HandlerId result_handler);

  AllReduce(const AllReduce&) = delete;
  AllReduce& operator=(const AllReduce&) = delete;

  size_t width() const { return width_; }

  /// Collective: machine m contributes `value` (width() entries) to its
  /// next round and blocks until machine 0 releases it.  On release
  /// stores the element-wise sum in *sum (when non-null) and returns
  /// true; returns false once m is cancelled, even if the release had
  /// already landed.
  bool Exchange(MachineId m, const std::vector<uint64_t>& value,
                std::vector<uint64_t>* sum);

  /// Wakes machine m's waiter (if blocked) and makes its later rounds
  /// return false at once — the local "a peer is dead, stop
  /// participating" switch.  Its contribution may already be counted at
  /// machine 0; the recovery rendezvous realigns rounds before reuse.
  void Cancel(MachineId m);

  /// Machine m's last entered round.
  uint64_t round(MachineId m);
  /// Sets machine m's entered and released round to `round` and clears
  /// its cancel flag.  Only call while m is in no round.
  void Realign(MachineId m, uint64_t round);
  /// Machine 0's instance: forget every pending contribution and take
  /// `round` as the last released one — the round every survivor is
  /// realigned to.
  void MasterReset(uint64_t round);

 private:
  struct Slot {
    std::mutex mutex;
    std::condition_variable cv;
    uint64_t round = 0;
    uint64_t result_round = 0;
    bool cancelled = false;
    std::vector<uint64_t> result;
  };
  // One master ring entry; id 0 marks a free entry.
  struct Round {
    uint64_t id = 0;
    size_t contributions = 0;
    std::vector<uint64_t> sum;
  };
  struct Release {
    uint64_t round;
    std::vector<uint64_t> sum;
  };
  static constexpr uint64_t kRing = 64;

  /// Reads `round | width values` and checks the frame holds exactly
  /// that; logs and counts a bad frame.
  bool Decode(MachineId dst, MachineId src, InArchive& ia, uint64_t* round,
              std::vector<uint64_t>* values);
  void Drop(MachineId dst, MachineId src, const char* why) const;
  void Send(MachineId src, MachineId dst, HandlerId id, uint64_t round,
            const std::vector<uint64_t>& values);
  void OnValue(MachineId src, InArchive& ia);
  void OnResult(MachineId self, MachineId src, InArchive& ia);
  /// Releases ring entry `r` when every live machine is in.  Caller holds
  /// master_mutex_.
  void ReleaseIfCompleteLocked(Round& r, std::vector<Release>* out);
  void Broadcast(const std::vector<Release>& released);

  CommLayer* comm_;
  const size_t width_;
  const HandlerId value_handler_;
  const HandlerId result_handler_;
  std::vector<std::unique_ptr<Slot>> slots_;

  // Machine 0 bookkeeping.
  std::mutex master_mutex_;
  std::vector<Round> ring_;
  uint64_t released_ = 0;  // highest released round

  std::vector<HandlerScope> handler_scopes_;
  Subscription membership_subscription_;
};

}  // namespace rpc
}  // namespace graphlab

#endif  // GRAPHLAB_RPC_ALLREDUCE_H_
