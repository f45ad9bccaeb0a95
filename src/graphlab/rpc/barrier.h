// Copyright 2026 The Distributed GraphLab Reproduction Authors.
//
// A cluster-wide barrier: the width-0 AllReduce (rpc/allreduce.h) over
// BARRIER_ENTER / BARRIER_RELEASE, whose frames are a bare u64
// generation.  Every machine enters a generation at machine 0, which
// releases it once every LIVE machine is in — re-checked on each death,
// so survivors are released rather than left waiting on a dead machine.
// Cancel(m) makes machine m's Wait() return false until the recovery
// rendezvous realigns it; the fault runner uses this to yank a machine
// out of a run the moment it observes a peer death.

#ifndef GRAPHLAB_RPC_BARRIER_H_
#define GRAPHLAB_RPC_BARRIER_H_

#include <cstdint>

#include "graphlab/rpc/allreduce.h"

namespace graphlab {
namespace rpc {

class Barrier : public AllReduce {
 public:
  explicit Barrier(CommLayer* comm)
      : AllReduce(comm, 0, kBarrierEnter, kBarrierRelease) {}

  /// Blocks machine m until every live machine has entered the same
  /// generation.  True on a release; false when m was cancelled.
  bool Wait(MachineId m) { return Exchange(m, {}, nullptr); }

  uint64_t entered_generation(MachineId m) { return round(m); }
};

}  // namespace rpc
}  // namespace graphlab

#endif  // GRAPHLAB_RPC_BARRIER_H_
