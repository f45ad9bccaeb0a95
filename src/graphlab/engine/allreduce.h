// Copyright 2026 The Distributed GraphLab Reproduction Authors.
//
// The engines' sum all-reduce for collective decisions (e.g. the chromatic
// engine's "any work left?" check after each sweep): rpc::AllReduce over
// kAllreduceValueHandler / kAllreduceResultHandler.  Failure semantics
// are the round's: a death releases the survivors, and a machine
// cancelled while waiting gets all zeros back — callers in fault-tolerant
// runs consult their abort flag after each Reduce.

#ifndef GRAPHLAB_ENGINE_ALLREDUCE_H_
#define GRAPHLAB_ENGINE_ALLREDUCE_H_

#include <cstdint>
#include <vector>

#include "graphlab/engine/handler_ids.h"
#include "graphlab/rpc/allreduce.h"

namespace graphlab {

class SumAllReduce : public rpc::AllReduce {
 public:
  /// `width`: number of summed slots per reduction.
  SumAllReduce(rpc::CommLayer* comm, size_t width)
      : rpc::AllReduce(comm, width, kAllreduceValueHandler,
                       kAllreduceResultHandler) {}

  /// Collective: every machine must call with the same round cadence.
  /// Returns the element-wise sum across machines; all zeros when `me`
  /// was cancelled.
  std::vector<uint64_t> Reduce(rpc::MachineId me,
                               const std::vector<uint64_t>& value) {
    std::vector<uint64_t> sum;
    if (!Exchange(me, value, &sum)) sum.assign(width(), 0);
    return sum;
  }
};

}  // namespace graphlab

#endif  // GRAPHLAB_ENGINE_ALLREDUCE_H_
