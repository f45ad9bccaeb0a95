// Copyright 2026 The Distributed GraphLab Reproduction Authors.
//
// Central allocation of RPC handler ids used by the framework components,
// so collisions are impossible.  DistributedGraph owns kFirstUserHandler
// (16); engine-level protocols start at 18.  17, 26 and 27 are unassigned:
// ids are never renumbered, since every machine must agree on them.
// 24/25 and 33/32 are the value/result pairs of rpc::AllReduce rounds,
// like the barrier's kBarrierEnter / kBarrierRelease.  35 belongs to the
// rpc layer (rpc/message.h), which registers it before any engine runs.

#ifndef GRAPHLAB_ENGINE_HANDLER_IDS_H_
#define GRAPHLAB_ENGINE_HANDLER_IDS_H_

#include "graphlab/rpc/message.h"

namespace graphlab {

enum EngineHandlers : rpc::HandlerId {
  // 16: DistributedGraph ghost data push.
  kScheduleForwardHandler = 18,  // locking engine remote scheduling
  kLockChainHandler = 19,        // pipelined lock chain hop
  kLockGrantHandler = 20,        // scope-ready notification to requester
  kLockReleaseHandler = 21,      // bulk lock release at a machine
  kSyncPartialHandler = 22,      // sync op partial aggregate -> master
  kSyncPublishHandler = 23,      // sync op finalized value broadcast
  kAllreduceValueHandler = 24,   // engine allreduce contribution
  kAllreduceResultHandler = 25,  // engine allreduce result broadcast
  kSnapshotTriggerHandler = 28,  // coordinator-initiated snapshot trigger
  kCheckpointControlHandler = 29,  // checkpoint decide/done/commit protocol
  kRecoveryControlHandler = 30,    // recovery rendezvous enter/release
  kMetricsSnapshotHandler = 31,    // metrics registry snapshot -> master
  kRebalanceResultHandler = 32,    // load rebalancer round: reduced loads
  kRebalanceValueHandler = 33,     // load rebalancer round: load -> master
  kTelemetryPushHandler = 34,      // streaming telemetry sample -> master
  // 35: rpc::kFlushRoundHandler, the Runtime's flush round
  // (rpc/flush_round.h), which carries the chromatic step-end forwards.
};

}  // namespace graphlab

#endif  // GRAPHLAB_ENGINE_HANDLER_IDS_H_
