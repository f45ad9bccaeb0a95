// Copyright 2026 The Distributed GraphLab Reproduction Authors.
//
// Message types for the simulated asynchronous RPC layer.
//
// The real Distributed GraphLab communicates between symmetric processes
// with a custom asynchronous RPC protocol over TCP/IP (Sec. 4.4).  This
// reproduction runs all "machines" inside one process but preserves the
// protocol discipline: every cross-machine interaction is a serialized
// Message delivered through CommLayer.  Nothing else is shared.

#ifndef GRAPHLAB_RPC_MESSAGE_H_
#define GRAPHLAB_RPC_MESSAGE_H_

#include <cstdint>
#include <vector>

namespace graphlab {
namespace rpc {

/// Identifies a simulated machine (process) in the cluster.
using MachineId = uint32_t;

/// Identifies a registered message handler on the destination machine.
using HandlerId = uint16_t;

/// Handler ids used by the framework itself.  Components built on top of
/// the comm layer (engines, distributed graph, snapshot) allocate their own
/// ids at or above kFirstUserHandler.
enum SystemHandlers : HandlerId {
  kBarrierEnter = 1,
  kBarrierRelease = 2,
  kTerminationReport = 3,
  kTerminationVerdict = 4,
  kTerminationEpoch = 5,
  kFirstUserHandler = 16,
};

/// The Runtime's flush round (rpc/flush_round.h).  It sits among the
/// engine ids because it took over the chromatic step-end frame's id,
/// and with it that frame's bytes.
inline constexpr HandlerId kFlushRoundHandler = 35;

/// A serialized message in flight.  `payload` was produced by an OutArchive
/// on the sender and is consumed by an InArchive in the handler.
struct Message {
  MachineId src = 0;
  MachineId dst = 0;
  HandlerId handler = 0;
  /// Causal id: the sender's per-machine data-frame sequence number
  /// (from 1).  (src, origin_seq) identifies the send cluster-wide; the
  /// transports emit paired flow trace events from it.
  uint64_t origin_seq = 0;
  std::vector<char> payload;
};

/// Fixed per-message framing overhead charged by the byte accounting,
/// standing in for the TCP/IP + RPC header cost.
inline constexpr uint64_t kMessageHeaderBytes = 24;

}  // namespace rpc
}  // namespace graphlab

#endif  // GRAPHLAB_RPC_MESSAGE_H_
