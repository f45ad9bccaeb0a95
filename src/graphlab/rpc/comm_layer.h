// Copyright 2026 The Distributed GraphLab Reproduction Authors.
//
// CommLayer: the thin policy layer every framework component talks to.
//
// CommLayer owns the (machine, handler-id) -> callback registry and the
// routing policy; the actual interconnect lives behind rpc::ITransport
// (rpc/transport.h) with two backends:
//
//   * InProcessTransport — the simulated interconnect (latency/bandwidth
//     modeling, InjectStall fault injection) used by the figure benches.
//   * TcpTransport — real localhost/LAN sockets, one OS process per
//     machine, framed wire protocol.
//
// Engines, the distributed graph, barrier, termination detection and the
// sync/allreduce components are transport-agnostic: they Send() archives
// and register handlers here, and the same binary runs over either
// backend (see examples/distributed_pagerank.cpp).
//
// Handler registrations for machines the underlying transport does not
// host (TCP peers) are accepted and inert, so symmetric components that
// register every machine's slot work unmodified in both deployments.

#ifndef GRAPHLAB_RPC_COMM_LAYER_H_
#define GRAPHLAB_RPC_COMM_LAYER_H_

#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "graphlab/rpc/membership.h"
#include "graphlab/rpc/message.h"
#include "graphlab/rpc/transport.h"
#include "graphlab/util/serialization.h"

namespace graphlab {
namespace rpc {

/// The message fabric for one cluster (or, on TCP, one machine's view of
/// the cluster).
class CommLayer {
 public:
  /// Handler callback: (source machine, payload archive).
  using Handler = std::function<void(MachineId src, InArchive& payload)>;

  /// Wraps a transport backend.
  explicit CommLayer(std::unique_ptr<ITransport> transport);

  ~CommLayer();

  CommLayer(const CommLayer&) = delete;
  CommLayer& operator=(const CommLayer&) = delete;

  size_t num_machines() const { return transport_->num_machines(); }
  ITransport& transport() { return *transport_; }
  TransportKind transport_kind() const { return transport_->kind(); }
  const char* transport_name() const { return transport_->name(); }

  /// Registers the handler for (machine, id).  Must complete before any
  /// message with that id is delivered; typically done before Start().
  /// Re-registration replaces the previous handler; a delivery already
  /// running the old one finishes on its own reference, so replacing a
  /// handler never frees it mid-call.  Registrations for machines this
  /// transport does not host are inert.
  void RegisterHandler(MachineId machine, HandlerId id, Handler handler);

  /// Launches the transport's dispatch (and IO) threads.
  void Start();

  /// Drains in-flight messages and joins transport threads.
  void Stop();

  /// Sends `payload` to (dst, handler).  Thread safe.  May be called from
  /// handlers.  Self-sends are permitted and go through the same path.
  void Send(MachineId src, MachineId dst, HandlerId handler,
            OutArchive payload) {
    transport_->Send(src, dst, handler, std::move(payload));
  }

  /// Estimated `peer` steady-clock offset relative to this process
  /// (remote - local, ns; 0 when unknown or clocks are shared), as of the
  /// last SyncClocks().
  int64_t ClockOffsetNs(MachineId peer) const {
    return transport_->ClockOffsetNs(peer);
  }

  /// Runs the transport's clock-sync exchange (TCP; no-op in-process).
  void SyncClocks() { transport_->SyncClocks(); }

  // ------------------------------------------------------------------
  // Failure surface (see rpc/membership.h and fault/)
  // ------------------------------------------------------------------

  /// This fabric's view of which machines are alive.  Transport-observed
  /// peer deaths (socket errors, missed heartbeats) land here
  /// automatically; components subscribe for release re-evaluation.
  Membership& membership() { return membership_; }
  const Membership& membership() const { return membership_; }

  /// Declares `m` dead: transport drops its traffic, then membership
  /// subscribers fire.  Idempotent.
  void MarkPeerDown(MachineId m) { transport_->MarkPeerDown(m); }
  bool IsPeerDown(MachineId m) const { return transport_->IsPeerDown(m); }

  /// Starts transport-level liveness probing (TCP; no-op in-process).
  void EnableHeartbeats(std::chrono::milliseconds interval,
                        std::chrono::milliseconds timeout) {
    transport_->EnableHeartbeats(interval, timeout);
  }

  /// Fault injection: machine m dies abruptly (see ITransport).
  void InjectKill(MachineId m) { transport_->InjectKill(m); }

  /// Freezes dispatch on `machine` for `duration`, simulating a stalled
  /// process (multi-tenancy fault).  Engines poll StallActive() to also
  /// freeze their worker threads.  Simulated backend only; TCP ignores.
  void InjectStall(MachineId machine, std::chrono::nanoseconds duration) {
    transport_->InjectStall(machine, duration);
  }
  bool StallActive(MachineId machine) const {
    return transport_->StallActive(machine);
  }

  /// Per-(cluster, machine) metrics namespace.  `m` must be hosted by
  /// this transport.  Engines, the distributed graph and the fault
  /// runtime register their counters/histograms here so one snapshot
  /// captures the whole machine.
  metrics::MetricsRegistry& registry(MachineId m) {
    return transport_->registry(m);
  }

  /// Traffic accounting.  Machines the transport does not host report
  /// zeros.
  CommStats GetStats(MachineId machine) const {
    return transport_->GetStats(machine);
  }
  std::vector<PeerCommStats> GetPeerStats(MachineId machine) const {
    return transport_->GetPeerStats(machine);
  }
  CommStats GetTotalStats() const;
  void ResetStats() { transport_->ResetStats(); }

 private:
  struct MachineHandlers {
    std::mutex mutex;
    std::unordered_map<HandlerId, std::shared_ptr<const Handler>> handlers;
  };

  /// The transport's delivery sink: resolves the handler and runs it on
  /// the transport's dispatch thread.
  void Deliver(MachineId dst, MachineId src, HandlerId id, InArchive& ia);

  std::unique_ptr<ITransport> transport_;
  Membership membership_;
  std::vector<std::unique_ptr<MachineHandlers>> handlers_;
};

}  // namespace rpc
}  // namespace graphlab

#endif  // GRAPHLAB_RPC_COMM_LAYER_H_
