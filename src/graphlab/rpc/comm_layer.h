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
// Handler lifetime.  RegisterHandler returns an rpc::HandlerScope, and
// that scope is the registration: its owner declares it as its last
// member, so it dies before anything the handler touches.  Destroying it
// removes the (machine, id) entry if the entry is still its own (a newer
// registration of the same id stays), then waits until no delivery is
// running the removed handler, unless it runs on that machine's dispatch
// thread (a handler may end its own registration).  A frame with no live
// registration is dropped, logged and counted in the receiving machine's
// "rpc.unhandled" counter, so a late frame never reaches a freed object.
// Registrations for machines the transport does not host (TCP peers)
// return an empty scope, so symmetric components that register every
// machine's slot work unmodified in both deployments.

#ifndef GRAPHLAB_RPC_COMM_LAYER_H_
#define GRAPHLAB_RPC_COMM_LAYER_H_

#include <chrono>
#include <functional>
#include <memory>
#include <vector>

#include "graphlab/rpc/membership.h"
#include "graphlab/rpc/message.h"
#include "graphlab/rpc/transport.h"
#include "graphlab/util/serialization.h"

namespace graphlab {
namespace rpc {

namespace internal {
struct HandlerTable;
struct Registration;
}  // namespace internal

/// One handler registration (see the header).  Move-only; an empty scope
/// (default constructed, moved from, or for a machine the transport does
/// not host) owns nothing.
class [[nodiscard]] HandlerScope {
 public:
  HandlerScope() = default;
  HandlerScope(HandlerScope&& other) noexcept = default;
  HandlerScope& operator=(HandlerScope&& other) noexcept;
  ~HandlerScope();

  HandlerScope(const HandlerScope&) = delete;
  HandlerScope& operator=(const HandlerScope&) = delete;

 private:
  friend class CommLayer;
  HandlerScope(std::shared_ptr<internal::HandlerTable> table, HandlerId id,
               std::weak_ptr<const internal::Registration> registration);
  void Release();

  std::shared_ptr<internal::HandlerTable> table_;
  HandlerId id_ = 0;
  std::weak_ptr<const internal::Registration> registration_;
};

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

  /// Registers the handler for (machine, id) until the returned scope is
  /// destroyed.  Must complete before any message with that id is
  /// delivered; typically done before Start().  A newer registration of
  /// the same id replaces this one; a delivery already running the old
  /// handler finishes on its own reference.
  HandlerScope RegisterHandler(MachineId machine, HandlerId id,
                               Handler handler);

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
  /// The transport's delivery sink: resolves the handler and runs it on
  /// the transport's dispatch thread.
  void Deliver(MachineId dst, MachineId src, HandlerId id, InArchive& ia);

  std::unique_ptr<ITransport> transport_;
  Membership membership_;
  // Per machine; shared with the scopes, which may outlive this layer.
  std::vector<std::shared_ptr<internal::HandlerTable>> handlers_;
  Subscription peer_down_subscription_;
};

}  // namespace rpc
}  // namespace graphlab

#endif  // GRAPHLAB_RPC_COMM_LAYER_H_
