// Copyright 2026 The Distributed GraphLab Reproduction Authors.
//
// ITransport: the interconnect abstraction under CommLayer.
//
// The paper's system communicates between symmetric processes with a
// custom asynchronous RPC protocol over TCP/IP (Sec. 4.4).  This repo
// supports two interchangeable backends behind one interface:
//
//  * InProcessTransport (rpc/inproc_transport.h) — the simulated
//    interconnect: every "machine" lives in one OS process, messages
//    travel through timed queues with modeled latency/bandwidth, and
//    fault injection (InjectStall) reproduces the paper's figures.
//
//  * TcpTransport (rpc/tcp_transport.h) — each machine is a real OS
//    process; messages travel over localhost/LAN TCP sockets as
//    length-prefixed versioned frames, read and dispatched by one
//    event-loop thread per machine.
//
// Both backends deliver through a single dispatch thread per machine, so
// handler executions on one machine are serialized — engines rely on
// that (ApplyDataPush mutates ghost replicas without graph-wide locks).
// Both keep every ordered machine pair a FIFO channel, which is all the
// runtime's channel flush (rpc/flush_round.h) needs.
//
// CommLayer (rpc/comm_layer.h) is the thin policy layer on top: it owns
// the (machine, handler-id) -> callback registry and delegates transport
// concerns here.  Engines and the distributed graph only see CommLayer.

#ifndef GRAPHLAB_RPC_TRANSPORT_H_
#define GRAPHLAB_RPC_TRANSPORT_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "graphlab/rpc/message.h"
#include "graphlab/util/serialization.h"

namespace graphlab {
namespace metrics {
class MetricsRegistry;
}  // namespace metrics
namespace rpc {

/// Which interconnect backend a cluster runs on.
enum class TransportKind {
  kInProcess,  // simulated in-process interconnect (figure benches)
  kTcp,        // real TCP sockets, one OS process per machine
};

inline const char* TransportKindName(TransportKind kind) {
  return kind == TransportKind::kTcp ? "tcp" : "inproc";
}

/// Tuning knobs for the simulated interconnect.
struct CommOptions {
  /// One-way message latency.  ~200us approximates an EC2-era 10GbE + TCP
  /// stack round; setting 0 delivers immediately (still via the dispatch
  /// thread).  Benches sweep this.
  std::chrono::nanoseconds latency{std::chrono::microseconds(100)};

  /// Modeled wire bandwidth per machine in bytes/sec; 0 disables bandwidth
  /// delay (only latency applies).  Used to make very large ghost syncs
  /// cost proportionally more.
  uint64_t bandwidth_bytes_per_sec = 0;
};

/// Configuration of the TCP backend.  `endpoints[i]` is machine i's
/// "host:port" listen address; the vector's size is the cluster size.
struct TcpOptions {
  /// This process's machine id (each process hosts exactly one machine).
  MachineId me = 0;

  /// One "host:port" per machine.  An empty host binds every interface.
  std::vector<std::string> endpoints;

  /// How long Start() keeps retrying connections to peers that have not
  /// come up yet before giving up (processes launch at different times).
  std::chrono::milliseconds connect_timeout{15000};

  /// Pre-bound listening socket to adopt instead of binding
  /// endpoints[me]; used by the single-process loopback harness so ctest
  /// runs with ephemeral ports stay hermetic.  -1 = bind normally.
  int listen_fd = -1;
};

/// Per-machine traffic statistics maintained by the transport.
struct CommStats {
  uint64_t messages_sent = 0;
  uint64_t bytes_sent = 0;
  uint64_t messages_received = 0;
  uint64_t bytes_received = 0;
};

/// Per-(machine, peer) traffic breakdown — `peer` is the destination of
/// the sent counters and the source of the received ones.
struct PeerCommStats {
  MachineId peer = 0;
  uint64_t messages_sent = 0;
  uint64_t bytes_sent = 0;
  uint64_t messages_received = 0;
  uint64_t bytes_received = 0;
};

class ITransport;

/// Names the calling thread as the one thread on which `transport` runs
/// every delivery for machine `m`, for the mark's lifetime.  Each backend
/// sets it at the top of its dispatch loop; CommLayer reads it so that a
/// handler may end its own registration without waiting on itself.
class DispatchThreadMark {
 public:
  DispatchThreadMark(const ITransport* transport, MachineId m);
  ~DispatchThreadMark();

  DispatchThreadMark(const DispatchThreadMark&) = delete;
  DispatchThreadMark& operator=(const DispatchThreadMark&) = delete;

  static bool IsCurrent(const ITransport* transport, MachineId m);

 private:
  const ITransport* saved_transport_;
  MachineId saved_machine_;
};

/// The interconnect interface.  All methods are thread safe.  Lifecycle:
/// construct -> SetDeliverySink -> Start -> (traffic) -> Stop.
class ITransport {
 public:
  /// Delivery callback installed by the policy layer: (destination
  /// machine, source machine, handler id, payload).  Runs on the
  /// destination machine's single dispatch thread.
  using DeliverySink =
      std::function<void(MachineId dst, MachineId src, HandlerId handler,
                         InArchive& payload)>;

  /// Fired at most once per peer when the backend concludes the peer is
  /// gone — socket error, receive-side EOF, missed heartbeats, or an
  /// explicit MarkPeerDown.  Runs on a transport thread, never inside a
  /// handler or a Send() (a sender may hold locks it takes); must not
  /// block.
  using PeerDownCallback = std::function<void(MachineId peer)>;

  virtual ~ITransport() = default;

  /// Backend name for logs/benches ("inproc" | "tcp").
  virtual const char* name() const = 0;
  virtual TransportKind kind() const = 0;

  /// Cluster size (machines, not processes-in-this-process).
  virtual size_t num_machines() const = 0;

  /// True when machine m is hosted by this transport instance (always
  /// true for the in-process backend; only `me` for TCP).
  virtual bool IsLocal(MachineId m) const = 0;

  /// Installs the delivery callback.  Must be called before Start().
  virtual void SetDeliverySink(DeliverySink sink) = 0;

  /// Launches dispatch (and, for TCP, connection/IO) threads.
  virtual void Start() = 0;

  /// Drains in-flight local work and joins all threads.  Idempotent.
  virtual void Stop() = 0;

  /// Sends `payload` from `src` (must be local) to (dst, handler).  May
  /// be called from handlers.  Self-sends go through the same path.
  virtual void Send(MachineId src, MachineId dst, HandlerId handler,
                    OutArchive payload) = 0;

  /// Estimated offset of `peer`'s steady clock relative to this
  /// process's (remote - local, nanoseconds), from the clock-sync round
  /// trips SyncClocks() runs on the TCP backend (see rpc/clock_sync.h).
  /// 0 when unknown or when machines share one clock (in-process backend).
  virtual int64_t ClockOffsetNs(MachineId peer) const {
    (void)peer;
    return 0;
  }

  /// Refreshes ClockOffsetNs: a few clock-sync round trips to every live
  /// peer, returning once they are answered (or a peer dies, or a short
  /// timeout passes).  Nothing to do where machines share one clock.
  virtual void SyncClocks() {}

  // ------------------------------------------------------------------
  // Failure surface (fault/ subsystem; see fault/failure_detector.h)
  // ------------------------------------------------------------------

  /// Installs the peer-death callback.  May be called before or after
  /// Start(); replaces any previous listener.
  virtual void SetPeerDownListener(PeerDownCallback cb) = 0;

  /// Declares `peer` dead (heartbeat timeout, external decision).
  /// Idempotent.  Queued and future sends to it are dropped, frames from
  /// it still awaiting dispatch are discarded, and a clock sync in
  /// progress stops waiting for it.  Fires the peer-down listener on the
  /// first call.
  virtual void MarkPeerDown(MachineId peer) = 0;
  virtual bool IsPeerDown(MachineId peer) const = 0;

  /// Starts liveness probing: the TCP backend pings every connected peer
  /// each `interval` as control frames (not charged to the traffic
  /// counters) and marks a peer down after `timeout` without hearing any
  /// frame from it.  May be called before or after Start().  The
  /// simulated backend has no wire to lose, so this records the
  /// parameters and does nothing; in-process death is injected with
  /// InjectKill instead.
  virtual void EnableHeartbeats(std::chrono::milliseconds interval,
                                std::chrono::milliseconds timeout) = 0;

  /// Fault injection: machine `m` dies abruptly, as if kill -9'd.  On the
  /// TCP backend only m == me() is meaningful — the local machine slams
  /// its sockets shut without any goodbye, so peers observe a real crash
  /// (EOF / heartbeat loss).  On the simulated backend any machine can be
  /// killed: its inbox stops delivering and its sends are dropped.
  /// Either way every peer of the killed machine eventually fires
  /// PeerDown, and the killed machine's own listener fires for itself so
  /// its program threads can wind down.
  virtual void InjectKill(MachineId m) = 0;

  /// Freezes dispatch on `machine` for `duration` (fault injection).
  /// Only the simulated backend implements this; TCP logs and ignores.
  virtual void InjectStall(MachineId machine,
                           std::chrono::nanoseconds duration) = 0;
  virtual bool StallActive(MachineId machine) const = 0;

  /// Traffic accounting.  Non-local machines report zeros.  The counters
  /// behind these views live in the per-machine metrics registry below
  /// (names under "rpc."); GetStats/GetPeerStats are thin reads over
  /// them and ResetStats zeroes only the rpc traffic counters.
  virtual CommStats GetStats(MachineId machine) const = 0;
  virtual std::vector<PeerCommStats> GetPeerStats(MachineId machine) const = 0;
  virtual void ResetStats() = 0;

  /// The metrics registry of a hosted machine — the single namespace the
  /// whole runtime (engines, schedulers, graph, fault subsystem) reports
  /// through, and the unit the cluster-wide MetricsService aggregates.
  /// One registry per (cluster, machine); owning it here gives sequential
  /// clusters fresh counters.  `m` must be hosted (IsLocal).
  virtual metrics::MetricsRegistry& registry(MachineId m) = 0;
};

}  // namespace rpc
}  // namespace graphlab

#endif  // GRAPHLAB_RPC_TRANSPORT_H_
