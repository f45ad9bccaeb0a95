// Copyright 2026 The Distributed GraphLab Reproduction Authors.
//
// TcpTransport: the real-wire interconnect (Sec. 4.4 deployment shape).
//
// Each machine is one OS process.  Every ordered pair of machines gets a
// dedicated TCP connection: machine i's frames to j travel on the socket
// i connected to j's listener, so the per-channel FIFO the coherence
// protocol relies on ("push ghosts, then release locks") is the kernel's
// TCP ordering, not a simulation artifact.
//
// Wire format — every frame is a fixed 28-byte little-endian header plus
// a length-prefixed payload:
//
//   offset  size  field
//   0       4     magic      0x31574C47 ("GLW1")
//   4       2     version    kTcpWireVersion (3)
//   6       1     type       0=data 1=hello 2=clock-probe 3=clock-reply
//                            4=ping (5 is retired)
//   7       1     flags      0
//   8       4     src        sending machine id
//   12      2     handler    destination handler id (data)
//   14      2     reserved   0
//   16      8     seq        sender's data-frame sequence number, from 1
//                            (causal id; 0 on control frames)
//   24      4     payload    payload byte count
//
// A connection opens with one hello frame (payload: u32 machine id,
// u32 cluster size); version or magic mismatch closes the connection.
// (src, seq) identifies a data frame cluster-wide; the sender emits a
// flow 's' trace event when stamping it and the receiver a paired 'f'
// at dispatch, so a merged cluster trace draws cross-machine arrows.
//
// Clock sync: SyncClocks() sends every live peer a few clock-probe
// frames `u64 seq | u64 t_send` (the sender's steady clock); each reply
// is `u64 seq | u64 t_send | u64 t_remote`, echoing the send timestamp
// beside the replier's own clock reading.  The prober feeds each
// completed round trip to a per-peer midpoint estimator
// (rpc/clock_sync.h) whose minimum-RTT offset ClockOffsetNs() exposes
// for trace alignment.  Probes, replies, hellos and pings are control
// frames: not charged to CommStats, never dispatched to handlers.
//
// Threads: ONE event-loop thread per machine, polling the listener,
// every accepted connection and a wakeup eventfd.  It accepts
// connections, reads each connection into a buffer (one recv covers
// many frames), checks header, hello and src, and runs every handler
// inline: it is the machine's dispatch thread, preserving the simulated
// backend's serialized-handler semantics.  Sends write through from the
// calling thread: a non-blocking send under a per-peer mutex.  What the
// socket does not take goes on a per-peer backlog, which later sends
// and the loop (when the socket is writable) drain in FIFO order; the
// loop never blocks in a write, so two machines whose handlers send to
// each other cannot deadlock on full socket buffers.  Besides the loop
// run one short-lived connector thread per peer at Start() and,
// optionally, one heartbeat thread (EnableHeartbeats).  A handler that
// holds the loop delays liveness stamps too, so a missed-heartbeat
// verdict only counts silence up to the loop's last poll.
//
// Failure surface: a peer becomes DOWN through a send error, receive-side
// EOF, a missed-heartbeat deadline, or an explicit MarkPeerDown.  A send
// error, on whatever thread it happens (a handler, a caller holding its
// own locks), only drops the peer's backlog and wakes the loop, which
// marks the peer down at the top of its next turn: the PeerDown
// listeners, and the membership subscribers behind them, never run
// inside a handler or a Send().  From then on (a) its backlog and every frame submitted for it are dropped,
// (b) a clock sync stops waiting for its replies, and (c) data frames
// still arriving from it are read and dropped, so a dead machine's stale
// ghost pushes can never touch a graph being rebuilt by recovery.
// Receive-side EOF (or a truncated or corrupt frame) is seen by the loop
// right after the connection's last complete frame, which it has
// already handled: when EOF is the only sign of the death, every frame
// the connection carried runs first, and the death reaches the PeerDown
// listeners on the loop thread.  A peer marked down by another route
// (a send error or missed heartbeat, an InjectKill, an adopted
// membership view) has the frames the loop reads after that dropped: a
// peer that must deliver its last frames waits for an acknowledgement
// (a barrier, say) before it closes.

#ifndef GRAPHLAB_RPC_TCP_TRANSPORT_H_
#define GRAPHLAB_RPC_TCP_TRANSPORT_H_

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "graphlab/metrics/metrics.h"
#include "graphlab/rpc/transport.h"
#include "graphlab/util/status.h"

namespace graphlab {
namespace rpc {

/// Fixed framing overhead per TCP frame (see header layout above).
inline constexpr uint64_t kTcpFrameHeaderBytes = 28;
inline constexpr uint32_t kTcpFrameMagic = 0x31574C47;  // "GLW1"
inline constexpr uint16_t kTcpWireVersion = 3;

/// Sanity bound on a single frame payload; larger lengths mark the
/// connection corrupt (a coalesced ghost batch flushes well below this).
inline constexpr uint32_t kTcpMaxFramePayload = 1u << 30;

class TcpTransport final : public ITransport {
 public:
  explicit TcpTransport(TcpOptions options);
  ~TcpTransport() override;

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  const char* name() const override { return "tcp"; }
  TransportKind kind() const override { return TransportKind::kTcp; }
  size_t num_machines() const override { return endpoints_.size(); }
  bool IsLocal(MachineId m) const override { return m == me_; }
  MachineId me() const { return me_; }

  /// The port the listener actually bound (useful with ephemeral ports).
  uint16_t listen_port() const { return listen_port_; }

  void SetDeliverySink(DeliverySink sink) override;
  void Start() override;
  void Stop() override;
  void Send(MachineId src, MachineId dst, HandlerId handler,
            OutArchive payload) override;

  /// Estimated `peer` steady-clock offset (remote - local, ns) from the
  /// minimum-RTT clock-sync round trip; 0 until the first completed one.
  int64_t ClockOffsetNs(MachineId peer) const override;

  /// A few clock-probe round trips to every live peer (see above).
  void SyncClocks() override;

  /// Stall injection is a property of the simulated backend; here it
  /// logs once and is ignored.
  void InjectStall(MachineId machine,
                   std::chrono::nanoseconds duration) override;
  bool StallActive(MachineId) const override { return false; }

  void SetPeerDownListener(PeerDownCallback cb) override;
  void MarkPeerDown(MachineId peer) override;
  bool IsPeerDown(MachineId peer) const override;
  void EnableHeartbeats(std::chrono::milliseconds interval,
                        std::chrono::milliseconds timeout) override;

  /// InjectKill(me()): abrupt local death — sockets slam shut with no
  /// goodbye, the loop drops every frame from then on, every peer slot is marked down locally (so
  /// local waits unblock) and the listener fires for me() itself, letting
  /// the hosting thread observe its own demise.  Peers see a crash.
  /// InjectKill(p != me) just marks p down locally.
  void InjectKill(MachineId m) override;

  CommStats GetStats(MachineId machine) const override;
  std::vector<PeerCommStats> GetPeerStats(MachineId machine) const override;
  void ResetStats() override;
  metrics::MetricsRegistry& registry(MachineId m) override;

 private:
  struct Peer;
  struct Connection;

  void EventLoop();
  bool ReadConnection(Connection* c);
  bool HandleFrames(Connection* c);
  bool HandleFrame(Connection* c, uint8_t type, HandlerId handler,
                   uint64_t seq, const char* payload, size_t size);
  void Dispatch(MachineId src, HandlerId handler, uint64_t seq,
                const char* payload, size_t size);
  void DeliverSelfFrames();
  void DrainBacklog(Peer* peer);
  void MarkFailedSendersDown();
  bool WritesPending() const;
  void Wake();
  void HeartbeatLoop();
  void ConnectToPeer(MachineId p);
  void SendFrame(MachineId dst, uint8_t type, HandlerId handler,
                 const char* payload, size_t size, uint64_t seq = 0);
  void StartHeartbeatThreadLocked();

  MachineId me_ = 0;
  std::vector<std::string> endpoints_;  // host:port per machine
  std::chrono::milliseconds connect_timeout_;

  // This machine's metrics namespace (one registry per process == per
  // machine on TCP).  The rpc traffic counters below are cached lookups
  // into it; per-peer counters live in Peer.
  metrics::MetricsRegistry registry_;
  metrics::Counter* msgs_sent_ = nullptr;
  metrics::Counter* bytes_sent_ = nullptr;
  metrics::Counter* msgs_received_ = nullptr;
  metrics::Counter* bytes_received_ = nullptr;

  DeliverySink sink_;
  int listen_fd_ = -1;
  uint16_t listen_port_ = 0;

  std::vector<std::unique_ptr<Peer>> peers_;  // indexed by machine id

  // The event loop, its wakeup eventfd (self-sends, a backlog to watch,
  // Stop) and the accepted connections it reads.  conn_fds_ mirrors their
  // fds for InjectKill; they close only in Stop().
  std::thread loop_thread_;
  int wake_fd_ = -1;
  std::vector<std::unique_ptr<Connection>> connections_;  // loop only
  std::mutex conn_fds_mutex_;
  std::vector<int> conn_fds_;
  // The loop sets this to the time its last poll returned while it is
  // handling what that poll reported, and to 0 while it waits in poll.
  std::atomic<uint64_t> loop_busy_since_ns_{0};
  // Self-sends, handled by the loop like frames off the wire.
  std::mutex inbox_mutex_;
  std::vector<Message> inbox_;

  std::vector<std::thread> connector_threads_;

  // Causal id stamped on outgoing data frames (from 1; 0 = unstamped).
  std::atomic<uint64_t> data_seq_{0};
  // Clock sync: probe sequence numbers, and the replies' lock and wakeup.
  std::atomic<uint64_t> clock_seq_{0};
  std::mutex clock_mutex_;
  std::condition_variable clock_cv_;

  // Failure state.
  std::mutex peer_down_mutex_;
  PeerDownCallback peer_down_;

  // Heartbeat configuration (0 interval = disabled) and thread.
  std::mutex heartbeat_mutex_;
  std::chrono::milliseconds heartbeat_interval_{0};
  std::chrono::milliseconds heartbeat_timeout_{0};
  std::thread heartbeat_thread_;

  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> killed_{false};
  std::atomic<bool> stall_warned_{false};
};

/// Binds `n` loopback listeners on ephemeral ports and returns the
/// per-machine TcpOptions (listen_fd adopted, endpoints filled in) for a
/// whole cluster hosted in one process — the hermetic harness the
/// transport-parameterized tests run on.
Expected<std::vector<TcpOptions>> MakeLoopbackTcpCluster(size_t n);

/// "127.0.0.1:base_port + i" for i in [0, n) — the endpoint list for a
/// multi-process localhost cluster (examples/distributed_pagerank.cpp).
std::vector<std::string> LoopbackEndpoints(size_t n, uint16_t base_port);

}  // namespace rpc
}  // namespace graphlab

#endif  // GRAPHLAB_RPC_TCP_TRANSPORT_H_
