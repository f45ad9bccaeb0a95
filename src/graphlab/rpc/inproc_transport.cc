#include "graphlab/rpc/inproc_transport.h"

#include <algorithm>

#include "graphlab/metrics/metrics.h"
#include "graphlab/metrics/trace_event.h"
#include "graphlab/util/logging.h"

namespace graphlab {
namespace rpc {

struct InProcessTransport::MachineState {
  explicit MachineState(size_t num_machines) {
    // Traffic accounting lives in the machine's metrics registry; the
    // pointers are resolved once here so the send path pays only relaxed
    // striped increments.
    msgs_sent = registry.counter("rpc.messages_sent");
    bytes_sent = registry.counter("rpc.bytes_sent");
    msgs_received = registry.counter("rpc.messages_received");
    bytes_received = registry.counter("rpc.bytes_received");
    peers.resize(num_machines);
    for (size_t p = 0; p < num_machines; ++p) {
      const std::string sp = std::to_string(p);
      peers[p].sent_msgs = registry.counter("rpc.to." + sp + ".messages");
      peers[p].sent_bytes = registry.counter("rpc.to." + sp + ".bytes");
      peers[p].recv_msgs = registry.counter("rpc.from." + sp + ".messages");
      peers[p].recv_bytes = registry.counter("rpc.from." + sp + ".bytes");
    }
  }

  TimedQueue<Message> inbox;
  std::thread dispatcher;

  /// This machine's metric namespace (rpc traffic below, plus whatever
  /// the engines/graph/fault subsystem running as this machine register).
  metrics::MetricsRegistry registry;

  // Registry-backed traffic counters: aggregates + per-peer breakdown
  // (slot [p] counts traffic to/from machine p).
  struct PeerCounters {
    metrics::Counter* sent_msgs = nullptr;
    metrics::Counter* sent_bytes = nullptr;
    metrics::Counter* recv_msgs = nullptr;
    metrics::Counter* recv_bytes = nullptr;
  };
  metrics::Counter* msgs_sent = nullptr;
  metrics::Counter* bytes_sent = nullptr;
  metrics::Counter* msgs_received = nullptr;
  metrics::Counter* bytes_received = nullptr;
  std::vector<PeerCounters> peers;

  // Causal id stamped on this machine's outgoing messages (from 1).
  std::atomic<uint64_t> data_seq{0};

  // Stall deadline in steady-clock nanoseconds; 0 = no stall.
  std::atomic<uint64_t> stall_until_ns{0};

  // Models serialized wire occupancy for the bandwidth delay: the time at
  // which the machine's NIC becomes free, in steady-clock nanoseconds.
  std::atomic<uint64_t> nic_free_at_ns{0};
};

namespace {
uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Cluster-unique flow id for the (origin machine, origin seq) causal
/// pair; +1 keeps machine 0's ids nonzero.  Matches the TCP backend so
/// mixed tooling renders both the same way.
uint64_t FlowId(MachineId origin, uint64_t seq) {
  return ((static_cast<uint64_t>(origin) + 1) << 44) | seq;
}
}  // namespace

InProcessTransport::InProcessTransport(size_t num_machines,
                                       CommOptions options)
    : num_machines_(num_machines), options_(options) {
  GL_CHECK_GE(num_machines, 1u);
  machines_.reserve(num_machines);
  down_.reserve(num_machines);
  for (size_t i = 0; i < num_machines; ++i) {
    machines_.push_back(std::make_unique<MachineState>(num_machines));
    down_.push_back(std::make_unique<std::atomic<bool>>(false));
  }
}

InProcessTransport::~InProcessTransport() { Stop(); }

void InProcessTransport::SetDeliverySink(DeliverySink sink) {
  GL_CHECK(!started_.load()) << "SetDeliverySink after Start()";
  sink_ = std::move(sink);
}

void InProcessTransport::Start() {
  bool expected = false;
  if (!started_.compare_exchange_strong(expected, true)) return;
  GL_CHECK(sink_) << "Start() before SetDeliverySink()";
  for (MachineId i = 0; i < num_machines_; ++i) {
    machines_[i]->dispatcher = std::thread([this, i] { DispatchLoop(i); });
  }
}

void InProcessTransport::Stop() {
  if (!started_.load()) return;
  for (auto& m : machines_) m->inbox.Shutdown();
  for (auto& m : machines_) {
    if (m->dispatcher.joinable()) m->dispatcher.join();
  }
  started_.store(false);
}

void InProcessTransport::Send(MachineId src, MachineId dst, HandlerId handler,
                              OutArchive payload) {
  GL_CHECK_LT(src, num_machines_);
  GL_CHECK_LT(dst, num_machines_);
  GL_CHECK(started_.load(std::memory_order_acquire))
      << "InProcessTransport::Send before Start()";

  // Traffic touching a dead machine vanishes: a dead sender cannot emit,
  // a dead receiver cannot handle.  Nothing is counted.
  if (down_[src]->load(std::memory_order_acquire) ||
      down_[dst]->load(std::memory_order_acquire)) {
    return;
  }

  Message msg;
  msg.src = src;
  msg.dst = dst;
  msg.handler = handler;
  msg.payload = payload.TakeBuffer();

  const uint64_t wire_bytes = msg.payload.size() + kMessageHeaderBytes;
  MachineState& s = *machines_[src];
  MachineState& d = *machines_[dst];
  s.msgs_sent->Inc();
  s.bytes_sent->Inc(wire_bytes);
  s.peers[dst].sent_msgs->Inc();
  s.peers[dst].sent_bytes->Inc(wire_bytes);
  d.msgs_received->Inc();
  d.bytes_received->Inc(wire_bytes);
  d.peers[src].recv_msgs->Inc();
  d.peers[src].recv_bytes->Inc(wire_bytes);
  GL_TRACE_INSTANT1(trace::kRpc, "send", "bytes", wire_bytes);
  msg.origin_seq = s.data_seq.fetch_add(1, std::memory_order_relaxed) + 1;
  if (trace::Enabled(trace::kRpc)) {
    // Caller threads host many machines here; stamp the flow origin as
    // the sending machine explicitly.
    trace::MachineScope scope(static_cast<uint32_t>(src));
    GL_TRACE_FLOW_SEND(trace::kRpc, "rpc.flow", FlowId(src, msg.origin_seq));
  }

  // Delivery time = max(now, nic_free) + serialization delay + latency.
  uint64_t now = NowNs();
  uint64_t depart = now;
  if (options_.bandwidth_bytes_per_sec > 0) {
    uint64_t ser_ns = wire_bytes * 1000000000ULL /
                      options_.bandwidth_bytes_per_sec;
    uint64_t free_at = s.nic_free_at_ns.load(std::memory_order_relaxed);
    uint64_t new_free;
    do {
      depart = std::max(now, free_at);
      new_free = depart + ser_ns;
    } while (!s.nic_free_at_ns.compare_exchange_weak(
        free_at, new_free, std::memory_order_relaxed));
    depart = new_free;
  }
  uint64_t deliver_ns =
      depart + static_cast<uint64_t>(options_.latency.count());

  // A push after shutdown is dropped: the destination is stopping.
  d.inbox.PushAt(std::move(msg), std::chrono::steady_clock::time_point(
                                     std::chrono::nanoseconds(deliver_ns)));
}

void InProcessTransport::DispatchLoop(MachineId machine) {
  // Identity for logs and traces: this thread acts as `machine`.
  SetThreadLogMachineId(static_cast<int>(machine));
  SetThreadName("dispatch-" + std::to_string(machine));
  trace::MachineScope machine_scope(static_cast<uint32_t>(machine));
  DispatchThreadMark dispatch_mark(this, machine);
  MachineState& m = *machines_[machine];
  for (;;) {
    auto msg = m.inbox.Pop();
    if (!msg.has_value()) return;

    // Honor an injected stall: freeze before handling, like a descheduled
    // process whose TCP receive queue backs up.
    uint64_t stall = m.stall_until_ns.load(std::memory_order_acquire);
    if (stall != 0) {
      uint64_t now = NowNs();
      if (now < stall) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(stall - now));
      }
      m.stall_until_ns.store(0, std::memory_order_release);
    }

    // A dead destination handles nothing; a dead source's in-flight
    // messages are dropped (its state is being discarded by recovery).
    if (down_[machine]->load(std::memory_order_acquire) ||
        down_[msg->src]->load(std::memory_order_acquire)) {
      continue;
    }

    GL_TRACE_SCOPE1(trace::kRpc, "dispatch", "handler", msg->handler);
    GL_TRACE_FLOW_FINISH(trace::kRpc, "rpc.flow",
                         FlowId(msg->src, msg->origin_seq));
    InArchive ia(msg->payload);
    sink_(machine, msg->src, msg->handler, ia);
  }
}

void InProcessTransport::SetPeerDownListener(PeerDownCallback cb) {
  std::lock_guard<std::mutex> lock(peer_down_mutex_);
  peer_down_ = std::move(cb);
}

void InProcessTransport::MarkPeerDown(MachineId peer) {
  GL_CHECK_LT(peer, num_machines_);
  bool expected = false;
  if (!down_[peer]->compare_exchange_strong(expected, true,
                                            std::memory_order_acq_rel)) {
    return;
  }
  GL_TRACE_INSTANT1(trace::kFault, "peer_down", "peer", peer);
  PeerDownCallback cb;
  {
    std::lock_guard<std::mutex> lock(peer_down_mutex_);
    cb = peer_down_;
  }
  if (cb) cb(peer);
}

bool InProcessTransport::IsPeerDown(MachineId peer) const {
  GL_CHECK_LT(peer, num_machines_);
  return down_[peer]->load(std::memory_order_acquire);
}

void InProcessTransport::EnableHeartbeats(std::chrono::milliseconds,
                                          std::chrono::milliseconds) {
  // The simulated interconnect cannot lose a machine on its own; deaths
  // arrive via InjectKill, which notifies peers synchronously.
}

void InProcessTransport::InjectKill(MachineId m) { MarkPeerDown(m); }

void InProcessTransport::InjectStall(MachineId machine,
                                     std::chrono::nanoseconds duration) {
  GL_CHECK_LT(machine, num_machines_);
  uint64_t until = NowNs() + static_cast<uint64_t>(duration.count());
  machines_[machine]->stall_until_ns.store(until, std::memory_order_release);
}

bool InProcessTransport::StallActive(MachineId machine) const {
  GL_CHECK_LT(machine, num_machines_);
  uint64_t until =
      machines_[machine]->stall_until_ns.load(std::memory_order_acquire);
  return until != 0 && NowNs() < until;
}

CommStats InProcessTransport::GetStats(MachineId machine) const {
  GL_CHECK_LT(machine, num_machines_);
  const MachineState& m = *machines_[machine];
  CommStats st;
  st.messages_sent = m.msgs_sent->Value();
  st.bytes_sent = m.bytes_sent->Value();
  st.messages_received = m.msgs_received->Value();
  st.bytes_received = m.bytes_received->Value();
  return st;
}

std::vector<PeerCommStats> InProcessTransport::GetPeerStats(
    MachineId machine) const {
  GL_CHECK_LT(machine, num_machines_);
  const MachineState& m = *machines_[machine];
  std::vector<PeerCommStats> out(num_machines_);
  for (MachineId p = 0; p < num_machines_; ++p) {
    out[p].peer = p;
    out[p].messages_sent = m.peers[p].sent_msgs->Value();
    out[p].bytes_sent = m.peers[p].sent_bytes->Value();
    out[p].messages_received = m.peers[p].recv_msgs->Value();
    out[p].bytes_received = m.peers[p].recv_bytes->Value();
  }
  return out;
}

void InProcessTransport::ResetStats() {
  for (auto& m : machines_) {
    m->msgs_sent->Reset();
    m->bytes_sent->Reset();
    m->msgs_received->Reset();
    m->bytes_received->Reset();
    for (auto& p : m->peers) {
      p.sent_msgs->Reset();
      p.sent_bytes->Reset();
      p.recv_msgs->Reset();
      p.recv_bytes->Reset();
    }
  }
}

metrics::MetricsRegistry& InProcessTransport::registry(MachineId m) {
  GL_CHECK_LT(m, num_machines_);
  return machines_[m]->registry;
}

}  // namespace rpc
}  // namespace graphlab
