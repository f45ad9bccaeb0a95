#include "graphlab/rpc/tcp_transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "graphlab/metrics/trace_event.h"
#include "graphlab/rpc/clock_sync.h"
#include "graphlab/util/logging.h"

namespace graphlab {
namespace rpc {

namespace {

enum FrameType : uint8_t {
  kFrameData = 0,
  kFrameHello = 1,
  kFrameClockProbe = 2,
  kFrameClockReply = 3,
  kFramePing = 4,  // heartbeat; any received frame counts as liveness
};

/// Clock-sync round trips per live peer and SyncClocks() call; the
/// estimator keeps the minimum-RTT one.
constexpr int kClockSyncRounds = 4;

/// Cluster-unique flow id for the (origin machine, origin seq) causal
/// pair; +1 keeps machine 0's ids nonzero.
uint64_t FlowId(MachineId origin, uint64_t seq) {
  return ((static_cast<uint64_t>(origin) + 1) << 44) | seq;
}

uint64_t SteadyNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct FrameHeader {
  uint32_t magic = kTcpFrameMagic;
  uint16_t version = kTcpWireVersion;
  uint8_t type = kFrameData;
  uint8_t flags = 0;
  uint32_t src = 0;
  uint16_t handler = 0;
  uint16_t reserved = 0;
  uint64_t seq = 0;  // causal id on data frames; 0 on control frames
  uint32_t payload_size = 0;
};

void EncodeHeader(const FrameHeader& h, OutArchive* oa) {
  *oa << h.magic << h.version << h.type << h.flags << h.src << h.handler
      << h.reserved << h.seq << h.payload_size;
}

bool DecodeHeader(const char* bytes, FrameHeader* h) {
  InArchive ia(bytes, kTcpFrameHeaderBytes);
  ia >> h->magic >> h->version >> h->type >> h->flags >> h->src >>
      h->handler >> h->reserved >> h->seq >> h->payload_size;
  return ia.ok() && h->magic == kTcpFrameMagic &&
         h->version == kTcpWireVersion &&
         h->payload_size <= kTcpMaxFramePayload;
}

/// Reads exactly n bytes; false on EOF/error.
bool ReadFull(int fd, void* out, size_t n) {
  char* p = static_cast<char*>(out);
  while (n > 0) {
    ssize_t r = ::recv(fd, p, n, 0);
    if (r > 0) {
      p += r;
      n -= static_cast<size_t>(r);
      continue;
    }
    if (r < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

/// Writes exactly n bytes; false on error.  MSG_NOSIGNAL: a peer that
/// went away must surface as an error, not a SIGPIPE.
bool WriteFull(int fd, const void* data, size_t n) {
  const char* p = static_cast<const char*>(data);
  while (n > 0) {
    ssize_t w = ::send(fd, p, n, MSG_NOSIGNAL);
    if (w > 0) {
      p += w;
      n -= static_cast<size_t>(w);
      continue;
    }
    if (w < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

bool ParseEndpoint(const std::string& endpoint, std::string* host,
                   uint16_t* port) {
  size_t colon = endpoint.rfind(':');
  if (colon == std::string::npos) return false;
  *host = endpoint.substr(0, colon);
  int p = std::atoi(endpoint.c_str() + colon + 1);
  if (p < 0 || p > 65535) return false;
  *port = static_cast<uint16_t>(p);
  return true;
}

bool FillSockaddr(const std::string& host, uint16_t port,
                  sockaddr_in* addr) {
  std::memset(addr, 0, sizeof(*addr));
  addr->sin_family = AF_INET;
  addr->sin_port = htons(port);
  if (host.empty() || host == "*" || host == "0.0.0.0") {
    addr->sin_addr.s_addr = htonl(INADDR_ANY);
    return true;
  }
  if (host == "localhost") {
    addr->sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    return true;
  }
  return ::inet_pton(AF_INET, host.c_str(), &addr->sin_addr) == 1;
}

void SetNoDelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

int BindListener(const std::string& endpoint, uint16_t* bound_port) {
  std::string host;
  uint16_t port = 0;
  if (!ParseEndpoint(endpoint, &host, &port)) return -1;
  sockaddr_in addr;
  if (!FillSockaddr(host, port, &addr)) return -1;
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 64) != 0) {
    ::close(fd);
    return -1;
  }
  sockaddr_in actual;
  socklen_t len = sizeof(actual);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&actual), &len) == 0) {
    *bound_port = ntohs(actual.sin_port);
  }
  return fd;
}

uint16_t PortOfListener(int fd) {
  sockaddr_in actual;
  socklen_t len = sizeof(actual);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&actual), &len) == 0) {
    return ntohs(actual.sin_port);
  }
  return 0;
}

}  // namespace

/// One remote (or self) machine's send-side state and counters.
struct TcpTransport::Peer {
  MachineId id = 0;
  BlockingQueue<std::vector<char>> send_queue;  // pre-framed bytes
  std::thread send_thread;
  std::atomic<int> send_fd{-1};

  // Data-frame traffic accounting (control frames excluded).  Cached
  // lookups into the machine's metrics registry ("rpc.to.<p>.*" /
  // "rpc.from.<p>.*"); resettable through ResetStats.
  metrics::Counter* sent_msgs = nullptr;
  metrics::Counter* sent_bytes = nullptr;
  metrics::Counter* recv_msgs = nullptr;
  metrics::Counter* recv_bytes = nullptr;

  // Clock sync: the last answered probe, and the offset estimator fed by
  // completed round trips (guarded by clock_mutex_; the atomic mirrors
  // its current offset for lock-free ClockOffsetNs reads).
  uint64_t reply_seq = 0;
  ClockOffsetEstimator clock;
  std::atomic<int64_t> clock_offset_ns{0};

  // Failure detection state: steady-clock ns of the last frame received
  // from this peer (0 until its connection said hello), and the death
  // mark.
  std::atomic<uint64_t> last_heard_ns{0};
  std::atomic<bool> down{false};
};

TcpTransport::TcpTransport(TcpOptions options)
    : me_(options.me),
      endpoints_(options.endpoints),
      connect_timeout_(options.connect_timeout) {
  GL_CHECK_GE(endpoints_.size(), 1u) << "TcpOptions::endpoints empty";
  GL_CHECK_LT(me_, endpoints_.size());
  msgs_sent_ = registry_.counter("rpc.messages_sent");
  bytes_sent_ = registry_.counter("rpc.bytes_sent");
  msgs_received_ = registry_.counter("rpc.messages_received");
  bytes_received_ = registry_.counter("rpc.bytes_received");
  peers_.reserve(endpoints_.size());
  for (size_t i = 0; i < endpoints_.size(); ++i) {
    peers_.push_back(std::make_unique<Peer>());
    Peer& peer = *peers_.back();
    peer.id = static_cast<MachineId>(i);
    const std::string p = std::to_string(i);
    peer.sent_msgs = registry_.counter("rpc.to." + p + ".messages");
    peer.sent_bytes = registry_.counter("rpc.to." + p + ".bytes");
    peer.recv_msgs = registry_.counter("rpc.from." + p + ".messages");
    peer.recv_bytes = registry_.counter("rpc.from." + p + ".bytes");
  }
  if (options.listen_fd >= 0) {
    listen_fd_ = options.listen_fd;
    listen_port_ = PortOfListener(listen_fd_);
  } else {
    listen_fd_ = BindListener(endpoints_[me_], &listen_port_);
    GL_CHECK_GE(listen_fd_, 0)
        << "cannot bind TCP listener at " << endpoints_[me_];
  }
}

TcpTransport::~TcpTransport() {
  Stop();
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

void TcpTransport::SetDeliverySink(DeliverySink sink) {
  GL_CHECK(!started_.load()) << "SetDeliverySink after Start()";
  sink_ = std::move(sink);
}

void TcpTransport::Start() {
  bool expected = false;
  if (!started_.compare_exchange_strong(expected, true)) return;
  GL_CHECK(sink_) << "Start() before SetDeliverySink()";
  dispatch_thread_ = std::thread([this] { DispatchLoop(); });
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  for (MachineId p = 0; p < endpoints_.size(); ++p) {
    if (p == me_) continue;
    connector_threads_.emplace_back([this, p] { ConnectToPeer(p); });
  }
  std::lock_guard<std::mutex> lock(heartbeat_mutex_);
  StartHeartbeatThreadLocked();
}

void TcpTransport::ConnectToPeer(MachineId p) {
  std::string host;
  uint16_t port = 0;
  GL_CHECK(ParseEndpoint(endpoints_[p], &host, &port))
      << "bad endpoint " << endpoints_[p];
  // The listener may bind every interface; connect to loopback then.
  if (host.empty() || host == "*" || host == "0.0.0.0") host = "127.0.0.1";
  sockaddr_in addr;
  GL_CHECK(FillSockaddr(host, port, &addr))
      << "unresolvable endpoint " << endpoints_[p];

  const auto deadline =
      std::chrono::steady_clock::now() + connect_timeout_;
  int fd = -1;
  while (!stopping_.load(std::memory_order_acquire)) {
    // A peer declared dead while we were still dialing it (killed during
    // the startup window) stops being retried — the failure path, not a
    // crash, owns it from here.
    if (peers_[p]->down.load(std::memory_order_acquire)) return;
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    GL_CHECK_GE(fd, 0);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
        0) {
      break;
    }
    ::close(fd);
    fd = -1;
    if (std::chrono::steady_clock::now() >= deadline) {
      // An unconnectable WORKER is a dead peer, not a fatal condition of
      // THIS process: surface it as PeerDown so the fault subsystem can
      // recover (or, without one, so collectives stop waiting for it).
      // Machine 0 is the exception — it coordinates barriers, consensus
      // and recovery itself, so a process that cannot reach it is
      // useless and should fail loudly (likely a misconfigured
      // endpoint).
      if (p == 0) {
        GL_LOG(FATAL) << "machine " << me_
                      << ": cannot connect to coordinator machine 0 at "
                      << endpoints_[p] << " within "
                      << connect_timeout_.count() << "ms";
      }
      GL_LOG(ERROR) << "machine " << me_ << ": cannot connect to machine "
                    << p << " at " << endpoints_[p] << " within "
                    << connect_timeout_.count() << "ms; marking peer down";
      MarkPeerDown(p);
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  if (fd < 0) return;  // stopping
  SetNoDelay(fd);

  // Introduce ourselves, then hand the socket to the send thread.
  OutArchive hello;
  FrameHeader h;
  h.type = kFrameHello;
  h.src = me_;
  OutArchive payload;
  payload << static_cast<uint32_t>(me_)
          << static_cast<uint32_t>(endpoints_.size());
  h.payload_size = static_cast<uint32_t>(payload.size());
  EncodeHeader(h, &hello);
  hello.WriteBytes(payload.buffer().data(), payload.size());
  if (!WriteFull(fd, hello.buffer().data(), hello.size())) {
    ::close(fd);
    GL_LOG(ERROR) << "machine " << me_ << ": hello to " << p << " failed";
    return;
  }

  Peer& peer = *peers_[p];
  peer.send_fd.store(fd, std::memory_order_release);
  peer.send_thread = std::thread([this, fd, p] {
    Peer& pr = *peers_[p];
    for (;;) {
      auto frame = pr.send_queue.Pop();
      if (!frame.has_value()) return;
      if (pr.down.load(std::memory_order_acquire)) {
        // Peer declared dead (heartbeat timeout / receive-side EOF):
        // drop instead of writing into a black hole.  Keep draining so
        // producers never block.
        continue;
      }
      if (!WriteFull(fd, frame->data(), frame->size())) {
        if (!stopping_.load(std::memory_order_acquire) &&
            !killed_.load(std::memory_order_acquire)) {
          GL_LOG(ERROR) << "machine " << me_ << ": send to machine " << p
                        << " failed: " << std::strerror(errno)
                        << "; marking peer down";
          MarkPeerDown(p);
        }
        // Drain the queue so producers never block on a dead peer.
        while (pr.send_queue.Pop().has_value()) {
        }
        return;
      }
    }
  });
}

void TcpTransport::AcceptLoop() {
  for (;;) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load(std::memory_order_acquire)) return;
      if (errno == EINTR) continue;
      return;  // listener closed
    }
    SetNoDelay(fd);
    std::lock_guard<std::mutex> lock(receive_threads_mutex_);
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(fd);
      return;
    }
    receive_fds_.push_back(fd);
    receive_threads_.emplace_back([this, fd] { ReceiveLoop(fd); });
  }
}

void TcpTransport::ReceiveLoop(int fd) {
  char header_bytes[kTcpFrameHeaderBytes];
  MachineId from = kTcpFrameMagic;  // sentinel until hello arrives
  bool have_hello = false;
  std::vector<char> payload;
  // Receive-side EOF / truncation on an identified connection is how a
  // crashed peer (kill -9) most often surfaces; propagate it as a peer
  // death instead of silently parking the thread.  The death is queued
  // behind the frames already read: the dispatch thread handles the
  // peer's last data (a worker that exited normally sent it on purpose)
  // and only then marks the peer down.
  auto peer_lost = [&] {
    if (have_hello && !stopping_.load(std::memory_order_acquire) &&
        !killed_.load(std::memory_order_acquire)) {
      Inbound eos{Message{}, /*end_of_stream=*/true};
      eos.msg.src = from;
      eos.msg.dst = me_;
      dispatch_queue_.Push(std::move(eos));
    }
  };
  for (;;) {
    if (!ReadFull(fd, header_bytes, sizeof(header_bytes))) {
      peer_lost();
      return;
    }
    FrameHeader h;
    if (!DecodeHeader(header_bytes, &h)) {
      GL_LOG(ERROR) << "machine " << me_
                    << ": bad frame header (magic/version/size mismatch); "
                       "closing connection";
      peer_lost();
      return;
    }
    payload.resize(h.payload_size);
    if (h.payload_size > 0 &&
        !ReadFull(fd, payload.data(), h.payload_size)) {
      if (!stopping_.load(std::memory_order_acquire)) {
        GL_LOG(ERROR) << "machine " << me_
                      << ": connection truncated mid-frame";
      }
      peer_lost();
      return;
    }

    if (!have_hello) {
      InArchive ia(payload);
      uint32_t peer_id = ia.ReadValue<uint32_t>();
      uint32_t cluster = ia.ReadValue<uint32_t>();
      if (h.type != kFrameHello || !ia.ok() ||
          peer_id >= endpoints_.size() ||
          cluster != endpoints_.size()) {
        GL_LOG(ERROR) << "machine " << me_
                      << ": bad hello frame; closing connection";
        return;
      }
      from = peer_id;
      have_hello = true;
      peers_[from]->last_heard_ns.store(SteadyNowNs(),
                                        std::memory_order_release);
      continue;
    }
    if (h.src != from) {
      GL_LOG(ERROR) << "machine " << me_ << ": frame src " << h.src
                    << " on connection from " << from << "; closing";
      return;
    }

    Peer& peer = *peers_[from];
    peer.last_heard_ns.store(SteadyNowNs(), std::memory_order_release);
    switch (h.type) {
      case kFrameData: {
        peer.recv_msgs->Inc();
        peer.recv_bytes->Inc(kTcpFrameHeaderBytes + h.payload_size);
        msgs_received_->Inc();
        bytes_received_->Inc(kTcpFrameHeaderBytes + h.payload_size);
        Message msg;
        msg.src = from;
        msg.dst = me_;
        msg.handler = h.handler;
        msg.origin_seq = h.seq;
        msg.payload = std::move(payload);
        payload = std::vector<char>();
        dispatch_queue_.Push(Inbound{std::move(msg)});
        break;
      }
      case kFrameClockProbe: {
        // Echo the probe with this machine's own clock reading: the
        // prober turns the round trip into a midpoint offset estimate.
        InArchive ia(payload);
        uint64_t seq = ia.ReadValue<uint64_t>();
        uint64_t t_send = ia.ReadValue<uint64_t>();
        if (!ia.ok()) return;
        OutArchive reply;
        reply << seq << t_send << SteadyNowNs();
        EnqueueFrame(from, kFrameClockReply, 0, reply.TakeBuffer());
        break;
      }
      case kFrameClockReply: {
        InArchive ia(payload);
        uint64_t seq = ia.ReadValue<uint64_t>();
        uint64_t t_send_echo = ia.ReadValue<uint64_t>();
        uint64_t remote_now = ia.ReadValue<uint64_t>();
        if (!ia.ok()) return;
        const uint64_t t_recv = SteadyNowNs();
        {
          std::lock_guard<std::mutex> lock(clock_mutex_);
          peer.clock.AddObservation(t_send_echo, t_recv, remote_now);
          peer.clock_offset_ns.store(peer.clock.offset_ns(),
                                     std::memory_order_relaxed);
          peer.reply_seq = std::max(peer.reply_seq, seq);
        }
        clock_cv_.notify_all();
        break;
      }
      case kFramePing:
        break;  // liveness already stamped above
      default:
        GL_LOG(ERROR) << "machine " << me_ << ": unknown frame type "
                      << static_cast<int>(h.type);
        return;
    }
  }
}

void TcpTransport::DispatchLoop() {
  trace::MachineScope machine_scope(me_);
  DispatchThreadMark dispatch_mark(this, me_);
  for (;;) {
    auto in = dispatch_queue_.Pop();
    if (!in.has_value()) return;
    const Message& msg = in->msg;
    if (in->end_of_stream) {
      // Every frame the peer's connection carried has been handled.
      if (!stopping_.load(std::memory_order_acquire) &&
          !killed_.load(std::memory_order_acquire)) {
        MarkPeerDown(msg.src);
      }
      continue;
    }
    // A frame from a peer marked down some other way (heartbeat miss,
    // send error, InjectKill) is a stale remnant of the dead machine's
    // last moments; dropping it keeps recovery's rebuilt graph state
    // clean.
    if (peers_[msg.src]->down.load(std::memory_order_acquire) ||
        killed_.load(std::memory_order_acquire)) {
      continue;
    }
    GL_TRACE_SCOPE1(trace::kRpc, "dispatch", "handler", msg.handler);
    if (msg.origin_seq != 0) {
      GL_TRACE_FLOW_FINISH(trace::kRpc, "rpc.flow",
                           FlowId(msg.src, msg.origin_seq));
    }
    InArchive ia(msg.payload);
    sink_(me_, msg.src, msg.handler, ia);
  }
}

void TcpTransport::EnqueueFrame(MachineId dst, uint8_t type,
                                HandlerId handler,
                                std::vector<char> payload, uint64_t seq) {
  if (peers_[dst]->down.load(std::memory_order_acquire)) return;
  FrameHeader h;
  h.type = type;
  h.src = me_;
  h.handler = handler;
  h.seq = seq;
  h.payload_size = static_cast<uint32_t>(payload.size());
  OutArchive frame;
  EncodeHeader(h, &frame);
  frame.WriteBytes(payload.data(), payload.size());
  peers_[dst]->send_queue.Push(frame.TakeBuffer());
}

void TcpTransport::Send(MachineId src, MachineId dst, HandlerId handler,
                        OutArchive payload) {
  GL_CHECK(started_.load(std::memory_order_acquire))
      << "TcpTransport::Send before Start()";
  GL_CHECK_EQ(src, me_) << "TCP transport can only send as machine " << me_;
  GL_CHECK_LT(dst, endpoints_.size());

  std::vector<char> bytes = payload.TakeBuffer();
  const uint64_t wire_bytes = kTcpFrameHeaderBytes + bytes.size();
  Peer& peer = *peers_[dst];
  peer.sent_msgs->Inc();
  peer.sent_bytes->Inc(wire_bytes);
  msgs_sent_->Inc();
  bytes_sent_->Inc(wire_bytes);
  const uint64_t seq = data_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  GL_TRACE_INSTANT1(trace::kRpc, "send", "bytes", wire_bytes);
  if (trace::Enabled(trace::kRpc)) {
    // The caller thread may host several machines in loopback harnesses;
    // stamp the flow origin as this transport's machine explicitly.
    trace::MachineScope scope(me_);
    GL_TRACE_FLOW_SEND(trace::kRpc, "rpc.flow", FlowId(me_, seq));
  }
  if (dst == me_) {
    // Self-send: skip the wire, keep the dispatch-thread semantics.
    Message msg;
    msg.src = me_;
    msg.dst = me_;
    msg.handler = handler;
    msg.origin_seq = seq;
    msg.payload = std::move(bytes);
    peer.recv_msgs->Inc();
    peer.recv_bytes->Inc(wire_bytes);
    msgs_received_->Inc();
    bytes_received_->Inc(wire_bytes);
    dispatch_queue_.Push(Inbound{std::move(msg)});
    return;
  }
  EnqueueFrame(dst, kFrameData, handler, std::move(bytes), seq);
}

int64_t TcpTransport::ClockOffsetNs(MachineId peer) const {
  GL_CHECK_LT(peer, endpoints_.size());
  if (peer == me_) return 0;
  return peers_[peer]->clock_offset_ns.load(std::memory_order_relaxed);
}

void TcpTransport::SyncClocks() {
  for (int round = 0; round < kClockSyncRounds; ++round) {
    const uint64_t seq = ++clock_seq_;
    OutArchive probe;
    probe << seq << SteadyNowNs();
    std::vector<char> bytes = probe.TakeBuffer();
    for (MachineId p = 0; p < endpoints_.size(); ++p) {
      if (p != me_) EnqueueFrame(p, kFrameClockProbe, 0, bytes);
    }
    // Every live peer answers within a loopback or LAN round trip; the
    // timeout only bounds a stalled peer, which then keeps its older
    // estimate.
    std::unique_lock<std::mutex> lock(clock_mutex_);
    clock_cv_.wait_for(lock, std::chrono::seconds(1), [&] {
      if (stopping_.load(std::memory_order_acquire)) return true;
      for (MachineId p = 0; p < endpoints_.size(); ++p) {
        if (p != me_ && !peers_[p]->down.load(std::memory_order_acquire) &&
            peers_[p]->reply_seq < seq) {
          return false;
        }
      }
      return true;
    });
  }
}

void TcpTransport::SetPeerDownListener(PeerDownCallback cb) {
  std::lock_guard<std::mutex> lock(peer_down_mutex_);
  peer_down_ = std::move(cb);
}

void TcpTransport::MarkPeerDown(MachineId peer) {
  GL_CHECK_LT(peer, endpoints_.size());
  Peer& pr = *peers_[peer];
  bool expected = false;
  if (!pr.down.compare_exchange_strong(expected, true,
                                       std::memory_order_acq_rel)) {
    return;
  }
  GL_TRACE_INSTANT1(trace::kFault, "peer_down", "peer", peer);
  if (peer != me_) {
    GL_LOG(WARNING) << "machine " << me_ << ": peer " << peer
                    << " marked down";
  }
  // Wake a send thread stuck in a blocking write to the dead peer; the
  // fd stays open (Stop() owns the close) but further IO errors out.
  int fd = pr.send_fd.load(std::memory_order_acquire);
  if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
  // Stop a clock sync waiting for this peer's replies.
  {
    std::lock_guard<std::mutex> lock(clock_mutex_);
    clock_cv_.notify_all();
  }
  PeerDownCallback cb;
  {
    std::lock_guard<std::mutex> lock(peer_down_mutex_);
    cb = peer_down_;
  }
  if (cb) cb(peer);
}

bool TcpTransport::IsPeerDown(MachineId peer) const {
  GL_CHECK_LT(peer, endpoints_.size());
  return peers_[peer]->down.load(std::memory_order_acquire);
}

void TcpTransport::EnableHeartbeats(std::chrono::milliseconds interval,
                                    std::chrono::milliseconds timeout) {
  GL_CHECK_GT(interval.count(), 0);
  GL_CHECK_GE(timeout.count(), interval.count());
  std::lock_guard<std::mutex> lock(heartbeat_mutex_);
  if (heartbeat_thread_.joinable() &&
      (heartbeat_interval_ != interval || heartbeat_timeout_ != timeout)) {
    // The running prober captured its cadence at start; be loud rather
    // than silently detecting slower/faster than the caller configured.
    GL_LOG(WARNING) << "machine " << me_ << ": heartbeats already running "
                    << "at interval=" << heartbeat_interval_.count()
                    << "ms timeout=" << heartbeat_timeout_.count()
                    << "ms; ignoring reconfiguration to "
                    << interval.count() << "/" << timeout.count() << "ms";
    return;
  }
  heartbeat_interval_ = interval;
  heartbeat_timeout_ = timeout;
  if (started_.load(std::memory_order_acquire)) {
    StartHeartbeatThreadLocked();
  }
}

void TcpTransport::StartHeartbeatThreadLocked() {
  if (heartbeat_interval_.count() == 0) return;  // not enabled
  if (heartbeat_thread_.joinable()) return;      // already running
  heartbeat_thread_ = std::thread([this] { HeartbeatLoop(); });
}

void TcpTransport::HeartbeatLoop() {
  const std::chrono::milliseconds interval = heartbeat_interval_;
  const uint64_t timeout_ns =
      static_cast<uint64_t>(heartbeat_timeout_.count()) * 1000000ULL;
  while (!stopping_.load(std::memory_order_acquire) &&
         !killed_.load(std::memory_order_acquire)) {
    for (MachineId p = 0; p < endpoints_.size(); ++p) {
      if (p == me_) continue;
      Peer& peer = *peers_[p];
      if (peer.down.load(std::memory_order_acquire)) continue;
      // Only monitor peers whose connection has said hello; before that
      // the connect grace period (connect_timeout) governs.
      const uint64_t heard = peer.last_heard_ns.load(
          std::memory_order_acquire);
      if (heard != 0 && SteadyNowNs() - heard > timeout_ns) {
        GL_TRACE_INSTANT1(trace::kFault, "heartbeat_miss", "peer", p);
        GL_LOG(ERROR) << "machine " << me_ << ": peer " << p
                      << " missed heartbeats for "
                      << (SteadyNowNs() - heard) / 1000000 << "ms";
        MarkPeerDown(p);
        continue;
      }
      EnqueueFrame(p, kFramePing, 0, {});
    }
    std::this_thread::sleep_for(interval);
  }
}

void TcpTransport::InjectStall(MachineId machine,
                               std::chrono::nanoseconds) {
  if (!stall_warned_.exchange(true)) {
    GL_LOG(WARNING) << "InjectStall(" << machine
                    << ") ignored: stall injection is a feature of the "
                       "simulated transport";
  }
}

void TcpTransport::InjectKill(MachineId m) {
  if (m != me_) {
    MarkPeerDown(m);
    return;
  }
  if (killed_.exchange(true)) return;
  GL_LOG(WARNING) << "machine " << me_
                  << ": InjectKill — dying abruptly (no goodbye)";
  // Slam every socket shut so peers observe EOF, exactly like a crashed
  // process whose kernel resets its connections.  fds are only shut down
  // here, not closed — Stop() still owns the closes.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  {
    std::lock_guard<std::mutex> lock(receive_threads_mutex_);
    for (int fd : receive_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  for (auto& peer : peers_) {
    int fd = peer->send_fd.load(std::memory_order_acquire);
    if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
  }
  // Locally every peer is now unreachable, and this machine itself is
  // dead: mark everything down so any blocked wait on this machine
  // unblocks, and fire the listener for me() so the hosting program
  // thread can observe its own demise and wind down.
  for (MachineId p = 0; p < endpoints_.size(); ++p) MarkPeerDown(p);
}

CommStats TcpTransport::GetStats(MachineId machine) const {
  CommStats st;
  if (machine != me_) return st;  // remote stats live in remote processes
  st.messages_sent = msgs_sent_->Value();
  st.bytes_sent = bytes_sent_->Value();
  st.messages_received = msgs_received_->Value();
  st.bytes_received = bytes_received_->Value();
  return st;
}

std::vector<PeerCommStats> TcpTransport::GetPeerStats(
    MachineId machine) const {
  std::vector<PeerCommStats> out;
  if (machine != me_) return out;
  out.resize(peers_.size());
  for (size_t p = 0; p < peers_.size(); ++p) {
    out[p].peer = static_cast<MachineId>(p);
    out[p].messages_sent = peers_[p]->sent_msgs->Value();
    out[p].bytes_sent = peers_[p]->sent_bytes->Value();
    out[p].messages_received = peers_[p]->recv_msgs->Value();
    out[p].bytes_received = peers_[p]->recv_bytes->Value();
  }
  return out;
}

void TcpTransport::ResetStats() {
  msgs_sent_->Reset();
  bytes_sent_->Reset();
  msgs_received_->Reset();
  bytes_received_->Reset();
  for (auto& peer : peers_) {
    peer->sent_msgs->Reset();
    peer->sent_bytes->Reset();
    peer->recv_msgs->Reset();
    peer->recv_bytes->Reset();
  }
}

metrics::MetricsRegistry& TcpTransport::registry(MachineId m) {
  GL_CHECK_EQ(m, me_) << "TCP transport only hosts machine " << me_;
  return registry_;
}

void TcpTransport::Stop() {
  if (!started_.load()) return;
  if (stopping_.exchange(true)) return;
  {
    std::lock_guard<std::mutex> lock(clock_mutex_);
    clock_cv_.notify_all();
  }

  // 1. Stop producing: connector threads give up their retry loops, the
  //    heartbeat prober stops pinging.
  for (auto& t : connector_threads_) {
    if (t.joinable()) t.join();
  }
  {
    std::lock_guard<std::mutex> lock(heartbeat_mutex_);
    if (heartbeat_thread_.joinable()) heartbeat_thread_.join();
  }
  // 2. Drain and join the send side (queues drain fully on shutdown).
  for (auto& peer : peers_) peer->send_queue.Shutdown();
  for (auto& peer : peers_) {
    if (peer->send_thread.joinable()) peer->send_thread.join();
    int fd = peer->send_fd.exchange(-1);
    if (fd >= 0) ::close(fd);
  }
  // 3. Stop accepting and receiving.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    std::lock_guard<std::mutex> lock(receive_threads_mutex_);
    for (int fd : receive_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  for (auto& t : receive_threads_) {
    if (t.joinable()) t.join();
  }
  {
    std::lock_guard<std::mutex> lock(receive_threads_mutex_);
    for (int fd : receive_fds_) ::close(fd);
    receive_fds_.clear();
  }
  // 4. Drain and join dispatch.
  dispatch_queue_.Shutdown();
  if (dispatch_thread_.joinable()) dispatch_thread_.join();
  started_.store(false);
}

Expected<std::vector<TcpOptions>> MakeLoopbackTcpCluster(size_t n) {
  std::vector<TcpOptions> cluster(n);
  std::vector<std::string> endpoints(n);
  for (size_t i = 0; i < n; ++i) {
    uint16_t port = 0;
    int fd = BindListener("127.0.0.1:0", &port);
    if (fd < 0) {
      for (size_t j = 0; j < i; ++j) ::close(cluster[j].listen_fd);
      return Status::IOError("cannot bind loopback listener");
    }
    cluster[i].listen_fd = fd;
    endpoints[i] = "127.0.0.1:" + std::to_string(port);
  }
  for (size_t i = 0; i < n; ++i) {
    cluster[i].me = static_cast<MachineId>(i);
    cluster[i].endpoints = endpoints;
  }
  return cluster;
}

std::vector<std::string> LoopbackEndpoints(size_t n, uint16_t base_port) {
  std::vector<std::string> endpoints(n);
  for (size_t i = 0; i < n; ++i) {
    endpoints[i] = "127.0.0.1:" + std::to_string(base_port + i);
  }
  return endpoints;
}

}  // namespace rpc
}  // namespace graphlab
