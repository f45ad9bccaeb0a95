#include "graphlab/rpc/tcp_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
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

/// What one recv asks a connection for at least: enough for many small
/// frames per call.
constexpr size_t kReadChunkBytes = 64 << 10;

/// Reads of one connection per loop turn before the others get theirs.
constexpr int kReadsPerTurn = 16;

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

/// Writes the 28 header bytes, little-endian (the archive encoding).
void EncodeHeader(const FrameHeader& h, char* out) {
  auto put = [&out](uint64_t v, size_t bytes) {
    for (size_t i = 0; i < bytes; ++i) *out++ = static_cast<char>(v >> (8 * i));
  };
  put(h.magic, 4);
  put(h.version, 2);
  put(h.type, 1);
  put(h.flags, 1);
  put(h.src, 4);
  put(h.handler, 2);
  put(h.reserved, 2);
  put(h.seq, 8);
  put(h.payload_size, 4);
}

bool DecodeHeader(const char* bytes, FrameHeader* h) {
  InArchive ia(bytes, kTcpFrameHeaderBytes);
  ia >> h->magic >> h->version >> h->type >> h->flags >> h->src >>
      h->handler >> h->reserved >> h->seq >> h->payload_size;
  return ia.ok() && h->magic == kTcpFrameMagic &&
         h->version == kTcpWireVersion &&
         h->payload_size <= kTcpMaxFramePayload;
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

/// Non-blocking write of as much of `iov` as the socket takes now
/// (advancing `iov` past it); the byte count, or -1 on a send error.
ssize_t SendSome(int fd, iovec* iov, int iovcnt) {
  msghdr msg{};
  msg.msg_iov = iov;
  msg.msg_iovlen = static_cast<size_t>(iovcnt);
  size_t total = 0;
  while (msg.msg_iovlen > 0) {
    const ssize_t w = ::sendmsg(fd, &msg, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (w < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      return -1;
    }
    total += static_cast<size_t>(w);
    size_t left = static_cast<size_t>(w);
    while (msg.msg_iovlen > 0 && left >= msg.msg_iov->iov_len) {
      left -= msg.msg_iov->iov_len;
      ++msg.msg_iov;
      --msg.msg_iovlen;
    }
    if (msg.msg_iovlen > 0) {
      msg.msg_iov->iov_base = static_cast<char*>(msg.msg_iov->iov_base) + left;
      msg.msg_iov->iov_len -= left;
    }
  }
  return static_cast<ssize_t>(total);
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

  // Send side.  send_fd is the outbound connection (-1 until the
  // connector has said hello, and again after Stop()); backlog holds, in
  // order, the bytes the socket has not taken yet, from backlog_head on.
  // want_write mirrors "backlog non-empty on a connected socket" for the
  // loop, which then polls the socket for POLLOUT.  All but want_write's
  // reads are guarded by send_mutex.
  std::mutex send_mutex;
  std::atomic<int> send_fd{-1};
  std::vector<char> backlog;
  size_t backlog_head = 0;
  std::atomic<bool> want_write{false};

  // A send error, noted by whichever thread hit it (its errno in
  // send_error, guarded by send_mutex).  The loop marks the peer down at
  // the top of its next turn, outside every handler and every lock a
  // sender may hold, since the PeerDown listeners run in MarkPeerDown.
  std::atomic<bool> send_failed{false};
  int send_error = 0;

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

  /// Writes as much of the backlog as the socket takes now; false on a
  /// send error.  Caller holds send_mutex and fd >= 0.
  bool DrainLocked(int fd) {
    iovec iov{backlog.data() + backlog_head, backlog.size() - backlog_head};
    const ssize_t w = SendSome(fd, &iov, 1);
    if (w < 0) return false;
    backlog_head += static_cast<size_t>(w);
    if (backlog_head == backlog.size()) {
      backlog.clear();
      backlog_head = 0;
    } else if (backlog_head > backlog.size() / 2) {
      backlog.erase(backlog.begin(),
                    backlog.begin() + static_cast<ptrdiff_t>(backlog_head));
      backlog_head = 0;
    }
    return true;
  }

  /// Notes a send error and drops the backlog; frames submitted from now
  /// on are dropped too.  Caller holds send_mutex.
  void FailLocked(int error) {
    send_error = error;
    send_failed.store(true, std::memory_order_release);
    backlog = std::vector<char>();
    backlog_head = 0;
    want_write.store(false, std::memory_order_release);
  }
};

/// One accepted connection, read by the event loop: `buf[begin, end)`
/// holds bytes read but not yet handled, and `frame_bytes` the size of
/// the frame they start once its header is known (0 otherwise).
struct TcpTransport::Connection {
  int fd = -1;
  bool have_hello = false;
  MachineId from = 0;
  std::vector<char> buf;
  size_t begin = 0;
  size_t end = 0;
  size_t frame_bytes = 0;
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
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  GL_CHECK_GE(wake_fd_, 0) << "eventfd: " << std::strerror(errno);
}

TcpTransport::~TcpTransport() {
  Stop();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  ::close(wake_fd_);
}

void TcpTransport::SetDeliverySink(DeliverySink sink) {
  GL_CHECK(!started_.load()) << "SetDeliverySink after Start()";
  sink_ = std::move(sink);
}

void TcpTransport::Start() {
  bool expected = false;
  if (!started_.compare_exchange_strong(expected, true)) return;
  GL_CHECK(sink_) << "Start() before SetDeliverySink()";
  // The loop accepts only what poll reported; a connection reset in
  // between must not block it.
  ::fcntl(listen_fd_, F_SETFL, ::fcntl(listen_fd_, F_GETFL) | O_NONBLOCK);
  loop_thread_ = std::thread([this] { EventLoop(); });
  for (MachineId p = 0; p < endpoints_.size(); ++p) {
    if (p == me_) continue;
    connector_threads_.emplace_back([this, p] { ConnectToPeer(p); });
  }
  std::lock_guard<std::mutex> lock(heartbeat_mutex_);
  StartHeartbeatThreadLocked();
}

void TcpTransport::Wake() {
  const uint64_t one = 1;
  // A full counter already means "wake up"; nothing else can fail here.
  [[maybe_unused]] ssize_t w = ::write(wake_fd_, &one, sizeof(one));
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

  // Introduce ourselves, then publish the socket to the senders; frames
  // sent before now wait in the backlog, and the loop writes them out.
  OutArchive payload;
  payload << static_cast<uint32_t>(me_)
          << static_cast<uint32_t>(endpoints_.size());
  FrameHeader h;
  h.type = kFrameHello;
  h.src = me_;
  h.payload_size = static_cast<uint32_t>(payload.size());
  std::vector<char> hello(kTcpFrameHeaderBytes);
  EncodeHeader(h, hello.data());
  hello.insert(hello.end(), payload.buffer().begin(), payload.buffer().end());
  if (!WriteFull(fd, hello.data(), hello.size())) {
    ::close(fd);
    GL_LOG(ERROR) << "machine " << me_ << ": hello to " << p << " failed";
    return;
  }

  Peer& peer = *peers_[p];
  bool wake = false;
  {
    std::lock_guard<std::mutex> lock(peer.send_mutex);
    peer.send_fd.store(fd, std::memory_order_release);
    if (peer.backlog_head < peer.backlog.size()) {
      peer.want_write.store(true, std::memory_order_release);
      wake = true;
    }
  }
  if (wake) Wake();
}

void TcpTransport::EventLoop() {
  trace::MachineScope machine_scope(me_);
  DispatchThreadMark dispatch_mark(this, me_);
  std::vector<pollfd> fds;
  std::vector<Connection*> polled_connections;
  std::vector<Peer*> polled_peers;
  bool listening = true;
  for (;;) {
    MarkFailedSendersDown();
    const bool stopping = stopping_.load(std::memory_order_acquire);
    if (stopping && !WritesPending()) {
      std::lock_guard<std::mutex> lock(inbox_mutex_);
      if (inbox_.empty()) break;
    }
    fds.clear();
    polled_connections.clear();
    polled_peers.clear();
    fds.push_back({wake_fd_, POLLIN, 0});
    if (listening && !stopping) fds.push_back({listen_fd_, POLLIN, 0});
    const size_t first_connection = fds.size();
    for (const auto& c : connections_) {
      fds.push_back({c->fd, POLLIN, 0});
      polled_connections.push_back(c.get());
    }
    const size_t first_peer = fds.size();
    for (const auto& peer : peers_) {
      if (!peer->want_write.load(std::memory_order_acquire)) continue;
      fds.push_back({peer->send_fd.load(std::memory_order_acquire),
                     POLLOUT, 0});
      polled_peers.push_back(peer.get());
    }

    loop_busy_since_ns_.store(0, std::memory_order_release);
    // Stop() wakes the loop, but a bounded wait keeps its drain check
    // going whatever order the wakeups come in.
    const int ready = ::poll(fds.data(), fds.size(), stopping ? 10 : -1);
    loop_busy_since_ns_.store(SteadyNowNs(), std::memory_order_release);
    if (ready < 0) {
      GL_CHECK_EQ(errno, EINTR) << "poll: " << std::strerror(errno);
      continue;
    }

    if (fds[0].revents != 0) {
      uint64_t count;
      [[maybe_unused]] ssize_t r = ::read(wake_fd_, &count, sizeof(count));
      DeliverSelfFrames();
    }
    if (first_connection > 1 && fds[1].revents != 0) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd >= 0) {
        SetNoDelay(fd);
        auto c = std::make_unique<Connection>();
        c->fd = fd;
        connections_.push_back(std::move(c));
        std::lock_guard<std::mutex> lock(conn_fds_mutex_);
        conn_fds_.push_back(fd);
      } else if (errno != EINTR && errno != EAGAIN &&
                 errno != ECONNABORTED) {
        listening = false;  // listener shut down (InjectKill)
      }
    }
    for (size_t i = 0; i < polled_connections.size(); ++i) {
      if (fds[first_connection + i].revents == 0) continue;
      Connection* c = polled_connections[i];
      if (!ReadConnection(c)) {
        // Done with it; the fd itself closes in Stop().
        connections_.erase(std::find_if(
            connections_.begin(), connections_.end(),
            [c](const auto& owned) { return owned.get() == c; }));
      }
    }
    for (size_t i = 0; i < polled_peers.size(); ++i) {
      if (fds[first_peer + i].revents != 0) DrainBacklog(polled_peers[i]);
    }
  }
}

void TcpTransport::MarkFailedSendersDown() {
  if (stopping_.load(std::memory_order_acquire) ||
      killed_.load(std::memory_order_acquire)) {
    return;
  }
  for (const auto& peer : peers_) {
    if (!peer->send_failed.load(std::memory_order_acquire) ||
        peer->down.load(std::memory_order_acquire)) {
      continue;
    }
    int error;
    {
      std::lock_guard<std::mutex> lock(peer->send_mutex);
      error = peer->send_error;
    }
    GL_LOG(ERROR) << "machine " << me_ << ": send to machine " << peer->id
                  << " failed: " << std::strerror(error)
                  << "; marking peer down";
    MarkPeerDown(peer->id);
  }
}

bool TcpTransport::WritesPending() const {
  for (const auto& peer : peers_) {
    if (peer->want_write.load(std::memory_order_acquire)) return true;
  }
  return false;
}

bool TcpTransport::ReadConnection(Connection* c) {
  // A bounded number of reads per turn, so one busy peer cannot starve
  // the other connections.
  for (int reads = 0; reads < kReadsPerTurn; ++reads) {
    // Keep the unhandled tail at the front, and room for a whole frame.
    if (c->begin > 0) {
      std::memmove(c->buf.data(), c->buf.data() + c->begin,
                   c->end - c->begin);
      c->end -= c->begin;
      c->begin = 0;
    }
    const size_t room = std::max(c->frame_bytes, kReadChunkBytes);
    if (c->buf.size() < room) c->buf.resize(room);
    const size_t space = c->buf.size() - c->end;
    const ssize_t r = ::recv(c->fd, c->buf.data() + c->end, space,
                             MSG_DONTWAIT);
    if (r > 0) {
      c->end += static_cast<size_t>(r);
      if (c->have_hello) {
        peers_[c->from]->last_heard_ns.store(SteadyNowNs(),
                                             std::memory_order_release);
      }
      if (!HandleFrames(c)) return false;
      if (c->begin == c->end) {
        c->begin = c->end = 0;
        // Give back the room a large frame took once it has been handled.
        if (c->buf.size() > kReadChunkBytes) {
          std::vector<char>(kReadChunkBytes).swap(c->buf);
        }
      }
      if (static_cast<size_t>(r) < space) return true;  // drained
      continue;
    }
    if (r < 0 && errno == EINTR) continue;
    if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    // EOF or a reset.  Every complete frame the connection carried has
    // been handled above; a crashed peer (kill -9) most often surfaces
    // here, so this is its death.
    const bool stopping = stopping_.load(std::memory_order_acquire) ||
                          killed_.load(std::memory_order_acquire);
    if (c->end > c->begin && !stopping) {
      GL_LOG(ERROR) << "machine " << me_
                    << ": connection truncated mid-frame";
    }
    if (c->have_hello && !stopping) MarkPeerDown(c->from);
    return false;
  }
  return true;
}

bool TcpTransport::HandleFrames(Connection* c) {
  c->frame_bytes = 0;
  while (c->end - c->begin >= kTcpFrameHeaderBytes) {
    FrameHeader h;
    if (!DecodeHeader(c->buf.data() + c->begin, &h)) {
      GL_LOG(ERROR) << "machine " << me_
                    << ": bad frame header (magic/version/size mismatch); "
                       "closing connection";
      if (c->have_hello && !stopping_.load(std::memory_order_acquire) &&
          !killed_.load(std::memory_order_acquire)) {
        MarkPeerDown(c->from);
      }
      return false;
    }
    const size_t frame = kTcpFrameHeaderBytes + h.payload_size;
    if (c->end - c->begin < frame) {
      c->frame_bytes = frame;
      return true;
    }
    const char* payload = c->buf.data() + c->begin + kTcpFrameHeaderBytes;
    c->begin += frame;
    if (!c->have_hello) {
      InArchive ia(payload, h.payload_size);
      uint32_t peer_id = ia.ReadValue<uint32_t>();
      uint32_t cluster = ia.ReadValue<uint32_t>();
      if (h.type != kFrameHello || !ia.ok() ||
          peer_id >= endpoints_.size() ||
          cluster != endpoints_.size()) {
        GL_LOG(ERROR) << "machine " << me_
                      << ": bad hello frame; closing connection";
        return false;
      }
      c->from = peer_id;
      c->have_hello = true;
      peers_[c->from]->last_heard_ns.store(SteadyNowNs(),
                                           std::memory_order_release);
      continue;
    }
    if (h.src != c->from) {
      GL_LOG(ERROR) << "machine " << me_ << ": frame src " << h.src
                    << " on connection from " << c->from << "; closing";
      return false;
    }
    if (!HandleFrame(c, h.type, h.handler, h.seq, payload, h.payload_size)) {
      return false;
    }
  }
  return true;
}

bool TcpTransport::HandleFrame(Connection* c, uint8_t type,
                               HandlerId handler, uint64_t seq,
                               const char* payload, size_t size) {
  const MachineId from = c->from;
  Peer& peer = *peers_[from];
  switch (type) {
    case kFrameData:
      peer.recv_msgs->Inc();
      peer.recv_bytes->Inc(kTcpFrameHeaderBytes + size);
      msgs_received_->Inc();
      bytes_received_->Inc(kTcpFrameHeaderBytes + size);
      Dispatch(from, handler, seq, payload, size);
      return true;
    case kFrameClockProbe: {
      // Echo the probe with this machine's own clock reading: the
      // prober turns the round trip into a midpoint offset estimate.
      InArchive ia(payload, size);
      uint64_t probe_seq = ia.ReadValue<uint64_t>();
      uint64_t t_send = ia.ReadValue<uint64_t>();
      if (!ia.ok()) return false;
      OutArchive reply;
      reply << probe_seq << t_send << SteadyNowNs();
      SendFrame(from, kFrameClockReply, 0, reply.buffer().data(),
                reply.size());
      return true;
    }
    case kFrameClockReply: {
      InArchive ia(payload, size);
      uint64_t reply_seq = ia.ReadValue<uint64_t>();
      uint64_t t_send_echo = ia.ReadValue<uint64_t>();
      uint64_t remote_now = ia.ReadValue<uint64_t>();
      if (!ia.ok()) return false;
      const uint64_t t_recv = SteadyNowNs();
      {
        std::lock_guard<std::mutex> lock(clock_mutex_);
        peer.clock.AddObservation(t_send_echo, t_recv, remote_now);
        peer.clock_offset_ns.store(peer.clock.offset_ns(),
                                   std::memory_order_relaxed);
        peer.reply_seq = std::max(peer.reply_seq, reply_seq);
      }
      clock_cv_.notify_all();
      return true;
    }
    case kFramePing:
      return true;  // liveness already stamped by the read
    default:
      GL_LOG(ERROR) << "machine " << me_ << ": unknown frame type "
                    << static_cast<int>(type);
      return false;
  }
}

void TcpTransport::Dispatch(MachineId src, HandlerId handler, uint64_t seq,
                            const char* payload, size_t size) {
  // A frame from a peer marked down some other way (heartbeat miss,
  // send error, InjectKill) is a stale remnant of the dead machine's
  // last moments; dropping it keeps recovery's rebuilt graph state
  // clean.
  if (peers_[src]->down.load(std::memory_order_acquire) ||
      killed_.load(std::memory_order_acquire)) {
    return;
  }
  GL_TRACE_SCOPE1(trace::kRpc, "dispatch", "handler", handler);
  if (seq != 0) {
    GL_TRACE_FLOW_FINISH(trace::kRpc, "rpc.flow", FlowId(src, seq));
  }
  InArchive ia(payload, size);
  sink_(me_, src, handler, ia);
}

void TcpTransport::DeliverSelfFrames() {
  std::vector<Message> batch;
  {
    std::lock_guard<std::mutex> lock(inbox_mutex_);
    batch.swap(inbox_);
  }
  for (const Message& msg : batch) {
    Dispatch(me_, msg.handler, msg.origin_seq, msg.payload.data(),
             msg.payload.size());
  }
}

void TcpTransport::DrainBacklog(Peer* peer) {
  // A failure is marked down at the top of the loop's next turn.
  std::lock_guard<std::mutex> lock(peer->send_mutex);
  const int fd = peer->send_fd.load(std::memory_order_relaxed);
  if (fd >= 0 && peer->backlog_head < peer->backlog.size() &&
      !peer->DrainLocked(fd)) {
    peer->FailLocked(errno);
  }
  if (peer->backlog_head == peer->backlog.size()) {
    peer->want_write.store(false, std::memory_order_release);
  }
}

void TcpTransport::SendFrame(MachineId dst, uint8_t type, HandlerId handler,
                             const char* payload, size_t size,
                             uint64_t seq) {
  Peer& peer = *peers_[dst];
  FrameHeader h;
  h.type = type;
  h.src = me_;
  h.handler = handler;
  h.seq = seq;
  h.payload_size = static_cast<uint32_t>(size);
  char header[kTcpFrameHeaderBytes];
  EncodeHeader(h, header);
  const size_t total = kTcpFrameHeaderBytes + size;
  bool failed = false;
  bool wake = false;
  {
    std::lock_guard<std::mutex> lock(peer.send_mutex);
    if (peer.down.load(std::memory_order_acquire) ||
        peer.send_failed.load(std::memory_order_relaxed)) {
      return;
    }
    const int fd = peer.send_fd.load(std::memory_order_relaxed);
    size_t written = 0;
    if (fd >= 0) {
      // Earlier bytes go first; write this frame through only behind an
      // empty backlog.
      failed = peer.backlog_head < peer.backlog.size() &&
               !peer.DrainLocked(fd);
      if (!failed && peer.backlog_head == peer.backlog.size()) {
        iovec iov[2] = {{header, kTcpFrameHeaderBytes},
                        {const_cast<char*>(payload), size}};
        const ssize_t w = SendSome(fd, iov, 2);
        failed = w < 0;
        if (!failed) written = static_cast<size_t>(w);
      }
      // The caller may be a handler, or hold locks a PeerDown listener
      // takes: leave the death to the loop.
      if (failed) peer.FailLocked(errno);
    }
    if (!failed && written < total) {
      // The unwritten rest of this frame: a header tail, then payload.
      const size_t header_done = std::min(written, kTcpFrameHeaderBytes);
      peer.backlog.insert(peer.backlog.end(), header + header_done,
                          header + kTcpFrameHeaderBytes);
      const size_t payload_done = written - header_done;
      peer.backlog.insert(peer.backlog.end(), payload + payload_done,
                          payload + size);
      if (fd >= 0 && !peer.want_write.load(std::memory_order_relaxed)) {
        peer.want_write.store(true, std::memory_order_release);
        wake = true;
      }
    }
  }
  if (failed || wake) Wake();
}

void TcpTransport::Send(MachineId src, MachineId dst, HandlerId handler,
                        OutArchive payload) {
  GL_CHECK(started_.load(std::memory_order_acquire))
      << "TcpTransport::Send before Start()";
  GL_CHECK_EQ(src, me_) << "TCP transport can only send as machine " << me_;
  GL_CHECK_LT(dst, endpoints_.size());

  const uint64_t wire_bytes = kTcpFrameHeaderBytes + payload.size();
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
    msg.payload = payload.TakeBuffer();
    peer.recv_msgs->Inc();
    peer.recv_bytes->Inc(wire_bytes);
    msgs_received_->Inc();
    bytes_received_->Inc(wire_bytes);
    bool wake;
    {
      std::lock_guard<std::mutex> lock(inbox_mutex_);
      wake = inbox_.empty();
      inbox_.push_back(std::move(msg));
    }
    if (wake) Wake();
    return;
  }
  SendFrame(dst, kFrameData, handler, payload.buffer().data(),
            payload.size(), seq);
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
    for (MachineId p = 0; p < endpoints_.size(); ++p) {
      if (p != me_) {
        SendFrame(p, kFrameClockProbe, 0, probe.buffer().data(),
                  probe.size());
      }
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
  // Drop what is still waiting for the dead peer and end the connection
  // so it sees EOF; the fd stays open (Stop() owns the close).
  {
    std::lock_guard<std::mutex> lock(pr.send_mutex);
    pr.backlog = std::vector<char>();
    pr.backlog_head = 0;
    pr.want_write.store(false, std::memory_order_release);
    const int fd = pr.send_fd.load(std::memory_order_relaxed);
    if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
  }
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
      // the connect grace period (connect_timeout) governs.  While the
      // loop runs a handler, frames that came after its last poll are
      // unread, so silence counts only up to that poll.
      const uint64_t heard = peer.last_heard_ns.load(
          std::memory_order_acquire);
      const uint64_t busy_since =
          loop_busy_since_ns_.load(std::memory_order_acquire);
      const uint64_t seen = busy_since != 0 ? busy_since : SteadyNowNs();
      if (heard != 0 && seen > heard && seen - heard > timeout_ns) {
        GL_TRACE_INSTANT1(trace::kFault, "heartbeat_miss", "peer", p);
        GL_LOG(ERROR) << "machine " << me_ << ": peer " << p
                      << " missed heartbeats for "
                      << (seen - heard) / 1000000 << "ms";
        MarkPeerDown(p);
        continue;
      }
      SendFrame(p, kFramePing, 0, nullptr, 0);
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
    std::lock_guard<std::mutex> lock(conn_fds_mutex_);
    for (int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  for (auto& peer : peers_) {
    std::lock_guard<std::mutex> lock(peer->send_mutex);
    const int fd = peer->send_fd.load(std::memory_order_relaxed);
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
  // 2. The loop stops accepting, keeps reading and handling until every
  //    live peer's backlog and the self inbox are drained, and exits.
  Wake();
  if (loop_thread_.joinable()) loop_thread_.join();
  // 3. Close everything.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  connections_.clear();
  {
    std::lock_guard<std::mutex> lock(conn_fds_mutex_);
    for (int fd : conn_fds_) ::close(fd);
    conn_fds_.clear();
  }
  for (auto& peer : peers_) {
    std::lock_guard<std::mutex> lock(peer->send_mutex);
    const int fd = peer->send_fd.exchange(-1);
    if (fd >= 0) ::close(fd);
    peer->backlog = std::vector<char>();
    peer->backlog_head = 0;
    peer->want_write.store(false, std::memory_order_release);
  }
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
