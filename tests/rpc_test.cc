// Tests for the cluster fabric: comm layer delivery/ordering/accounting,
// RPC barrier, flush round, termination detection, allreduce, the SPMD
// runtime, and the TCP transport (framing, FIFO, clock sync, failures)
// over a hermetic loopback socket mesh.

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "graphlab/engine/allreduce.h"
#include "graphlab/rpc/barrier.h"
#include "graphlab/rpc/comm_layer.h"
#include "graphlab/rpc/flush_round.h"
#include "graphlab/rpc/runtime.h"
#include "graphlab/rpc/tcp_transport.h"
#include "graphlab/rpc/termination.h"
#include "graphlab/util/logging.h"
#include "graphlab/util/random.h"
#include "graphlab/util/timer.h"
#include "tests/transport_param.h"

namespace graphlab {
namespace rpc {
namespace {

using graphlab::testutil::InProcessComm;
using graphlab::testutil::WaitUntil;

CommOptions FastComm() { return graphlab::testutil::ZeroLatency(); }

TEST(CommLayerTest, DeliversToRegisteredHandler) {
  auto comm = InProcessComm(2, FastComm());
  std::atomic<int> received{0};
  HandlerScope handler =
      comm->RegisterHandler(1, 100, [&](MachineId src, InArchive& ia) {
        EXPECT_EQ(src, 0u);
        EXPECT_EQ(ia.ReadValue<int>(), 42);
        received.fetch_add(1);
      });
  comm->Start();
  OutArchive oa;
  oa << 42;
  comm->Send(0, 1, 100, std::move(oa));
  EXPECT_TRUE(WaitUntil([&] { return received.load() == 1; }));
}

TEST(CommLayerTest, SelfSendWorks) {
  auto comm = InProcessComm(1, FastComm());
  std::atomic<int> received{0};
  HandlerScope handler =
      comm->RegisterHandler(0, 7, [&](MachineId, InArchive&) {
        received.fetch_add(1);
      });
  comm->Start();
  comm->Send(0, 0, 7, OutArchive());
  EXPECT_TRUE(WaitUntil([&] { return received.load() == 1; }));
}

/// Machine 0 sends `count` ints to machine 1; returns them in arrival
/// order once all have been handled.
std::vector<int> SendSequence(CommLayer* comm, int count) {
  std::vector<int> order;
  std::atomic<int> handled{0};
  HandlerScope handler =
      comm->RegisterHandler(1, 5, [&](MachineId, InArchive& ia) {
        order.push_back(ia.ReadValue<int>());
        handled.fetch_add(1, std::memory_order_release);
      });
  comm->Start();
  for (int i = 0; i < count; ++i) {
    OutArchive oa;
    oa << i;
    comm->Send(0, 1, 5, std::move(oa));
  }
  EXPECT_TRUE(WaitUntil([&] { return handled.load() == count; }));
  comm->Stop();
  return order;
}

TEST(CommLayerTest, FifoPerChannel) {
  auto comm = InProcessComm(2, FastComm());
  std::vector<int> order = SendSequence(comm.get(), 100);
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[i], i);
}

TEST(CommLayerTest, FifoPerChannelWithLatency) {
  CommOptions o;
  o.latency = std::chrono::microseconds(200);
  auto comm = InProcessComm(2, o);
  std::vector<int> order = SendSequence(comm.get(), 50);
  ASSERT_EQ(order.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(order[i], i);
}

TEST(CommLayerTest, LatencyDelaysDelivery) {
  CommOptions o;
  o.latency = std::chrono::milliseconds(30);
  auto comm = InProcessComm(2, o);
  std::atomic<bool> received{false};
  HandlerScope handler =
      comm->RegisterHandler(1, 5, [&](MachineId, InArchive&) {
        received.store(true);
      });
  comm->Start();
  Timer timer;
  comm->Send(0, 1, 5, OutArchive());
  EXPECT_TRUE(WaitUntil([&] { return received.load(); }));
  EXPECT_GE(timer.Millis(), 25.0);
}

TEST(CommLayerTest, ByteAccountingIncludesHeader) {
  auto comm = InProcessComm(2, FastComm());
  std::atomic<int> received{0};
  HandlerScope handler = comm->RegisterHandler(
      1, 5, [&](MachineId, InArchive&) { received.fetch_add(1); });
  comm->Start();
  OutArchive oa;
  oa << uint64_t{1} << uint64_t{2};  // 16 payload bytes
  comm->Send(0, 1, 5, std::move(oa));
  ASSERT_TRUE(WaitUntil([&] { return received.load() == 1; }));
  CommStats sender = comm->GetStats(0);
  CommStats receiver = comm->GetStats(1);
  EXPECT_EQ(sender.messages_sent, 1u);
  EXPECT_EQ(sender.bytes_sent, 16u + kMessageHeaderBytes);
  EXPECT_EQ(receiver.messages_received, 1u);
  EXPECT_EQ(receiver.bytes_received, 16u + kMessageHeaderBytes);
  comm->ResetStats();
  EXPECT_EQ(comm->GetStats(0).bytes_sent, 0u);
}

/// Chain 0 -> 1 -> 2: machine 1's handler forwards what it receives.
/// Returns how many messages machine 2 handled.
int RunHandlerChain(CommLayer* at0, CommLayer* at1, CommLayer* at2) {
  std::atomic<int> final_count{0};
  HandlerScope forward =
      at1->RegisterHandler(1, 5, [at1](MachineId, InArchive&) {
        at1->Send(1, 2, 5, OutArchive());
      });
  HandlerScope sink =
      at2->RegisterHandler(2, 5, [&](MachineId src, InArchive&) {
        EXPECT_EQ(src, 1u);
        final_count.fetch_add(1);
      });
  for (CommLayer* c : {at0, at1, at2}) c->Start();
  at0->Send(0, 1, 5, OutArchive());
  EXPECT_TRUE(WaitUntil([&] { return final_count.load() == 1; }));
  for (CommLayer* c : {at0, at1, at2}) c->Stop();
  return final_count.load();
}

TEST(CommLayerTest, HandlersMaySend) {
  auto comm = InProcessComm(3, FastComm());
  EXPECT_EQ(RunHandlerChain(comm.get(), comm.get(), comm.get()), 1);
}

TEST(CommLayerTest, StallDelaysDispatch) {
  auto comm = InProcessComm(2, FastComm());
  std::atomic<bool> received{false};
  HandlerScope handler =
      comm->RegisterHandler(1, 5, [&](MachineId, InArchive&) {
        received.store(true);
      });
  comm->Start();
  comm->InjectStall(1, std::chrono::milliseconds(50));
  EXPECT_TRUE(comm->StallActive(1));
  Timer timer;
  comm->Send(0, 1, 5, OutArchive());
  EXPECT_TRUE(WaitUntil([&] { return received.load(); }));
  EXPECT_GE(timer.Millis(), 40.0);
}

TEST(CommLayerTest, BandwidthModelAddsSerializationDelay) {
  CommOptions o;
  o.latency = std::chrono::microseconds(0);
  o.bandwidth_bytes_per_sec = 1000000;  // 1 MB/s
  auto comm = InProcessComm(2, o);
  std::atomic<bool> received{false};
  HandlerScope handler = comm->RegisterHandler(
      1, 5, [&](MachineId, InArchive&) { received.store(true); });
  comm->Start();
  Timer timer;
  OutArchive oa;
  std::vector<char> big(50000);  // 50 KB at 1MB/s = 50 ms
  oa << big;
  comm->Send(0, 1, 5, std::move(oa));
  EXPECT_TRUE(WaitUntil([&] { return received.load(); }));
  EXPECT_GE(timer.Millis(), 40.0);
}

// ---------------------------------------------------------------------
// TCP transport (loopback socket mesh in this process)
// ---------------------------------------------------------------------

/// Builds n CommLayers over real loopback TCP sockets.  Register
/// handlers on the returned layers, then StartAll().
std::vector<std::unique_ptr<CommLayer>> MakeTcpComms(size_t n) {
  auto cluster = MakeLoopbackTcpCluster(n);
  GL_CHECK(cluster.ok()) << cluster.status().ToString();
  std::vector<std::unique_ptr<CommLayer>> comms;
  for (size_t i = 0; i < n; ++i) {
    comms.push_back(std::make_unique<CommLayer>(
        std::make_unique<TcpTransport>((*cluster)[i])));
  }
  return comms;
}

void StartAll(std::vector<std::unique_ptr<CommLayer>>& comms) {
  for (auto& c : comms) c->Start();
}

TEST(TcpTransportTest, DeliversToRegisteredHandler) {
  auto comms = MakeTcpComms(2);
  std::atomic<int> received{0};
  HandlerScope handler =
      comms[1]->RegisterHandler(1, 100, [&](MachineId src, InArchive& ia) {
        EXPECT_EQ(src, 0u);
        EXPECT_EQ(ia.ReadValue<int>(), 42);
        received.fetch_add(1);
      });
  StartAll(comms);
  OutArchive oa;
  oa << 42;
  comms[0]->Send(0, 1, 100, std::move(oa));
  EXPECT_TRUE(WaitUntil([&] { return received.load() == 1; }));
}

TEST(TcpTransportTest, SelfSendSkipsTheWire) {
  auto comms = MakeTcpComms(1);
  std::atomic<int> received{0};
  HandlerScope handler =
      comms[0]->RegisterHandler(0, 7, [&](MachineId, InArchive&) {
        received.fetch_add(1);
      });
  StartAll(comms);
  comms[0]->Send(0, 0, 7, OutArchive());
  EXPECT_TRUE(WaitUntil([&] { return received.load() == 1; }));
}

TEST(TcpTransportTest, FifoPerChannel) {
  auto comms = MakeTcpComms(2);
  std::vector<int> order;
  std::atomic<int> handled{0};
  HandlerScope handler =
      comms[1]->RegisterHandler(1, 5, [&](MachineId, InArchive& ia) {
        order.push_back(ia.ReadValue<int>());
        handled.fetch_add(1, std::memory_order_release);
      });
  StartAll(comms);
  for (int i = 0; i < 200; ++i) {
    OutArchive oa;
    oa << i;
    comms[0]->Send(0, 1, 5, std::move(oa));
  }
  ASSERT_TRUE(WaitUntil([&] { return handled.load() == 200; }));
  ASSERT_EQ(order.size(), 200u);
  for (int i = 0; i < 200; ++i) EXPECT_EQ(order[i], i);
}

TEST(TcpTransportTest, ByteAccountingCountsFrameHeader) {
  auto comms = MakeTcpComms(2);
  std::atomic<int> received{0};
  HandlerScope handler = comms[1]->RegisterHandler(
      1, 5, [&](MachineId, InArchive&) { received.fetch_add(1); });
  StartAll(comms);
  OutArchive oa;
  oa << uint64_t{1} << uint64_t{2};  // 16 payload bytes
  comms[0]->Send(0, 1, 5, std::move(oa));
  ASSERT_TRUE(WaitUntil([&] { return received.load() == 1; }));
  // Clock-sync probes and replies are control frames: not charged.
  comms[0]->SyncClocks();
  comms[1]->SyncClocks();
  CommStats sender = comms[0]->GetStats(0);
  CommStats receiver = comms[1]->GetStats(1);
  EXPECT_EQ(sender.messages_sent, 1u);
  EXPECT_EQ(sender.bytes_sent, 16u + kTcpFrameHeaderBytes);
  EXPECT_EQ(receiver.messages_received, 1u);
  EXPECT_EQ(receiver.bytes_received, 16u + kTcpFrameHeaderBytes);
  EXPECT_EQ(receiver.messages_sent, 0u);
  auto peers = comms[0]->GetPeerStats(0);
  ASSERT_EQ(peers.size(), 2u);
  EXPECT_EQ(peers[1].messages_sent, 1u);
  EXPECT_EQ(peers[1].bytes_sent, 16u + kTcpFrameHeaderBytes);
  EXPECT_EQ(peers[0].messages_sent, 0u);
}

TEST(TcpTransportTest, HandlersMaySend) {
  auto comms = MakeTcpComms(3);
  EXPECT_EQ(RunHandlerChain(comms[0].get(), comms[1].get(), comms[2].get()),
            1);
}

TEST(TcpTransportTest, RuntimeBarrierAndAllreduceOverTcp) {
  rpc::ClusterOptions opts =
      graphlab::testutil::ClusterFor(TransportKind::kTcp, 4);
  Runtime runtime(opts);
  graphlab::testutil::ClusterAllreduce allreduce(&runtime, 2);
  std::atomic<int> phase_counter{0};
  std::atomic<bool> violation{false};
  runtime.Run([&](MachineContext& ctx) {
    for (int phase = 0; phase < 5; ++phase) {
      phase_counter.fetch_add(1);
      ctx.barrier().Wait(ctx.id);
      if (phase_counter.load() < (phase + 1) * 4) violation.store(true);
      ctx.barrier().Wait(ctx.id);
      auto result = allreduce.at(ctx.id).Reduce(
          ctx.id, {ctx.id + uint64_t{1}, uint64_t{10}});
      EXPECT_EQ(result[0], 10u);  // sum of ids 0..3 plus 4
      EXPECT_EQ(result[1], 40u);
    }
  });
  EXPECT_FALSE(violation.load());
  EXPECT_EQ(phase_counter.load(), 20);
}

TEST(TcpTransportTest, TerminationDetectionOverTcp) {
  rpc::ClusterOptions opts =
      graphlab::testutil::ClusterFor(TransportKind::kTcp, 3);
  Runtime runtime(opts);
  runtime.Run([&](MachineContext& ctx) {
    ctx.termination().SetStateFn(ctx.id, [] {
      return TerminationDetector::LocalState{true, 0, 0};
    });
    ctx.barrier().Wait(ctx.id);
    if (ctx.id == 0) ctx.termination().NewRun();
    ctx.barrier().Wait(ctx.id);
    Timer timer;
    while (!ctx.termination().Done(ctx.id)) {
      ctx.termination().Poll(ctx.id);
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      ASSERT_LT(timer.Seconds(), 10.0) << "termination not detected";
    }
  });
}

TEST(TcpTransportTest, LargeFrameRoundTrips) {
  auto comms = MakeTcpComms(2);
  std::atomic<bool> handled{false};
  std::atomic<bool> matched{false};
  std::vector<uint64_t> big(200000);
  for (size_t i = 0; i < big.size(); ++i) big[i] = i * 2654435761u;
  HandlerScope handler =
      comms[1]->RegisterHandler(1, 9, [&](MachineId, InArchive& ia) {
        std::vector<uint64_t> got;
        ia >> got;
        matched.store(got == big);
        handled.store(true);
      });
  StartAll(comms);
  OutArchive oa;
  oa << big;
  comms[0]->Send(0, 1, 9, std::move(oa));
  ASSERT_TRUE(WaitUntil([&] { return handled.load(); }));
  EXPECT_TRUE(matched.load());
}

// The frame header on the wire, byte for byte, against the layout in
// tcp_transport.h: machine 0's hello and first data frame as a raw peer
// reads them, and a raw peer's hello and data frame as machine 0 decodes
// them.  This pins the encoder and the decoder each to the layout, not
// only to each other.
TEST(TcpTransportTest, FrameHeaderGoldenBytes) {
  using Bytes = std::vector<uint8_t>;
  auto frame = [](uint8_t type, uint8_t src, uint8_t seq, Bytes payload) {
    Bytes b = {0x47, 0x4C, 0x57, 0x31,  // magic "GLW1"
               0x03, 0x00,              // version 3
               type, 0x00,              // type, flags
               src,  0x00, 0x00, 0x00,  // src
               0x02, 0x01,              // handler 0x0102 (data frames)
               0x00, 0x00,              // reserved
               seq,  0,    0,    0,    0, 0, 0, 0,  // seq
               static_cast<uint8_t>(payload.size()), 0, 0, 0};
    if (type != 0) b[12] = b[13] = 0;  // control frames carry no handler
    b.resize(b.size() + payload.size());
    std::copy(payload.begin(), payload.end(), b.end() - payload.size());
    return b;
  };
  auto hello = [&](uint8_t me) {
    return frame(1, me, 0, {me, 0, 0, 0, 2, 0, 0, 0});
  };

  auto cluster = MakeLoopbackTcpCluster(2);
  ASSERT_TRUE(cluster.ok());
  const int raw_listener = (*cluster)[1].listen_fd;  // machine 1: the test
  TcpTransport transport((*cluster)[0]);
  std::atomic<int> delivered{0};
  MachineId got_src = 99;
  HandlerId got_handler = 0;
  uint8_t got_byte = 0;
  transport.SetDeliverySink(
      [&](MachineId, MachineId src, HandlerId handler, InArchive& ia) {
        got_src = src;
        got_handler = handler;
        got_byte = ia.ReadValue<uint8_t>();
        delivered.fetch_add(1, std::memory_order_release);
      });
  transport.Start();

  // Encoder: what machine 0 writes to "machine 1".
  const int in = ::accept(raw_listener, nullptr, nullptr);
  ASSERT_GE(in, 0);
  timeval limit{10, 0};
  ::setsockopt(in, SOL_SOCKET, SO_RCVTIMEO, &limit, sizeof(limit));
  OutArchive oa;
  oa << uint8_t{0xAB};
  transport.Send(0, 1, 0x0102, std::move(oa));
  Bytes expect = hello(0);
  const Bytes data = frame(0, 0, 1, {0xAB});
  expect.insert(expect.end(), data.begin(), data.end());
  Bytes wire(expect.size());
  ASSERT_EQ(::recv(in, wire.data(), wire.size(), MSG_WAITALL),
            static_cast<ssize_t>(wire.size()));
  EXPECT_EQ(wire, expect);

  // Decoder: "machine 1" writes golden frames to machine 0.
  const std::string& endpoint = (*cluster)[0].endpoints[0];
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(
      std::stoi(endpoint.substr(endpoint.rfind(':') + 1))));
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  const int out = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_EQ(::connect(out, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  Bytes golden = hello(1);
  const Bytes in_data = frame(0, 1, 7, {0xAB});
  golden.insert(golden.end(), in_data.begin(), in_data.end());
  ASSERT_EQ(::send(out, golden.data(), golden.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(golden.size()));
  ASSERT_TRUE(WaitUntil([&] { return delivered.load() == 1; }));
  EXPECT_EQ(got_src, 1u);
  EXPECT_EQ(got_handler, 0x0102);
  EXPECT_EQ(got_byte, 0xAB);

  transport.Stop();
  ::close(out);
  ::close(in);
  ::close(raw_listener);
}

// ---------------------------------------------------------------------
// TCP failure injection: a dead peer must surface as PeerDown and
// unblock waits with a status — never hang or kill the process.
// ---------------------------------------------------------------------

TEST(TcpFailureTest, PeerDeathFiresPeerDown) {
  auto comms = MakeTcpComms(3);
  std::atomic<int> received{0};
  std::vector<HandlerScope> handlers;
  for (size_t m = 0; m < 3; ++m) {
    handlers.push_back(comms[m]->RegisterHandler(
        m, 5, [&](MachineId, InArchive&) { received.fetch_add(1); }));
  }
  StartAll(comms);
  // Warm the mesh: one frame on every ordered pair, so every connection
  // exists and the kill reaches each survivor as a closed socket.
  for (MachineId src = 0; src < 3; ++src) {
    for (MachineId dst = 0; dst < 3; ++dst) {
      if (src != dst) comms[src]->Send(src, dst, 5, OutArchive());
    }
  }
  ASSERT_TRUE(WaitUntil([&] { return received.load() == 6; }));

  // Machine 2 dies abruptly (kill -9 analogue).
  comms[2]->InjectKill(2);

  // Survivors observe the death through receive-side EOF within the
  // membership view, without any heartbeat configured.
  EXPECT_TRUE(WaitUntil([&] {
    return !comms[0]->membership().alive(2) &&
           !comms[1]->membership().alive(2);
  }));
  EXPECT_TRUE(comms[0]->IsPeerDown(2));

  // Traffic among the survivors still flows, and a clock sync returns
  // instead of waiting on the dead machine's replies.
  comms[0]->Send(0, 1, 5, OutArchive());
  EXPECT_TRUE(WaitUntil([&] { return received.load() == 7; }));
  comms[0]->SyncClocks();
}

// A peer that sends its last frames and exits normally: the frames reach
// the receiver before its connection closes, so they are handled even
// when the receiver's loop gets to them only after the peer has gone;
// the peer is marked down once they have run.
TEST(TcpFailureTest, FramesReadBeforeEofAreHandled) {
  constexpr int kFrames = 50;
  auto comms = MakeTcpComms(2);
  std::atomic<bool> latched{false}, release{false};
  std::atomic<int> handled{0}, handled_at_death{-1};
  HandlerScope latch = comms[0]->RegisterHandler(
      0, 6, [&](MachineId, InArchive&) {
        latched.store(true);
        while (!release.load()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      });
  HandlerScope data = comms[0]->RegisterHandler(
      0, 5, [&](MachineId, InArchive&) { handled.fetch_add(1); });
  Subscription death = comms[0]->membership().Subscribe(
      [&](MachineId down, uint64_t) {
        if (down == 1) handled_at_death.store(handled.load());
      });
  struct Unlatch {  // a failed assertion must not leave the loop held
    std::atomic<bool>* release;
    ~Unlatch() { release->store(true); }
  } unlatch{&release};
  StartAll(comms);
  comms[1]->Send(1, 0, 6, OutArchive());
  ASSERT_TRUE(WaitUntil([&] { return latched.load(); }));

  // Machine 0's event loop is held; machine 1 sends and leaves.
  for (int i = 0; i < kFrames; ++i) {
    OutArchive oa;
    oa << i;
    comms[1]->Send(1, 0, 5, std::move(oa));
  }
  comms[1]->Stop();

  release.store(true);
  EXPECT_TRUE(WaitUntil([&] { return handled_at_death.load() >= 0; }));
  EXPECT_EQ(handled_at_death.load(), kFrames);
  EXPECT_EQ(handled.load(), kFrames);
  EXPECT_FALSE(comms[0]->membership().alive(1));
  EXPECT_TRUE(comms[0]->IsPeerDown(1));
}

// Both machines' handlers answer every frame with a 1 MiB frame, with many
// exchanges in flight both ways: far more than the socket buffers hold.
// A loop that blocked in a write while its peer's loop did the same
// would deadlock; the per-peer backlogs let both finish, in order.
TEST(TcpTransportTest, LargeFramesBothWaysDoNotDeadlock) {
  constexpr int kChainsPerMachine = 8;
  constexpr uint32_t kHops = 10;
  constexpr size_t kBytes = 1 << 20;
  auto comms = MakeTcpComms(2);
  std::atomic<int> finished{0}, corrupt{0};
  auto send = [&](MachineId from, uint32_t chain, uint32_t hop) {
    OutArchive oa;
    oa << chain << hop
       << std::vector<char>(kBytes, static_cast<char>(chain * 31 + hop));
    comms[from]->Send(from, 1 - from, 7, std::move(oa));
  };
  std::vector<HandlerScope> scopes;
  for (MachineId m = 0; m < 2; ++m) {
    scopes.push_back(comms[m]->RegisterHandler(
        m, 7, [&, m](MachineId, InArchive& ia) {
          const uint32_t chain = ia.ReadValue<uint32_t>();
          const uint32_t hop = ia.ReadValue<uint32_t>();
          const std::vector<char> bytes = ia.ReadValue<std::vector<char>>();
          const char expect = static_cast<char>(chain * 31 + hop);
          if (bytes.size() != kBytes ||
              std::count(bytes.begin(), bytes.end(), expect) !=
                  static_cast<ptrdiff_t>(kBytes)) {
            corrupt.fetch_add(1);
          }
          if (hop + 1 == kHops) {
            finished.fetch_add(1);
          } else {
            send(m, chain, hop + 1);
          }
        }));
  }
  StartAll(comms);
  for (uint32_t chain = 0; chain < 2 * kChainsPerMachine; ++chain) {
    send(chain % 2, chain, 0);
  }
  EXPECT_TRUE(WaitUntil([&] { return finished.load() == 2 * kChainsPerMachine; },
                        std::chrono::seconds(60)));
  EXPECT_EQ(corrupt.load(), 0);
}

TEST(TcpFailureTest, SendToDeadPeerIsDroppedNotFatal) {
  auto comms = MakeTcpComms(2);
  std::atomic<int> received{0};
  HandlerScope handler = comms[1]->RegisterHandler(
      1, 5, [&](MachineId, InArchive&) { received.fetch_add(1); });
  HandlerScope self_sink = comms[0]->RegisterHandler(
      0, 5, [&](MachineId, InArchive&) { received.fetch_add(1); });
  StartAll(comms);
  // Warm both directions: machine 0 learns of the death as EOF on
  // machine 1's connection to it, which must exist before the kill.
  comms[0]->Send(0, 1, 5, OutArchive());
  comms[1]->Send(1, 0, 5, OutArchive());
  ASSERT_TRUE(WaitUntil([&] { return received.load() == 2; }));

  comms[1]->InjectKill(1);
  ASSERT_TRUE(WaitUntil([&] { return !comms[0]->membership().alive(1); }));

  // A burst of sends to the dead peer: no SIGPIPE, no blocking, and the
  // survivor keeps delivering its own traffic.
  for (int i = 0; i < 500; ++i) {
    OutArchive oa;
    oa << std::vector<char>(2048);
    comms[0]->Send(0, 1, 5, std::move(oa));
  }
  comms[0]->Send(0, 0, 5, OutArchive());
  EXPECT_TRUE(WaitUntil([&] { return received.load() == 3; }));
}

// A send that fails inside a handler, or inside a membership subscriber,
// must not run the PeerDown listeners on that thread: a handler may hold
// a lock a subscriber takes (the termination detector's does), and the
// subscribers run under the membership's own lock.  Machine 0's handler
// sends to machine 2 after machine 2 has closed its sockets; machine 0's
// subscriber to that death sends to machine 3, closed as well.  Machine
// 0 reads neither EOF before those sends, so they fail; both deaths must
// still be marked, each after the call that hit it has returned.
thread_local bool t_in_handler = false;

TEST(TcpFailureTest, SendErrorsInHandlersAndSubscribersDoNotReenter) {
  constexpr int kAttempts = 50;  // the first send draws the reset
  auto comms = MakeTcpComms(4);
  std::atomic<int> received{0};
  std::atomic<bool> entered{false}, go{false}, handled{false};
  std::atomic<bool> listener_in_handler{false}, subscriber_done{false};
  std::vector<HandlerScope> handlers;
  for (MachineId m = 0; m < 4; ++m) {
    handlers.push_back(comms[m]->RegisterHandler(
        m, 5, [&](MachineId, InArchive&) { received.fetch_add(1); }));
  }
  auto send_to_dead = [&](MachineId dst) {
    for (int i = 0; i < kAttempts; ++i) {
      comms[0]->Send(0, dst, 5, OutArchive());
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  handlers.push_back(comms[0]->RegisterHandler(
      0, 6, [&](MachineId, InArchive&) {
        entered.store(true);
        while (!go.load()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        t_in_handler = true;
        send_to_dead(2);
        t_in_handler = false;
        handled.store(true);
      }));
  Subscription death = comms[0]->membership().Subscribe(
      [&](MachineId down, uint64_t) {
        if (down != 2) return;
        if (t_in_handler) listener_in_handler.store(true);
        send_to_dead(3);
        subscriber_done.store(true);
      });
  struct Release {  // a failed assertion must not leave the loop held
    std::atomic<bool>* go;
    ~Release() { go->store(true); }
  } release{&go};
  StartAll(comms);
  for (MachineId src = 0; src < 4; ++src) {
    for (MachineId dst = 0; dst < 4; ++dst) {
      if (src != dst) comms[src]->Send(src, dst, 5, OutArchive());
    }
  }
  ASSERT_TRUE(WaitUntil([&] { return received.load() == 12; }));

  comms[1]->Send(1, 0, 6, OutArchive());
  ASSERT_TRUE(WaitUntil([&] { return entered.load(); }));
  comms[2]->Stop();
  comms[3]->Stop();
  go.store(true);

  EXPECT_TRUE(WaitUntil([&] {
    return handled.load() && subscriber_done.load() &&
           !comms[0]->membership().alive(2) &&
           !comms[0]->membership().alive(3);
  }));
  EXPECT_FALSE(listener_in_handler.load());
  comms[1]->Send(1, 0, 5, OutArchive());
  EXPECT_TRUE(WaitUntil([&] { return received.load() == 13; }));
}

TEST(TcpFailureTest, HeartbeatDeadlineMarksSilentPeerDown) {
  auto comms = MakeTcpComms(2);
  std::atomic<int> received{0};
  // Warm the connections so machine 0 has heard from machine 1 once.
  HandlerScope handler = comms[0]->RegisterHandler(
      0, 5, [&](MachineId, InArchive&) { received.fetch_add(1); });
  StartAll(comms);
  comms[1]->Send(1, 0, 5, OutArchive());
  ASSERT_TRUE(WaitUntil([&] { return received.load() == 1; }));

  // Only machine 0 runs a failure detector; machine 1 stays silent (no
  // heartbeats of its own), so machine 0's deadline must fire.
  comms[0]->EnableHeartbeats(std::chrono::milliseconds(20),
                             std::chrono::milliseconds(150));
  EXPECT_TRUE(WaitUntil([&] { return !comms[0]->membership().alive(1); }));
}

TEST(TcpFailureTest, BarrierReleasesSurvivorsAfterDeath) {
  ClusterOptions opts;
  opts.num_machines = 3;
  opts.transport = TransportKind::kTcp;
  opts.tcp_loopback_cluster = true;
  Runtime runtime(opts);

  std::atomic<int> survivors_released{0};
  runtime.Run([&](MachineContext& ctx) {
    ctx.barrier().Wait(ctx.id);  // everyone aligned once
    if (ctx.id == 2) {
      ctx.comm().InjectKill(2);
      return;  // dead: never enters the next barrier
    }
    // Survivors: the next barrier must release once machine 2's death is
    // observed by the master (machine 0), not hang forever.
    EXPECT_TRUE(ctx.barrier().Wait(ctx.id));
    survivors_released.fetch_add(1);
  });
  EXPECT_EQ(survivors_released.load(), 2);
}

// ---------------------------------------------------------------------
// Barrier
// ---------------------------------------------------------------------

TEST(BarrierTest, SynchronizesMachines) {
  ClusterOptions opts;
  opts.num_machines = 4;
  opts.comm = FastComm();
  Runtime runtime(opts);
  std::atomic<int> phase_counter{0};
  std::atomic<bool> violation{false};
  runtime.Run([&](MachineContext& ctx) {
    for (int phase = 0; phase < 10; ++phase) {
      phase_counter.fetch_add(1);
      ctx.barrier().Wait(ctx.id);
      // After the barrier, all 4 machines of this phase must have arrived.
      if (phase_counter.load() < (phase + 1) * 4) violation.store(true);
      ctx.barrier().Wait(ctx.id);
    }
  });
  EXPECT_FALSE(violation.load());
  EXPECT_EQ(phase_counter.load(), 40);
}

// ---------------------------------------------------------------------
// Flush round
// ---------------------------------------------------------------------

class FlushRoundTest : public ::testing::TestWithParam<TransportKind> {};

// Every message a machine sends before entering a round has been handled
// at its destination once the destination's round completes, including
// a payload carried by the round's own frame.
TEST_P(FlushRoundTest, RoundFlushesEarlierTrafficAndCarriesPayloads) {
  constexpr size_t kMachines = 3;
  Runtime runtime(graphlab::testutil::ClusterFor(GetParam(), kMachines, 50));
  std::vector<std::atomic<int>> received(kMachines);
  runtime.Run([&](MachineContext& ctx) {
    const MachineId me = ctx.id;
    HandlerScope handler = ctx.comm().RegisterHandler(
        me, 60, [&, me](MachineId, InArchive&) { received[me].fetch_add(1); });
    // Decodes a u64 column; the round hands the values over after it.
    ctx.flush().SetDecoder(me, [](MachineId, InArchive& ia,
                                  std::vector<uint64_t>* out) -> const char* {
      while (!ia.AtEnd()) out->push_back(ia.ReadValue<uint64_t>());
      return ia.ok() ? nullptr : "torn column";
    });
    ctx.barrier().Wait(me);
    for (int round = 0; round < 3; ++round) {
      std::vector<OutArchive> payloads(kMachines);
      for (MachineId p = 0; p < kMachines; ++p) {
        if (p == me) continue;
        for (int i = 0; i < 10; ++i) ctx.comm().Send(me, p, 60, OutArchive());
        payloads[p] << uint64_t{100 * me + p};
      }
      std::vector<uint64_t> got;
      EXPECT_TRUE(ctx.flush().Run(me, std::move(payloads), &got));
      // A peer already past the round may have sent its next batch too.
      EXPECT_GE(received[me].load(), 20 * (round + 1));
      std::sort(got.begin(), got.end());
      std::vector<uint64_t> want;
      for (MachineId p = 0; p < kMachines; ++p) {
        if (p != me) want.push_back(100 * p + me);
      }
      EXPECT_EQ(got, want) << "machine " << me;
    }
    ctx.flush().SetDecoder(me, nullptr);
  });
}

// Machine 2 dies while machines 0 and 1 wait in a round for its frame:
// the death ends their wait with false.  A round entered after the death
// skips the dead machine and completes; traffic to and from it is
// dropped.
TEST_P(FlushRoundTest, PeerDeathEndsTheWaitAndSurvivorsKeepFlushing) {
  constexpr size_t kMachines = 3;
  Runtime runtime(graphlab::testutil::ClusterFor(GetParam(), kMachines));
  std::atomic<int> delivered{0};
  std::vector<uint8_t> first(kMachines, 1), second(kMachines, 0);
  runtime.Run([&](MachineContext& ctx) {
    const MachineId me = ctx.id;
    HandlerScope handler = ctx.comm().RegisterHandler(
        me, 50, [&](MachineId, InArchive&) { delivered.fetch_add(1); });
    ctx.barrier().Wait(me);
    if (me == 0) ctx.comm().Send(0, 2, 50, OutArchive());
    ASSERT_TRUE(ctx.flush().Run(me));  // everyone in: true
    if (me == 2) {
      EXPECT_EQ(delivered.load(), 1);
      // Die only once machines 0 and 1 have entered the next round, and
      // give them time to reach its wait.
      EXPECT_TRUE(WaitUntil([&] {
        return runtime.flush(0).generation(0) == 2 &&
               runtime.flush(1).generation(1) == 2;
      }));
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      ctx.comm().InjectKill(2);
      return;
    }
    first[me] = ctx.flush().Run(me);
    EXPECT_TRUE(WaitUntil([&] { return !ctx.comm().membership().alive(2); }));
    if (GetParam() == TransportKind::kInProcess && me == 0) {
      ctx.comm().Send(0, 2, 50, OutArchive());  // to the dead: dropped
      ctx.comm().Send(2, 1, 50, OutArchive());  // from the dead: dropped
    }
    second[me] = ctx.flush().Run(me);
  });
  for (MachineId m : {0u, 1u}) {
    SCOPED_TRACE("machine " + std::to_string(m));
    EXPECT_FALSE(first[m]);
    EXPECT_TRUE(second[m]);
  }
  EXPECT_EQ(delivered.load(), 1);
}

// Machine 0 enters a round machine 1 joins only after machine 0's stop
// predicate fired: the wait ends with false.  Machine 0's frame was sent
// anyway, so machine 1's round completes, and machine 1's late frame
// keeps the two in step for the next round.  A cancelled round also
// sends its frame and returns false at once, until Realign.
TEST_P(FlushRoundTest, StopAndCancelEndTheWaitButKeepMachinesInStep) {
  Runtime runtime(graphlab::testutil::ClusterFor(GetParam(), 2));
  std::atomic<bool> stop{false};
  std::atomic<bool> returned{false};
  std::vector<uint8_t> stopped(2, 1), late(2, 0), cancelled(2, 1),
      realigned(2, 0);
  runtime.Run([&](MachineContext& ctx) {
    const MachineId me = ctx.id;
    ctx.barrier().Wait(me);
    if (me == 0) {
      std::thread aborter([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(30));
        stop.store(true);
        ctx.flush().Wake(0);
      });
      stopped[0] = ctx.flush().Run(0, {}, nullptr, [&] { return stop.load(); });
      returned.store(true);
      aborter.join();
    } else {
      EXPECT_TRUE(WaitUntil([&] { return returned.load(); }));
      stopped[1] = ctx.flush().Run(1);
    }
    late[me] = ctx.flush().Run(me);

    if (me == 0) ctx.flush().Cancel(0);
    cancelled[me] = ctx.flush().Run(me);
    // As after a recovery rendezvous: realign once every frame sent so
    // far is in (the barrier trails them).  A machine that realigns first
    // may send its next frame before the other realigns; it is kept.
    ctx.barrier().Wait(me);
    if (me == 1) std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ctx.flush().Realign(me, ctx.flush().generation(me));
    realigned[me] = ctx.flush().Run(me);
  });
  EXPECT_FALSE(stopped[0]);
  EXPECT_TRUE(stopped[1]);
  EXPECT_TRUE(late[0]);
  EXPECT_TRUE(late[1]);
  EXPECT_FALSE(cancelled[0]);
  EXPECT_TRUE(cancelled[1]);
  EXPECT_TRUE(realigned[0]);
  EXPECT_TRUE(realigned[1]);
}

INSTANTIATE_TEST_SUITE_P(Transports, FlushRoundTest,
                         ::testing::ValuesIn(
                             graphlab::testutil::kAllTransports),
                         graphlab::testutil::KindParamName);

/// Seeded structured mutations of machine 0's frame of `generation`, a
/// bare u64: truncation at every byte, stale / +2 / far / UINT64_MAX
/// generations, and the right generation carrying a payload no decoder
/// is installed for.  None is a frame the receiver may accept.
std::vector<std::string> FlushFrameMutations(uint64_t generation, Rng* rng) {
  auto frame = [](uint64_t g, size_t payload_bytes) {
    OutArchive oa;
    oa << g;
    for (size_t i = 0; i < payload_bytes; ++i) oa << uint8_t{7};
    return std::string(oa.buffer().data(), oa.size());
  };
  const std::string good = frame(generation, 0);
  std::vector<std::string> out;
  for (size_t cut = 0; cut < good.size(); ++cut) {
    out.push_back(good.substr(0, cut));
  }
  for (uint64_t g : {generation - 1, generation + 1, generation + 2,
                     generation + 3 + rng->UniformInt(uint64_t{1} << 40),
                     ~uint64_t{0}}) {
    out.push_back(frame(g, 0));
  }
  for (size_t bytes : {size_t{1}, size_t{4}, 1 + rng->UniformInt(64)}) {
    out.push_back(frame(generation, bytes));
  }
  return out;
}

class FlushFrameFuzz : public ::testing::TestWithParam<TransportKind> {};

// Machines 1 and 2 wait in round 1 for machine 0, which instead feeds
// them mutated frames.  Each must be counted as dropped at its receiver
// and none may release the wait; machine 0's real frame then completes
// the round, and a further round completes everywhere.
TEST_P(FlushFrameFuzz, BadFramesAreDroppedAndReleaseNothing) {
  constexpr size_t kMachines = 3;
  Runtime runtime(graphlab::testutil::ClusterFor(GetParam(), kMachines));
  const LogLevel saved_level = GetLogLevel();
  SetLogLevel(LogLevel::kFatal);  // every mutation logs a drop
  Rng rng(0xF1A5);
  auto dropped = [&](MachineId m) {
    return runtime.metrics(m).counter("rpc.flush_dropped")->Value();
  };
  std::atomic<int> released{0};
  std::vector<uint8_t> completed(kMachines, 0);
  runtime.Run([&](MachineContext& ctx) {
    const MachineId me = ctx.id;
    EXPECT_TRUE(ctx.flush().Run(me));  // round 0: every fabric is up
    if (me == 0) {
      Timer timer;
      for (MachineId m : {1u, 2u}) {
        while (runtime.flush(m).generation(m) < 2) {
          ASSERT_LT(timer.Seconds(), 10.0) << "machine " << m;
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      }
      uint64_t sent = 0;
      for (const std::string& bytes : FlushFrameMutations(1, &rng)) {
        for (MachineId dst : {1u, 2u}) {
          OutArchive oa;
          oa.WriteBytes(bytes.data(), bytes.size());
          ctx.comm().Send(0, dst, kFlushRoundHandler, std::move(oa));
        }
        ++sent;
      }
      for (MachineId m : {1u, 2u}) {
        timer.Start();
        while (dropped(m) < sent && timer.Seconds() < 5.0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        EXPECT_EQ(dropped(m), sent) << "machine " << m;
      }
      EXPECT_EQ(released.load(), 0) << "a bad frame released the round";
      EXPECT_EQ(dropped(0), 0u);
    }
    completed[me] = ctx.flush().Run(me);  // round 1, fuzzed
    if (me != 0) released.fetch_add(1);
    EXPECT_TRUE(ctx.flush().Run(me));  // round 2
  });
  SetLogLevel(saved_level);
  for (MachineId m = 0; m < kMachines; ++m) EXPECT_TRUE(completed[m]);
}

INSTANTIATE_TEST_SUITE_P(Transports, FlushFrameFuzz,
                         ::testing::ValuesIn(
                             graphlab::testutil::kAllTransports),
                         graphlab::testutil::KindParamName);

// ---------------------------------------------------------------------
// Termination detection
// ---------------------------------------------------------------------

TEST(TerminationTest, DetectsImmediateQuiescence) {
  ClusterOptions opts;
  opts.num_machines = 3;
  opts.comm = FastComm();
  Runtime runtime(opts);
  runtime.Run([&](MachineContext& ctx) {
    ctx.termination().SetStateFn(ctx.id, [] {
      return TerminationDetector::LocalState{true, 0, 0};
    });
    ctx.barrier().Wait(ctx.id);
    if (ctx.id == 0) ctx.termination().NewRun();
    ctx.barrier().Wait(ctx.id);
    Timer timer;
    while (!ctx.termination().Done(ctx.id)) {
      ctx.termination().Poll(ctx.id);
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      ASSERT_LT(timer.Seconds(), 10.0) << "termination not detected";
    }
  });
}

TEST(TerminationTest, WaitsForInFlightTasks) {
  // Machine 0 "sends" a task message; termination must not fire until
  // machine 1 reports having received it.
  ClusterOptions opts;
  opts.num_machines = 2;
  opts.comm = FastComm();
  Runtime runtime(opts);
  std::atomic<uint64_t> received_count{0};
  std::atomic<bool> premature{false};
  runtime.Run([&](MachineContext& ctx) {
    ctx.termination().SetStateFn(ctx.id, [&, id = ctx.id] {
      TerminationDetector::LocalState st;
      st.idle = true;
      st.tasks_sent = id == 0 ? 1 : 0;
      st.tasks_received = id == 1 ? received_count.load() : 0;
      return st;
    });
    ctx.barrier().Wait(ctx.id);
    if (ctx.id == 0) ctx.termination().NewRun();
    ctx.barrier().Wait(ctx.id);

    Timer timer;
    while (!ctx.termination().Done(ctx.id)) {
      ctx.termination().Poll(ctx.id);
      if (ctx.id == 1 && timer.Millis() > 50.0) {
        // Simulate the task message finally arriving.
        received_count.store(1);
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      ASSERT_LT(timer.Seconds(), 10.0);
    }
    // The verdict must not have fired while counts were unbalanced.
    if (received_count.load() == 0) premature.store(true);
  });
  EXPECT_FALSE(premature.load());
}

// ---------------------------------------------------------------------
// Allreduce
// ---------------------------------------------------------------------

TEST(AllreduceTest, SumsContributions) {
  ClusterOptions opts;
  opts.num_machines = 4;
  opts.comm = FastComm();
  Runtime runtime(opts);
  SumAllReduce allreduce(&runtime.comm(), 2);
  runtime.Run([&](MachineContext& ctx) {
    for (uint64_t round = 1; round <= 5; ++round) {
      auto result =
          allreduce.Reduce(ctx.id, {ctx.id + round, uint64_t{10}});
      // Sum over machines 0..3 of (id + round) = 6 + 4*round.
      EXPECT_EQ(result[0], 6 + 4 * round);
      EXPECT_EQ(result[1], 40u);
    }
  });
}

// ---------------------------------------------------------------------
// Collective frame fuzzing: the barrier and the all-reduce share one
// decoder pair, which must drop a bad frame rather than count it
// ---------------------------------------------------------------------

std::string RoundFrame(uint64_t round, size_t width) {
  OutArchive oa;
  oa << round;
  if (width > 0) oa << std::vector<uint64_t>(width, 1000);
  return std::string(oa.buffer().data(), oa.size());
}

/// Seeded structured mutations of a well-formed frame of `round` (a bare
/// round for width 0, else `round | width values`): truncation at every
/// byte, a trailing byte, wrong widths, a length prefix far past the end,
/// and well-formed frames — three copies each, enough to complete a round
/// — for rounds no receiver can be in.
std::vector<std::string> RoundFrameMutations(uint64_t round, size_t width,
                                             Rng* rng) {
  const std::string good = RoundFrame(round, width);
  std::vector<std::string> out;
  for (size_t cut = 0; cut < good.size(); ++cut) {
    out.push_back(good.substr(0, cut));
  }
  out.push_back(good + '\x01');
  if (width > 0) {
    for (size_t w : {size_t{0}, width - 1, width + 1, 3 * width}) {
      if (w != width) out.push_back(RoundFrame(round, w));
    }
    OutArchive oa;
    oa << round << (uint64_t{1} << 60) << uint64_t{7};
    out.emplace_back(oa.buffer().data(), oa.size());
  }
  for (uint64_t huge : {round + 65 + rng->UniformInt(uint64_t{1} << 40),
                        (uint64_t{1} << 63) + rng->UniformInt(1000),
                        ~uint64_t{0}}) {
    for (int copy = 0; copy < 3; ++copy) {
      out.push_back(RoundFrame(huge, width));
    }
  }
  return out;
}

class CollectiveFrameFuzz : public ::testing::TestWithParam<TransportKind> {};

TEST_P(CollectiveFrameFuzz, BadFramesNeitherReleaseNorShortenARound) {
  constexpr size_t kMachines = 3;
  Runtime runtime(graphlab::testutil::ClusterFor(GetParam(), kMachines));
  graphlab::testutil::ClusterAllreduce allreduce(&runtime, 2);
  const LogLevel saved_level = GetLogLevel();
  SetLogLevel(LogLevel::kFatal);  // every mutation logs a drop
  Rng rng(0xA11D);

  auto dropped = [&](MachineId m) {
    return runtime.metrics(m).counter("rpc.collective_dropped")->Value();
  };
  std::vector<uint64_t> expect_dropped(kMachines, 0);
  std::atomic<int> released{0};  // machines 1 and 2 out of the fuzzed round

  // Machine 0 stays out of `round` until machines 1 and 2 wait in it, then
  // feeds mutated frames to machine 0's value handler and to their result
  // handlers.  Each must be dropped and counted at its receiver, and none
  // may complete or release the round.
  auto fuzz = [&](HandlerId value_handler, HandlerId result_handler,
                  uint64_t round, size_t width, auto entered) {
    Timer timer;
    while (entered(1) < round || entered(2) < round) {
      ASSERT_LT(timer.Seconds(), 10.0) << "machines never entered the round";
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    auto send = [&](MachineId src, MachineId dst, HandlerId handler,
                    const std::string& bytes) {
      OutArchive oa;
      oa.WriteBytes(bytes.data(), bytes.size());
      runtime.comm(src).Send(src, dst, handler, std::move(oa));
      expect_dropped[dst]++;
    };
    for (const std::string& bytes :
         RoundFrameMutations(round, width, &rng)) {
      send(1, 0, value_handler, bytes);
      send(0, 1, result_handler, bytes);
      send(0, 2, result_handler, bytes);
    }
    for (MachineId m = 0; m < kMachines; ++m) {
      timer.Start();
      while (dropped(m) < expect_dropped[m] && timer.Seconds() < 5.0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      EXPECT_EQ(dropped(m), expect_dropped[m]) << "machine " << m;
    }
    EXPECT_EQ(released.load(), 0) << "a bad frame released the round";
  };

  runtime.Run([&](MachineContext& ctx) {
    const MachineId me = ctx.id;
    SumAllReduce& ar = allreduce.at(me);
    const std::vector<uint64_t> mine = {me + uint64_t{1}, 1};
    const std::vector<uint64_t> sum = {6, 3};
    EXPECT_EQ(ar.Reduce(me, mine), sum);  // round 1: every handler is up
    EXPECT_TRUE(ctx.barrier().Wait(me));  // generation 1

    if (me == 0) {
      fuzz(kAllreduceValueHandler, kAllreduceResultHandler, 2, 2,
           [&](MachineId m) { return allreduce.at(m).round(m); });
    }
    EXPECT_EQ(ar.Reduce(me, mine), sum);  // round 2, fuzzed
    if (me != 0) released.fetch_add(1);
    EXPECT_TRUE(ctx.barrier().Wait(me));  // generation 2
    if (me == 0) {
      released.store(0);
      fuzz(kBarrierEnter, kBarrierRelease, 3, 0, [&](MachineId m) {
        return runtime.barrier(m).entered_generation(m);
      });
    }
    EXPECT_TRUE(ctx.barrier().Wait(me));  // generation 3, fuzzed
    if (me != 0) released.fetch_add(1);

    // Real rounds still complete afterwards.
    EXPECT_EQ(ar.Reduce(me, mine), sum);
    EXPECT_TRUE(ctx.barrier().Wait(me));
  });
  SetLogLevel(saved_level);
}

INSTANTIATE_TEST_SUITE_P(Transports, CollectiveFrameFuzz,
                         ::testing::ValuesIn(
                             graphlab::testutil::kAllTransports),
                         graphlab::testutil::KindParamName);

// ---------------------------------------------------------------------
// Handler lifetime: a registration lasts exactly as long as its scope
// ---------------------------------------------------------------------

/// Two machines over one backend: one shared layer in-process, one layer
/// per machine over loopback TCP.  at(m) is the layer hosting machine m.
struct TwoMachines {
  std::vector<std::unique_ptr<CommLayer>> comms;
  CommLayer& at(MachineId m) { return *comms[comms.size() == 1 ? 0 : m]; }
  uint64_t unhandled(MachineId m) {
    return at(m).registry(m).counter("rpc.unhandled")->Value();
  }
  void Start() {
    for (auto& c : comms) c->Start();
  }
};

TwoMachines MakeTwoMachines(TransportKind kind) {
  TwoMachines t;
  if (kind == TransportKind::kTcp) {
    t.comms = MakeTcpComms(2);
  } else {
    t.comms.push_back(InProcessComm(2, FastComm()));
  }
  return t;
}

class HandlerScopeTest : public ::testing::TestWithParam<TransportKind> {};

TEST_P(HandlerScopeTest, FrameAfterTheScopeIsDroppedAndCounted) {
  TwoMachines t = MakeTwoMachines(GetParam());
  std::atomic<int> runs{0};
  HandlerScope scope = t.at(1).RegisterHandler(
      1, 70, [&](MachineId, InArchive&) { runs.fetch_add(1); });
  t.Start();
  t.at(0).Send(0, 1, 70, OutArchive());
  ASSERT_TRUE(WaitUntil([&] { return runs.load() == 1; }));
  const uint64_t before = t.unhandled(1);

  scope = HandlerScope();
  const LogLevel saved_level = GetLogLevel();
  SetLogLevel(LogLevel::kFatal);  // the drop is logged as an error
  t.at(0).Send(0, 1, 70, OutArchive());
  EXPECT_TRUE(WaitUntil([&] { return t.unhandled(1) == before + 1; }));
  SetLogLevel(saved_level);
  EXPECT_EQ(runs.load(), 1);
}

TEST_P(HandlerScopeTest, DestructorWaitsForTheRunningHandler) {
  TwoMachines t = MakeTwoMachines(GetParam());
  std::atomic<bool> entered{false}, release{false}, finished{false};
  auto scope = std::make_unique<HandlerScope>(t.at(1).RegisterHandler(
      1, 70, [&](MachineId, InArchive&) {
        entered.store(true);
        while (!release.load()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        finished.store(true);
      }));
  t.Start();
  t.at(0).Send(0, 1, 70, OutArchive());
  ASSERT_TRUE(WaitUntil([&] { return entered.load(); }));

  std::atomic<bool> destroyed{false};
  bool finished_at_return = false;
  std::thread destroyer([&] {
    scope.reset();
    finished_at_return = finished.load();
    destroyed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(destroyed.load()) << "returned while the handler ran";
  release.store(true);
  destroyer.join();
  EXPECT_TRUE(finished_at_return);
}

TEST_P(HandlerScopeTest, OlderScopeLeavesTheNewerRegistration) {
  TwoMachines t = MakeTwoMachines(GetParam());
  std::atomic<int> old_runs{0}, new_runs{0};
  HandlerScope older = t.at(1).RegisterHandler(
      1, 70, [&](MachineId, InArchive&) { old_runs.fetch_add(1); });
  HandlerScope newer = t.at(1).RegisterHandler(
      1, 70, [&](MachineId, InArchive&) { new_runs.fetch_add(1); });
  t.Start();
  older = HandlerScope();
  t.at(0).Send(0, 1, 70, OutArchive());
  ASSERT_TRUE(WaitUntil([&] { return new_runs.load() == 1; }));
  EXPECT_EQ(old_runs.load(), 0);
  EXPECT_EQ(t.unhandled(1), 0u);
}

TEST_P(HandlerScopeTest, HandlerMayEndItsOwnScope) {
  TwoMachines t = MakeTwoMachines(GetParam());
  std::atomic<int> runs{0};
  std::unique_ptr<HandlerScope> self;
  self = std::make_unique<HandlerScope>(
      t.at(1).RegisterHandler(1, 70, [&](MachineId, InArchive&) {
        self.reset();
        runs.fetch_add(1);
      }));
  t.Start();
  t.at(0).Send(0, 1, 70, OutArchive());
  ASSERT_TRUE(WaitUntil([&] { return runs.load() == 1; }));

  const LogLevel saved_level = GetLogLevel();
  SetLogLevel(LogLevel::kFatal);
  t.at(0).Send(0, 1, 70, OutArchive());
  EXPECT_TRUE(WaitUntil([&] { return t.unhandled(1) == 1; }));
  SetLogLevel(saved_level);
  EXPECT_EQ(runs.load(), 1);
}

INSTANTIATE_TEST_SUITE_P(Transports, HandlerScopeTest,
                         ::testing::ValuesIn(
                             graphlab::testutil::kAllTransports),
                         graphlab::testutil::KindParamName);

// A result frame that reaches a destroyed all-reduce is dropped instead of
// written into the freed object (under AddressSanitizer: no
// heap-use-after-free report).
TEST(HandlerScopeRegressionTest, ResultFrameAfterAllReduceIsDropped) {
  auto comm = InProcessComm(2, FastComm());
  comm->Start();
  auto allreduce = std::make_unique<SumAllReduce>(comm.get(), 1);
  allreduce.reset();
  const uint64_t before =
      comm->registry(1).counter("rpc.unhandled")->Value();
  const LogLevel saved_level = GetLogLevel();
  SetLogLevel(LogLevel::kFatal);
  OutArchive oa;
  oa << uint64_t{1} << std::vector<uint64_t>{7};  // round 1, sum {7}
  comm->Send(0, 1, kAllreduceResultHandler, std::move(oa));
  EXPECT_TRUE(WaitUntil([&] {
    return comm->registry(1).counter("rpc.unhandled")->Value() == before + 1;
  }));
  SetLogLevel(saved_level);
}

// ---------------------------------------------------------------------
// Runtime
// ---------------------------------------------------------------------

TEST(RuntimeTest, RunsOneThreadPerMachine) {
  ClusterOptions opts;
  opts.num_machines = 5;
  opts.comm = FastComm();
  Runtime runtime(opts);
  std::vector<std::atomic<int>> hits(5);
  runtime.Run([&](MachineContext& ctx) {
    hits[ctx.id].fetch_add(1);
    EXPECT_EQ(ctx.num_machines(), 5u);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(RuntimeTest, SupportsMultipleRuns) {
  ClusterOptions opts;
  opts.num_machines = 2;
  opts.comm = FastComm();
  Runtime runtime(opts);
  std::atomic<int> total{0};
  for (int i = 0; i < 3; ++i) {
    runtime.Run([&](MachineContext& ctx) {
      total.fetch_add(1);
      ctx.barrier().Wait(ctx.id);
    });
  }
  EXPECT_EQ(total.load(), 6);
}

}  // namespace
}  // namespace rpc
}  // namespace graphlab
