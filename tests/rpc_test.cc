// Tests for the cluster fabric: comm layer delivery/ordering/accounting,
// RPC barrier, termination detection, allreduce, the SPMD runtime, and
// the TCP transport (framing, FIFO, counter-exchange quiescence) over a
// hermetic loopback socket mesh.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "graphlab/engine/allreduce.h"
#include "graphlab/rpc/barrier.h"
#include "graphlab/rpc/comm_layer.h"
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

CommOptions FastComm() {
  CommOptions o;
  o.latency = std::chrono::microseconds(0);
  return o;
}

TEST(CommLayerTest, DeliversToRegisteredHandler) {
  CommLayer comm(2, FastComm());
  std::atomic<int> received{0};
  comm.RegisterHandler(1, 100, [&](MachineId src, InArchive& ia) {
    EXPECT_EQ(src, 0u);
    EXPECT_EQ(ia.ReadValue<int>(), 42);
    received.fetch_add(1);
  });
  comm.Start();
  OutArchive oa;
  oa << 42;
  comm.Send(0, 1, 100, std::move(oa));
  comm.WaitQuiescent();
  EXPECT_EQ(received.load(), 1);
}

TEST(CommLayerTest, SelfSendWorks) {
  CommLayer comm(1, FastComm());
  std::atomic<int> received{0};
  comm.RegisterHandler(0, 7, [&](MachineId, InArchive&) {
    received.fetch_add(1);
  });
  comm.Start();
  comm.Send(0, 0, 7, OutArchive());
  comm.WaitQuiescent();
  EXPECT_EQ(received.load(), 1);
}

TEST(CommLayerTest, FifoPerChannel) {
  CommLayer comm(2, FastComm());
  std::vector<int> order;
  comm.RegisterHandler(1, 5, [&](MachineId, InArchive& ia) {
    order.push_back(ia.ReadValue<int>());
  });
  comm.Start();
  for (int i = 0; i < 100; ++i) {
    OutArchive oa;
    oa << i;
    comm.Send(0, 1, 5, std::move(oa));
  }
  comm.WaitQuiescent();
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[i], i);
}

TEST(CommLayerTest, FifoPerChannelWithLatency) {
  CommOptions o;
  o.latency = std::chrono::microseconds(200);
  CommLayer comm(2, o);
  std::vector<int> order;
  comm.RegisterHandler(1, 5, [&](MachineId, InArchive& ia) {
    order.push_back(ia.ReadValue<int>());
  });
  comm.Start();
  for (int i = 0; i < 50; ++i) {
    OutArchive oa;
    oa << i;
    comm.Send(0, 1, 5, std::move(oa));
  }
  comm.WaitQuiescent();
  ASSERT_EQ(order.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(order[i], i);
}

TEST(CommLayerTest, LatencyDelaysDelivery) {
  CommOptions o;
  o.latency = std::chrono::milliseconds(30);
  CommLayer comm(2, o);
  std::atomic<bool> received{false};
  comm.RegisterHandler(1, 5, [&](MachineId, InArchive&) {
    received.store(true);
  });
  comm.Start();
  Timer timer;
  comm.Send(0, 1, 5, OutArchive());
  comm.WaitQuiescent();
  EXPECT_TRUE(received.load());
  EXPECT_GE(timer.Millis(), 25.0);
}

TEST(CommLayerTest, ByteAccountingIncludesHeader) {
  CommLayer comm(2, FastComm());
  comm.RegisterHandler(1, 5, [](MachineId, InArchive&) {});
  comm.Start();
  OutArchive oa;
  oa << uint64_t{1} << uint64_t{2};  // 16 payload bytes
  comm.Send(0, 1, 5, std::move(oa));
  comm.WaitQuiescent();
  CommStats sender = comm.GetStats(0);
  CommStats receiver = comm.GetStats(1);
  EXPECT_EQ(sender.messages_sent, 1u);
  EXPECT_EQ(sender.bytes_sent, 16u + kMessageHeaderBytes);
  EXPECT_EQ(receiver.messages_received, 1u);
  EXPECT_EQ(receiver.bytes_received, 16u + kMessageHeaderBytes);
  comm.ResetStats();
  EXPECT_EQ(comm.GetStats(0).bytes_sent, 0u);
}

TEST(CommLayerTest, HandlersMaySend) {
  CommLayer comm(3, FastComm());
  std::atomic<int> final_count{0};
  // Chain: 0 -> 1 -> 2.
  comm.RegisterHandler(1, 5, [&](MachineId, InArchive&) {
    comm.Send(1, 2, 5, OutArchive());
  });
  comm.RegisterHandler(2, 5, [&](MachineId src, InArchive&) {
    EXPECT_EQ(src, 1u);
    final_count.fetch_add(1);
  });
  comm.Start();
  comm.Send(0, 1, 5, OutArchive());
  comm.WaitQuiescent();
  EXPECT_EQ(final_count.load(), 1);
}

TEST(CommLayerTest, StallDelaysDispatch) {
  CommLayer comm(2, FastComm());
  std::atomic<bool> received{false};
  comm.RegisterHandler(1, 5, [&](MachineId, InArchive&) {
    received.store(true);
  });
  comm.Start();
  comm.InjectStall(1, std::chrono::milliseconds(50));
  EXPECT_TRUE(comm.StallActive(1));
  Timer timer;
  comm.Send(0, 1, 5, OutArchive());
  comm.WaitQuiescent();
  EXPECT_TRUE(received.load());
  EXPECT_GE(timer.Millis(), 40.0);
}

TEST(CommLayerTest, OutOfBandExcludedFromQuiescenceButCounted) {
  CommLayer comm(2, FastComm());
  std::atomic<int> received{0};
  comm.RegisterHandler(1, 5, [&](MachineId, InArchive&) {
    received.fetch_add(1);
  });
  comm.Start();
  OutArchive oa;
  oa << uint64_t{1} << uint64_t{2};  // 16 payload bytes
  comm.SendOutOfBand(0, 1, 5, std::move(oa));
  // Quiescence is provable without waiting on telemetry-class traffic...
  EXPECT_TRUE(comm.WaitQuiescent());
  // ...which is still delivered and still charged to the byte counters.
  Timer timer;
  while (received.load() == 0 && timer.Seconds() < 10.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(received.load(), 1);
  EXPECT_EQ(comm.GetStats(0).messages_sent, 1u);
  EXPECT_EQ(comm.GetStats(0).bytes_sent, 16u + kMessageHeaderBytes);
}

TEST(CommLayerTest, BandwidthModelAddsSerializationDelay) {
  CommOptions o;
  o.latency = std::chrono::microseconds(0);
  o.bandwidth_bytes_per_sec = 1000000;  // 1 MB/s
  CommLayer comm(2, o);
  comm.RegisterHandler(1, 5, [](MachineId, InArchive&) {});
  comm.Start();
  Timer timer;
  OutArchive oa;
  std::vector<char> big(50000);  // 50 KB at 1MB/s = 50 ms
  oa << big;
  comm.Send(0, 1, 5, std::move(oa));
  comm.WaitQuiescent();
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
  comms[1]->RegisterHandler(1, 100, [&](MachineId src, InArchive& ia) {
    EXPECT_EQ(src, 0u);
    EXPECT_EQ(ia.ReadValue<int>(), 42);
    received.fetch_add(1);
  });
  StartAll(comms);
  OutArchive oa;
  oa << 42;
  comms[0]->Send(0, 1, 100, std::move(oa));
  comms[0]->WaitQuiescent();
  EXPECT_EQ(received.load(), 1);
}

TEST(TcpTransportTest, SelfSendSkipsTheWire) {
  auto comms = MakeTcpComms(1);
  std::atomic<int> received{0};
  comms[0]->RegisterHandler(0, 7, [&](MachineId, InArchive&) {
    received.fetch_add(1);
  });
  StartAll(comms);
  comms[0]->Send(0, 0, 7, OutArchive());
  comms[0]->WaitQuiescent();
  EXPECT_EQ(received.load(), 1);
}

TEST(TcpTransportTest, FifoPerChannel) {
  auto comms = MakeTcpComms(2);
  std::vector<int> order;
  comms[1]->RegisterHandler(1, 5, [&](MachineId, InArchive& ia) {
    order.push_back(ia.ReadValue<int>());
  });
  StartAll(comms);
  for (int i = 0; i < 200; ++i) {
    OutArchive oa;
    oa << i;
    comms[0]->Send(0, 1, 5, std::move(oa));
  }
  comms[0]->WaitQuiescent();
  comms[1]->WaitQuiescent();
  ASSERT_EQ(order.size(), 200u);
  for (int i = 0; i < 200; ++i) EXPECT_EQ(order[i], i);
}

TEST(TcpTransportTest, ByteAccountingCountsFrameHeader) {
  auto comms = MakeTcpComms(2);
  comms[1]->RegisterHandler(1, 5, [](MachineId, InArchive&) {});
  StartAll(comms);
  OutArchive oa;
  oa << uint64_t{1} << uint64_t{2};  // 16 payload bytes
  comms[0]->Send(0, 1, 5, std::move(oa));
  comms[0]->WaitQuiescent();
  comms[1]->WaitQuiescent();
  CommStats sender = comms[0]->GetStats(0);
  CommStats receiver = comms[1]->GetStats(1);
  EXPECT_EQ(sender.messages_sent, 1u);
  EXPECT_EQ(sender.bytes_sent, 16u + kTcpFrameHeaderBytes);
  EXPECT_EQ(receiver.messages_received, 1u);
  EXPECT_EQ(receiver.bytes_received, 16u + kTcpFrameHeaderBytes);
  // Control traffic (hello, quiescence probes) is not charged.
  auto peers = comms[0]->GetPeerStats(0);
  ASSERT_EQ(peers.size(), 2u);
  EXPECT_EQ(peers[1].messages_sent, 1u);
  EXPECT_EQ(peers[1].bytes_sent, 16u + kTcpFrameHeaderBytes);
  EXPECT_EQ(peers[0].messages_sent, 0u);
}

TEST(TcpTransportTest, OutOfBandExcludedFromQuiescenceButCounted) {
  auto comms = MakeTcpComms(2);
  std::atomic<int> received{0};
  comms[1]->RegisterHandler(1, 5, [&](MachineId, InArchive&) {
    received.fetch_add(1);
  });
  StartAll(comms);
  OutArchive oa;
  oa << uint64_t{1} << uint64_t{2};  // 16 payload bytes
  comms[0]->SendOutOfBand(0, 1, 5, std::move(oa));
  // The cluster-wide counter exchange must balance without the
  // out-of-band frame: both sides prove quiescence while it may still
  // be in flight.
  EXPECT_TRUE(comms[0]->WaitQuiescent());
  EXPECT_TRUE(comms[1]->WaitQuiescent());
  Timer timer;
  while (received.load() == 0 && timer.Seconds() < 10.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(received.load(), 1);
  EXPECT_EQ(comms[0]->GetStats(0).messages_sent, 1u);
  EXPECT_EQ(comms[0]->GetStats(0).bytes_sent, 16u + kTcpFrameHeaderBytes);
}

TEST(TcpTransportTest, HandlersMaySendAndQuiescenceSeesTheChain) {
  auto comms = MakeTcpComms(3);
  std::atomic<int> final_count{0};
  // Chain: 0 -> 1 -> 2.
  comms[1]->RegisterHandler(1, 5, [&](MachineId, InArchive&) {
    comms[1]->Send(1, 2, 5, OutArchive());
  });
  comms[2]->RegisterHandler(2, 5, [&](MachineId src, InArchive&) {
    EXPECT_EQ(src, 1u);
    final_count.fetch_add(1);
  });
  StartAll(comms);
  comms[0]->Send(0, 1, 5, OutArchive());
  // Machine 0's quiescence must cover the handler-initiated 1 -> 2 hop
  // it never saw locally: the counter exchange sums cluster-wide.
  comms[0]->WaitQuiescent();
  EXPECT_EQ(final_count.load(), 1);
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
  std::atomic<bool> matched{false};
  std::vector<uint64_t> big(200000);
  for (size_t i = 0; i < big.size(); ++i) big[i] = i * 2654435761u;
  comms[1]->RegisterHandler(1, 9, [&](MachineId, InArchive& ia) {
    std::vector<uint64_t> got;
    ia >> got;
    matched.store(got == big);
  });
  StartAll(comms);
  OutArchive oa;
  oa << big;
  comms[0]->Send(0, 1, 9, std::move(oa));
  comms[0]->WaitQuiescent();
  EXPECT_TRUE(matched.load());
}

// ---------------------------------------------------------------------
// TCP failure injection: a dead peer must surface as PeerDown and
// unblock waits with a status — never hang or kill the process.
// ---------------------------------------------------------------------

TEST(TcpFailureTest, PeerDeathFiresPeerDownAndUnblocksQuiescence) {
  auto comms = MakeTcpComms(3);
  for (size_t m = 0; m < 3; ++m) {
    comms[m]->RegisterHandler(m, 5, [](MachineId, InArchive&) {});
  }
  StartAll(comms);
  // Warm the mesh so every connection exists.
  comms[0]->Send(0, 1, 5, OutArchive());
  comms[0]->Send(0, 2, 5, OutArchive());
  ASSERT_TRUE(comms[0]->WaitQuiescent());

  // Machine 2 dies abruptly (kill -9 analogue).
  comms[2]->InjectKill(2);

  // Survivors observe the death through receive-side EOF within the
  // membership view, without any heartbeat configured.
  Timer timer;
  while ((comms[0]->membership().alive(2) ||
          comms[1]->membership().alive(2)) &&
         timer.Seconds() < 10.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_FALSE(comms[0]->membership().alive(2));
  EXPECT_FALSE(comms[1]->membership().alive(2));
  EXPECT_TRUE(comms[0]->IsPeerDown(2));

  // Quiescence among the survivors completes instead of hanging on the
  // dead machine's probe replies.
  comms[0]->Send(0, 1, 5, OutArchive());
  EXPECT_TRUE(comms[0]->WaitQuiescent());
  EXPECT_TRUE(comms[1]->WaitQuiescent());
}

TEST(TcpFailureTest, SendToDeadPeerIsDroppedNotFatal) {
  auto comms = MakeTcpComms(2);
  comms[1]->RegisterHandler(1, 5, [](MachineId, InArchive&) {});
  StartAll(comms);
  comms[0]->Send(0, 1, 5, OutArchive());
  ASSERT_TRUE(comms[0]->WaitQuiescent());

  comms[1]->InjectKill(1);
  Timer timer;
  while (comms[0]->membership().alive(1) && timer.Seconds() < 10.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_FALSE(comms[0]->membership().alive(1));

  // A burst of sends to the dead peer: no SIGPIPE, no blocking, and the
  // survivor's quiescence stays provable (dead traffic is excluded).
  for (int i = 0; i < 500; ++i) {
    OutArchive oa;
    oa << std::vector<char>(2048);
    comms[0]->Send(0, 1, 5, std::move(oa));
  }
  EXPECT_TRUE(comms[0]->WaitQuiescent());
}

TEST(TcpFailureTest, HeartbeatDeadlineMarksSilentPeerDown) {
  auto comms = MakeTcpComms(2);
  StartAll(comms);
  // Warm the connections so machine 0 has heard from machine 1 once.
  comms[0]->RegisterHandler(0, 5, [](MachineId, InArchive&) {});
  comms[1]->Send(1, 0, 5, OutArchive());
  ASSERT_TRUE(comms[1]->WaitQuiescent());

  // Only machine 0 runs a failure detector; machine 1 stays silent (no
  // heartbeats of its own), so machine 0's deadline must fire.
  comms[0]->EnableHeartbeats(std::chrono::milliseconds(20),
                             std::chrono::milliseconds(150));
  Timer timer;
  while (comms[0]->membership().alive(1) && timer.Seconds() < 10.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_FALSE(comms[0]->membership().alive(1));
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
