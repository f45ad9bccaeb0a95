// Copyright 2026 The Distributed GraphLab Reproduction Authors.
//
// bench_transport: interconnect backend and ghost-sync strategy sweep.
//
// Part 1 — raw transport: throughput (messages/s, MB/s) and round-trip
// latency for the simulated in-process backend vs real TCP loopback
// sockets, swept over message size x peer count, with the per-peer
// traffic breakdown.
//
// Part 2 — ghost sync: per-scope flushing vs coalesced framed delta
// batches on the dynamic-PageRank workload (chromatic engine).  The
// coalesced path must measurably reduce bytes_sent — the number the
// paper's network-utilization figures care about.
//
// Emits BENCH_transport.json (schema_version 1).
//
//   ./bench_transport [--quick] [--messages=N] [--vertices=N]

#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "bench/bench_json.h"
#include "graphlab/apps/pagerank.h"
#include "graphlab/graph/generators.h"
#include "graphlab/rpc/inproc_transport.h"
#include "graphlab/rpc/tcp_transport.h"
#include "graphlab/util/options.h"
#include "graphlab/util/timer.h"

namespace graphlab {
namespace {

constexpr rpc::HandlerId kSinkHandler = 40;
constexpr rpc::HandlerId kEchoHandler = 41;

/// Builds a cluster of CommLayers over the requested backend.  The
/// simulated backend shares one layer; TCP gets one per machine over a
/// loopback socket mesh.
struct Cluster {
  std::vector<std::unique_ptr<rpc::CommLayer>> comms;
  rpc::CommLayer& at(rpc::MachineId m) {
    return comms.size() == 1 ? *comms[0] : *comms[m];
  }
};

Cluster MakeCluster(rpc::TransportKind kind, size_t n) {
  Cluster c;
  if (kind == rpc::TransportKind::kInProcess) {
    rpc::CommOptions o;
    o.latency = std::chrono::microseconds(0);
    c.comms.push_back(std::make_unique<rpc::CommLayer>(
        std::make_unique<rpc::InProcessTransport>(n, o)));
  } else {
    auto cluster = rpc::MakeLoopbackTcpCluster(n);
    GL_CHECK(cluster.ok()) << cluster.status().ToString();
    for (size_t i = 0; i < n; ++i) {
      c.comms.push_back(std::make_unique<rpc::CommLayer>(
          std::make_unique<rpc::TcpTransport>((*cluster)[i])));
    }
  }
  return c;
}

void BenchThroughput(bench::JsonWriter* json, rpc::TransportKind kind,
                     size_t peers, size_t msg_bytes, size_t messages) {
  Cluster cluster = MakeCluster(kind, peers);
  std::atomic<uint64_t> received{0};
  std::vector<rpc::HandlerScope> sinks;
  for (rpc::MachineId m = 0; m < peers; ++m) {
    sinks.push_back(cluster.at(m).RegisterHandler(
        m, kSinkHandler, [&](rpc::MachineId, InArchive& ia) {
          std::vector<char> payload;
          ia >> payload;
          received.fetch_add(1, std::memory_order_relaxed);
        }));
  }
  for (auto& comm : cluster.comms) comm->Start();

  std::vector<char> payload(msg_bytes, 'x');
  Timer timer;
  // Machine 0 fans out round-robin to every other machine.
  for (size_t i = 0; i < messages; ++i) {
    OutArchive oa;
    oa << payload;
    rpc::MachineId dst =
        peers == 1 ? 0 : static_cast<rpc::MachineId>(1 + i % (peers - 1));
    cluster.at(0).Send(0, dst, kSinkHandler, std::move(oa));
  }
  while (received.load(std::memory_order_relaxed) < messages) {
    std::this_thread::yield();
  }
  const double seconds = timer.Seconds();
  GL_CHECK_EQ(received.load(), messages);

  const rpc::CommStats stats = cluster.at(0).GetStats(0);
  const double mb = static_cast<double>(stats.bytes_sent) / 1e6;
  std::printf("  %-7s peers=%zu size=%-6zu  %8.0f msg/s  %7.1f MB/s\n",
              rpc::TransportKindName(kind), peers, msg_bytes,
              messages / seconds, mb / seconds);
  json->AddRow()
      .Set("row", "throughput")
      .Set("transport", rpc::TransportKindName(kind))
      .Set("peers", static_cast<uint64_t>(peers))
      .Set("msg_bytes", static_cast<uint64_t>(msg_bytes))
      .Set("messages", static_cast<uint64_t>(messages))
      .Set("seconds", seconds)
      .Set("msgs_per_sec", messages / seconds)
      .Set("mb_per_sec", mb / seconds);
  bench::AddPeerStatsRows(
      json, std::string(rpc::TransportKindName(kind)) + "/throughput/m0",
      cluster.at(0).GetPeerStats(0));
}

void BenchLatency(bench::JsonWriter* json, rpc::TransportKind kind,
                  size_t round_trips) {
  Cluster cluster = MakeCluster(kind, 2);
  std::atomic<uint64_t> pongs{0};
  rpc::HandlerScope echo = cluster.at(1).RegisterHandler(
      1, kEchoHandler, [&](rpc::MachineId src, InArchive&) {
        cluster.at(1).Send(1, src, kEchoHandler, OutArchive());
      });
  rpc::HandlerScope pong = cluster.at(0).RegisterHandler(
      0, kEchoHandler, [&](rpc::MachineId, InArchive&) {
        pongs.fetch_add(1, std::memory_order_acq_rel);
      });
  for (auto& comm : cluster.comms) comm->Start();

  Timer timer;
  for (size_t i = 0; i < round_trips; ++i) {
    uint64_t want = pongs.load(std::memory_order_acquire) + 1;
    cluster.at(0).Send(0, 1, kEchoHandler, OutArchive());
    while (pongs.load(std::memory_order_acquire) < want) {
    }
  }
  const double us = timer.Seconds() * 1e6 / round_trips;
  std::printf("  %-7s ping-pong: %7.1f us/round-trip\n",
              rpc::TransportKindName(kind), us);
  json->AddRow()
      .Set("row", "latency")
      .Set("transport", rpc::TransportKindName(kind))
      .Set("round_trips", static_cast<uint64_t>(round_trips))
      .Set("rtt_us", us);
}

/// Dynamic PageRank (residual rescheduling keeps boundary vertices hot,
/// so the same ghost entities are rewritten many times per color sweep)
/// through the chromatic engine with the given ghost-sync strategy.
void BenchGhostSync(bench::JsonWriter* json, size_t vertices,
                    bool coalescing, uint64_t* bytes_out) {
  using V = apps::PageRankVertex;
  using E = apps::PageRankEdge;
  auto structure = gen::PowerLawWeb(vertices, 5, 0.8, 11);
  auto global = apps::BuildPageRankGraph(structure);

  bench::DistConfig cfg;
  cfg.machines = 4;
  cfg.threads = 2;
  cfg.latency_us = 0;
  cfg.engine = "chromatic";
  cfg.partition = "random";

  // RunDistributed drives the engine through the factory; the ghost-sync
  // strategy rides EngineOptions via a registered sync hook... simpler:
  // inline the cluster here to control EngineOptions directly.
  GraphStructure s = global.Structure();
  ColorAssignment colors = GreedyColoring(s);
  PartitionAssignment atom_of = bench::MakePartition(s, cfg);
  std::vector<rpc::MachineId> placement = {0, 1, 2, 3};
  rpc::ClusterOptions copts;
  copts.num_machines = cfg.machines;
  copts.comm.latency = std::chrono::microseconds(0);
  rpc::Runtime runtime(copts);
  SumAllReduce allreduce(&runtime.comm(), 1);
  std::vector<DistributedGraph<V, E>> graphs(cfg.machines);
  std::atomic<uint64_t> updates{0};
  std::atomic<uint64_t> merges{0};
  Timer timer;
  runtime.Run([&](rpc::MachineContext& ctx) {
    auto& graph = graphs[ctx.id];
    GL_CHECK_OK(graph.InitFromGlobal(global, atom_of, colors, placement,
                                     ctx.id, &ctx.comm()));
    ctx.barrier().Wait(ctx.id);
    if (ctx.id == 0) ctx.comm().ResetStats();
    ctx.barrier().Wait(ctx.id);
    EngineOptions eo;
    eo.num_threads = cfg.threads;
    eo.ghost_coalescing = coalescing;
    DistributedEngineDeps<V, E> deps;
    deps.allreduce = &allreduce;
    auto engine =
        std::move(CreateEngine("chromatic", ctx, &graph, eo, deps).value());
    engine->SetUpdateFn(apps::MakePageRankUpdateFn<DistributedGraph<V, E>>(
        0.85, 1e-10));
    engine->ScheduleAll();
    RunResult r = engine->Start();
    if (ctx.id == 0) updates.store(r.updates);
    merges.fetch_add(graph.coalesced_merges(), std::memory_order_relaxed);
  });
  const double seconds = timer.Seconds();
  const rpc::CommStats total = runtime.comm().GetTotalStats();
  *bytes_out = total.bytes_sent;

  const char* label = coalescing ? "coalesced" : "per_scope";
  std::printf(
      "  %-9s updates=%-8llu msgs=%-7llu bytes=%-10llu merges=%llu "
      "(%.2fs)\n",
      label, static_cast<unsigned long long>(updates.load()),
      static_cast<unsigned long long>(total.messages_sent),
      static_cast<unsigned long long>(total.bytes_sent),
      static_cast<unsigned long long>(merges.load()), seconds);
  json->AddRow()
      .Set("row", "ghost_sync")
      .Set("strategy", label)
      .Set("vertices", static_cast<uint64_t>(vertices))
      .Set("machines", static_cast<uint64_t>(cfg.machines))
      .Set("updates", updates.load())
      .Set("messages_sent", total.messages_sent)
      .Set("bytes_sent", total.bytes_sent)
      .Set("coalesced_merges", merges.load())
      .Set("seconds", seconds);
}

}  // namespace
}  // namespace graphlab

int main(int argc, char** argv) {
  using namespace graphlab;
  OptionMap opts;
  opts.ParseArgs(argc, argv);
  const bool quick = opts.GetBool("quick", false);
  const size_t messages =
      static_cast<size_t>(opts.GetInt("messages", quick ? 4000 : 40000));
  const size_t vertices =
      static_cast<size_t>(opts.GetInt("vertices", quick ? 1500 : 5000));
  const size_t round_trips = quick ? 500 : 5000;

  bench::JsonWriter json("transport");
  json.meta()
      .Set("quick", quick)
      .Set("messages", static_cast<uint64_t>(messages))
      .Set("vertices", static_cast<uint64_t>(vertices));

  bench::PrintHeader("transport throughput (message size x peers)");
  for (rpc::TransportKind kind :
       {rpc::TransportKind::kInProcess, rpc::TransportKind::kTcp}) {
    for (size_t peers : {2u, 4u}) {
      for (size_t size : {64u, 1024u, 32768u}) {
        size_t n = size >= 32768u ? messages / 8 : messages;
        BenchThroughput(&json, kind, peers, size, n);
      }
    }
  }

  bench::PrintHeader("transport round-trip latency");
  for (rpc::TransportKind kind :
       {rpc::TransportKind::kInProcess, rpc::TransportKind::kTcp}) {
    BenchLatency(&json, kind, round_trips);
  }

  bench::PrintHeader(
      "ghost sync: per-scope vs coalesced delta batches (dynamic "
      "PageRank, chromatic, 4 machines)");
  uint64_t per_scope_bytes = 0, coalesced_bytes = 0;
  BenchGhostSync(&json, vertices, /*coalescing=*/false, &per_scope_bytes);
  BenchGhostSync(&json, vertices, /*coalescing=*/true, &coalesced_bytes);
  const double reduction =
      per_scope_bytes == 0
          ? 0.0
          : 1.0 - static_cast<double>(coalesced_bytes) /
                      static_cast<double>(per_scope_bytes);
  std::printf("  coalescing cut bytes_sent by %.1f%%\n", reduction * 100);
  json.meta().Set("coalescing_bytes_reduction", reduction);

  json.WriteFile();
  return 0;
}
