// Quickstart: dynamic PageRank on a simulated 4-machine cluster, written
// as the paper's update function f(v, S_v) (Sec. 3.2, Alg. 1).
//
// Demonstrates the full public API in ~140 lines:
//   1. generate a power-law web graph,
//   2. color + partition it and cut it into a distributed graph,
//   3. run the Alg. 1 PageRank update function on the chosen engine,
//   4. check the converged ranks against the exact solution,
//   5. gather and print the top pages.
//
// Usage: ./quickstart [--vertices=20000] [--machines=4] [--engine=chromatic]
//                     [--help]

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <vector>

#include "graphlab/apps/pagerank.h"
#include "graphlab/graphlab.h"

using namespace graphlab;  // NOLINT — example brevity

namespace {

using Graph = DistributedGraph<apps::PageRankVertex, apps::PageRankEdge>;

void PrintUsage() {
  std::printf(
      "Dynamic PageRank on a simulated cluster.\n"
      "  --vertices=N    web graph size        (default 20000)\n"
      "  --machines=M    simulated machines    (default 4)\n"
      "  --engine=NAME   strategy: %s          (default chromatic)\n"
      "  --scheduler=S   ordering: %s          (default priority)\n",
      JoinNames(ListDistributedEngineNames()).c_str(),
      JoinedSchedulerNames().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  OptionMap cli;
  cli.ParseArgs(argc, argv);
  if (cli.Has("help")) {
    PrintUsage();
    return 0;
  }
  const uint64_t n = cli.GetInt("vertices", 20000);
  const size_t machines = cli.GetInt("machines", 4);
  const std::string engine_kind = cli.GetString("engine", "chromatic");

  // 1. Synthesize the web graph and attach PageRank data.
  GraphStructure web = gen::PowerLawWeb(n, 8, 0.85, /*seed=*/1);
  apps::PageRankGraph global = apps::BuildPageRankGraph(web);
  std::printf("web graph: %zu vertices, %zu edges\n", global.num_vertices(),
              global.num_edges());

  // 2. Phase-1 partition into atoms, color for edge consistency, place.
  ColorAssignment colors = GreedyColoring(web);
  AtomId num_atoms = static_cast<AtomId>(machines * 4);  // over-partition
  PartitionAssignment atom_of = RandomPartition(n, num_atoms, 7);
  std::vector<rpc::MachineId> atom_machine(num_atoms);
  for (AtomId a = 0; a < num_atoms; ++a) atom_machine[a] = a % machines;

  // 3. Spin up the simulated cluster, cut the graph, and run the Alg. 1
  // update function on the chosen engine.
  EngineOptions eo;
  eo.num_threads = 2;
  eo.scheduler = cli.GetString("scheduler", "priority");
  eo.max_pipeline_length = 256;

  // DistributedGraph pins itself to its comm layer, so each machine cuts
  // its own partition of the global graph.
  std::vector<Graph> partitions(machines);
  std::atomic<bool> failed{false};

  rpc::ClusterOptions cluster;
  cluster.num_machines = machines;
  cluster.comm.latency = std::chrono::microseconds(50);
  rpc::Runtime runtime(cluster);
  SumAllReduce allreduce(&runtime.comm(), 1);

  runtime.Run([&](rpc::MachineContext& ctx) {
    Graph& graph = partitions[ctx.id];
    GL_CHECK_OK(graph.InitFromGlobal(global, atom_of, colors, atom_machine,
                                     ctx.id, &ctx.comm()));
    ctx.barrier().Wait(ctx.id);

    // The factory makes the engine a runtime string choice; a bad
    // --engine= is a clean error on every machine instead of an abort,
    // so the runtime winds down cleanly.
    DistributedEngineDeps<apps::PageRankVertex, apps::PageRankEdge> deps;
    deps.allreduce = &allreduce;
    auto created = CreateEngine(engine_kind, ctx, &graph, eo, deps);
    if (!created.ok()) {
      if (ctx.id == 0) {
        std::printf("cannot create engine: %s\n",
                    created.status().ToString().c_str());
      }
      failed.store(true);
      return;
    }
    auto engine = std::move(created.value());
    engine->SetUpdateFn(apps::MakePageRankUpdateFn<Graph>(0.85, 1e-4));
    engine->ScheduleAll();
    RunResult result = engine->Start();
    if (ctx.id == 0) {
      rpc::CommStats total = ctx.comm().GetTotalStats();
      std::printf(
          "engine=%s machines=%zu updates=%llu wall=%.3fs network=%.2f MB\n",
          engine_kind.c_str(), machines,
          static_cast<unsigned long long>(result.updates), result.seconds,
          static_cast<double>(total.bytes_sent) / 1e6);
    }
  });
  if (failed.load()) return 1;

  // 4. Compare against the exact fixed point (power iteration).
  const std::vector<double> exact = apps::ExactPageRank(global);
  double l1 = 0.0;
  for (Graph& graph : partitions) {
    for (LocalVid l : graph.owned_vertices()) {
      l1 += std::fabs(exact[graph.Gvid(l)] - graph.vertex_data(l).rank);
    }
  }
  std::printf("L1 distance to exact PageRank: %.2e (mean %.2e per vertex)\n",
              l1, l1 / static_cast<double>(n));

  // 5. Gather ranks from owners and print the top 10 pages.
  std::vector<std::pair<double, VertexId>> ranked;
  ranked.reserve(n);
  for (Graph& graph : partitions) {
    for (LocalVid l : graph.owned_vertices()) {
      ranked.emplace_back(graph.vertex_data(l).rank, graph.Gvid(l));
    }
  }
  std::sort(ranked.rbegin(), ranked.rend());
  std::printf("top pages by rank:\n");
  for (size_t i = 0; i < 10 && i < ranked.size(); ++i) {
    std::printf("  #%zu  vertex %u  rank %.4f\n", i + 1, ranked[i].second,
                ranked[i].first);
  }
  return 0;
}
