// Quickstart: dynamic PageRank on a simulated 4-machine cluster, written
// twice — once as the paper's classic update function (Sec. 3.2) and once
// as a gather-apply-scatter vertex program compiled onto the same engine.
//
// Demonstrates the full public API in ~150 lines:
//   1. generate a power-law web graph,
//   2. color + partition it and cut it into a distributed graph,
//   3. run the Alg. 1 PageRank update function on the chosen engine,
//   4. run the same math as a GAS program and check both converge to the
//      same ranks,
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
      "Dynamic PageRank on a simulated cluster, classic + GAS.\n"
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

  // 3 + 4. Run the two API styles over the same partitioning.  Each pass
  // spins up its own simulated cluster, cuts the graph, runs, and leaves
  // the converged ranks in `partitions`.
  EngineOptions eo;
  eo.num_threads = 2;
  eo.scheduler = cli.GetString("scheduler", "priority");
  eo.max_pipeline_length = 256;

  // One partition set per API style (DistributedGraph pins itself to its
  // comm layer, so each simulated cluster cuts its own copy).
  std::vector<Graph> classic_parts(machines);
  std::vector<Graph> gas_parts(machines);
  std::atomic<bool> failed{false};

  // `install` hooks the per-machine engine with either API's update fn.
  auto run_cluster = [&](const char* label, std::vector<Graph>& partitions,
                         auto&& install) {
    rpc::ClusterOptions cluster;
    cluster.num_machines = machines;
    cluster.comm.latency = std::chrono::microseconds(50);
    rpc::Runtime runtime(cluster);
    SumAllReduce allreduce(&runtime.comm(), 1);

    runtime.Run([&](rpc::MachineContext& ctx) {
      Graph& graph = partitions[ctx.id];
      GL_CHECK_OK(graph.InitFromGlobal(global, atom_of, colors,
                                       atom_machine, ctx.id, &ctx.comm()));
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
      install(&graph, engine.get());
      engine->ScheduleAll();
      RunResult result = engine->Start();
      if (ctx.id == 0) {
        rpc::CommStats total = ctx.comm().GetTotalStats();
        std::printf(
            "%-18s engine=%s machines=%zu updates=%llu wall=%.3fs "
            "network=%.2f MB\n",
            label, engine_kind.c_str(), machines,
            static_cast<unsigned long long>(result.updates), result.seconds,
            static_cast<double>(total.bytes_sent) / 1e6);
      }
    });
  };

  // 3. Classic API: install the handwritten f(v, S_v) of Alg. 1.
  run_cluster("classic update fn", classic_parts,
              [](Graph*, IEngine<Graph>* engine) {
                engine->SetUpdateFn(
                    apps::MakePageRankUpdateFn<Graph>(0.85, 1e-4));
              });
  if (failed.load()) return 1;

  std::vector<double> classic_rank(n, 0.0);
  for (Graph& graph : classic_parts) {
    for (LocalVid l : graph.owned_vertices()) {
      classic_rank[graph.Gvid(l)] = graph.vertex_data(l).rank;
    }
  }

  // 4. GAS API: the same math as a vertex program, compiled per machine
  // onto the same engine.
  run_cluster("gas vertex program", gas_parts,
              [](Graph* graph, IEngine<Graph>* engine) {
                apps::PageRankProgram<Graph> program;
                program.damping = 0.85;
                program.tolerance = 1e-4;
                engine->SetUpdateFn(
                    CompileVertexProgram(graph, program).update_fn());
              });
  if (failed.load()) return 1;

  double l1 = 0.0;
  for (Graph& graph : gas_parts) {
    for (LocalVid l : graph.owned_vertices()) {
      l1 += std::fabs(classic_rank[graph.Gvid(l)] -
                      graph.vertex_data(l).rank);
    }
  }
  std::printf("classic vs GAS L1 distance: %.2e (same fixed point)\n", l1);

  // 5. Gather ranks from owners and print the top 10 pages.
  std::vector<std::pair<double, VertexId>> ranked;
  ranked.reserve(n);
  for (Graph& graph : gas_parts) {
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
