// Loopy belief propagation on the paper's synthetic 3-D mesh MRF
// (Sec. 4.2.2) with the pipelined distributed locking engine, including a
// mid-run asynchronous Chandy-Lamport snapshot and a recovery check.
//
// Usage: ./mesh_bp [--side=24] [--machines=4] [--pipeline=500]
//                  [--snapshot_dir=/tmp/mesh_bp_snap]

#include <cstdio>
#include <filesystem>

#include "graphlab/apps/loopy_bp.h"
#include "graphlab/graphlab.h"

using namespace graphlab;  // NOLINT — example brevity

int main(int argc, char** argv) {
  OptionMap opts;
  opts.ParseArgs(argc, argv);
  const uint32_t side = static_cast<uint32_t>(opts.GetInt("side", 24));
  const size_t machines = opts.GetInt("machines", 4);
  const size_t pipeline = opts.GetInt("pipeline", 500);
  const std::string snapshot_dir =
      opts.GetString("snapshot_dir", "/tmp/mesh_bp_snap");
  std::filesystem::remove_all(snapshot_dir);

  // 26-connected mesh interpreted as a binary MRF (paper Sec. 4.2.2).
  GraphStructure mesh = gen::Mesh3D(side, side, side, 26);
  apps::BpGraph global =
      apps::BuildMrf(mesh, /*states=*/2, /*noise=*/0.2,
                     /*evidence_strength=*/1.2, /*seed=*/5, /*block=*/64);
  std::printf("mesh: %zu vertices, %zu edges (26-connected %ux%ux%u)\n",
              global.num_vertices(), global.num_edges(), side, side, side);

  ColorAssignment colors = GreedyColoring(mesh);
  PartitionAssignment atom_of = BfsPartition(mesh, machines * 8, 2);
  std::vector<rpc::MachineId> atom_machine(machines * 8);
  for (AtomId a = 0; a < machines * 8; ++a) atom_machine[a] = a % machines;

  rpc::ClusterOptions cluster;
  cluster.num_machines = machines;
  cluster.comm.latency = std::chrono::microseconds(100);
  rpc::Runtime runtime(cluster);
  SumAllReduce allreduce(&runtime.comm(), 1);

  using Graph = DistributedGraph<apps::BpVertex, apps::BpEdge>;
  std::vector<Graph> partitions(machines);

  runtime.Run([&](rpc::MachineContext& ctx) {
    Graph& graph = partitions[ctx.id];
    GL_CHECK_OK(graph.InitFromGlobal(global, atom_of, colors, atom_machine,
                                     ctx.id, &ctx.comm()));
    SnapshotManager<apps::BpVertex, apps::BpEdge> snapshot(ctx, &graph,
                                                           snapshot_dir);
    ctx.barrier().Wait(ctx.id);

    EngineOptions eo;
    eo.num_threads = 2;
    eo.scheduler = "priority";  // residual (dynamic) BP
    eo.max_pipeline_length = pipeline;
    eo.snapshot_mode = SnapshotMode::kAsynchronous;
    eo.snapshot_trigger_updates = mesh.num_vertices;  // mid-run
    DistributedEngineDeps<apps::BpVertex, apps::BpEdge> deps;
    deps.allreduce = &allreduce;
    deps.snapshot = &snapshot;
    auto engine =
        std::move(CreateEngine("locking", ctx, &graph, eo, deps).value());
    engine->SetUpdateFn(apps::MakeBpUpdateFn<Graph>(
        apps::PottsPotential{2.0}, /*tolerance=*/1e-3));
    engine->ScheduleAll();
    RunResult result = engine->Start();
    if (ctx.id == 0) {
      std::printf(
          "LBP converged: %llu updates in %.3fs, pipeline=%zu, "
          "async snapshot journaled during the run\n",
          static_cast<unsigned long long>(result.updates), result.seconds,
          pipeline);
    }
    // Demonstrate recovery: restore the Chandy-Lamport snapshot.  The
    // flush round applies every machine's re-pushed ghosts (the push
    // handler sends nothing).
    ctx.barrier().Wait(ctx.id);
    GL_CHECK_OK(snapshot.Restore(1));
    ctx.flush().Run(ctx.id);
    if (ctx.id == 0) {
      std::printf("recovery from snapshot epoch 1 verified on all %zu "
                  "machines\n", machines);
    }
  });

  // Report segmentation confidence from the owners.
  size_t confident = 0, total = 0;
  for (Graph& graph : partitions) {
    for (LocalVid l : graph.owned_vertices()) {
      const auto& b = graph.vertex_data(l).belief;
      if (std::fabs(b[0] - b[1]) > 0.2) confident++;
      total++;
    }
  }
  std::printf("confident vertices after restore: %zu / %zu\n", confident,
              total);
  std::filesystem::remove_all(snapshot_dir);
  return 0;
}
