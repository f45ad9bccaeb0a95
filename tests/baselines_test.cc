// Tests for the comparison baselines: the Pregel-style BSP engine, the
// MPI-style bulk synchronous engine, the Hadoop cost-model simulator and
// the EC2 price model.

#include <gtest/gtest.h>

#include "graphlab/apps/als.h"
#include "graphlab/apps/pagerank.h"
#include "graphlab/baselines/bsp_engine.h"
#include "graphlab/baselines/bulk_sync_engine.h"
#include "graphlab/baselines/ec2_cost.h"
#include "graphlab/baselines/hadoop_sim.h"
#include "graphlab/engine/allreduce.h"
#include "graphlab/graph/coloring.h"
#include "graphlab/graph/partition.h"
#include "graphlab/rpc/runtime.h"

namespace graphlab {
namespace {

using apps::AlsEdge;
using apps::AlsVertex;
using apps::PageRankEdge;
using apps::PageRankVertex;

// ---------------------------------------------------------------------
// BSP (Pregel) engine
// ---------------------------------------------------------------------

TEST(BspEngineTest, PageRankConvergesToExact) {
  auto structure = gen::PowerLawWeb(1000, 5, 0.8, 41);
  auto g = apps::BuildPageRankGraph(structure);
  auto exact = apps::ExactPageRank(g);

  EngineOptions opts;
  opts.num_threads = 4;
  baselines::BspEngine<PageRankVertex, PageRankEdge> engine(&g, opts);
  engine.SetStepFn(apps::MakePageRankBspStep(0.85, 1e-9));
  engine.ActivateAll();
  RunResult r = engine.RunSupersteps(/*max_supersteps=*/200);
  EXPECT_GT(r.sweeps, 10u);
  EXPECT_LT(apps::PageRankL1Error(g, exact), 1e-3);
}

TEST(BspEngineTest, InactiveVerticesSkipSupersteps) {
  // Only one vertex activated; with tolerance high enough nothing
  // reactivates, so exactly one update runs.
  auto structure = gen::Grid2D(5, 5);
  auto g = apps::BuildPageRankGraph(structure);
  baselines::BspEngine<PageRankVertex, PageRankEdge> engine(&g,
                                                             EngineOptions{});
  engine.SetStepFn(apps::MakePageRankBspStep(0.85, /*tolerance=*/100.0));
  engine.Activate(12);
  RunResult r = engine.RunSupersteps(10);
  EXPECT_EQ(r.updates, 1u);
  EXPECT_EQ(r.sweeps, 1u);
}

TEST(BspEngineTest, SupersteppedValuesUsePreviousIteration) {
  // Two vertices pointing at each other: after one superstep, both must
  // have been computed from the *initial* value of the other (Jacobi), not
  // from a half-updated one.
  LocalGraph<PageRankVertex, PageRankEdge> g(2);
  g.AddEdge(0, 1, {1.0f});
  g.AddEdge(1, 0, {1.0f});
  g.Finalize();
  g.vertex_data(0).rank = 1.0;
  g.vertex_data(1).rank = 3.0;
  EngineOptions bsp_opts;
  bsp_opts.num_threads = 2;
  baselines::BspEngine<PageRankVertex, PageRankEdge> engine(&g, bsp_opts);
  engine.SetStepFn(apps::MakePageRankBspStep(0.85, 1e9));
  engine.ActivateAll();
  engine.RunSupersteps(1);
  // rank0 = 0.15 + 0.85*3 ; rank1 = 0.15 + 0.85*1 (from prev values).
  EXPECT_NEAR(g.vertex_data(0).rank, 0.15 + 0.85 * 3.0, 1e-12);
  EXPECT_NEAR(g.vertex_data(1).rank, 0.15 + 0.85 * 1.0, 1e-12);
}

// ---------------------------------------------------------------------
// BulkSync (MPI) engine
// ---------------------------------------------------------------------

TEST(BulkSyncEngineTest, DistributedAlsReducesRmse) {
  apps::AlsProblem p;
  p.num_users = 400;
  p.num_items = 80;
  p.ratings_per_user = 10;
  const uint32_t d = 6;
  auto global = apps::BuildAlsGraph(p, d);
  double rmse_before = apps::AlsRmse(global, false);
  auto structure = global.Structure();
  auto colors = GreedyColoring(structure);
  auto atom_of = RandomPartition(structure.num_vertices, 3, 6);
  std::vector<rpc::MachineId> placement = {0, 1, 2};

  using Graph = DistributedGraph<AlsVertex, AlsEdge>;
  rpc::ClusterOptions copts;
  copts.num_machines = 3;
  copts.comm.latency = std::chrono::microseconds(0);
  rpc::Runtime runtime(copts);
  SumAllReduce allreduce(&runtime.comm(), 1);
  std::vector<Graph> graphs(3);
  const uint64_t num_users = p.num_users;

  runtime.Run([&](rpc::MachineContext& ctx) {
    Graph& graph = graphs[ctx.id];
    ASSERT_TRUE(graph
                    .InitFromGlobal(global, atom_of, colors, placement,
                                    ctx.id, &ctx.comm())
                    .ok());
    ctx.barrier().Wait(ctx.id);
    EngineOptions opts;
    opts.num_threads = 2;
    opts.max_sweeps = 10;
    baselines::BulkSyncEngine<AlsVertex, AlsEdge> engine(ctx, &graph,
                                                         &allreduce, opts);
    // ALS alternation: users on even supersteps, movies on odd.
    engine.SetSelector([num_users](const Graph& g, LocalVid l,
                                   uint64_t step) {
      bool is_user = g.Gvid(l) < num_users;
      return (step % 2 == 0) == is_user;
    });
    engine.SetKernel([](Graph& g, LocalVid l, uint64_t) {
      // Same normal-equation solve as the GraphLab update function.
      Context<Graph> ctx2(&g, l, 1.0, ConsistencyModel::kEdgeConsistency,
                          nullptr, [](void*, LocalVid, double) {});
      auto solution = apps::SolveAlsVertex(ctx2, 0.05);
      std::vector<double> old;
      apps::LoadFactors(g.vertex_data(l).factors, &old);
      apps::StoreFactors(solution, &g.vertex_data(l).factors);
      return apps::L2Distance(solution, old);
    });
    RunResult r = engine.Start();
    if (ctx.id == 0) {
      EXPECT_EQ(r.sweeps, 10u);
    }
  });

  // Gather factors back into the global graph for RMSE measurement.
  for (auto& graph : graphs) {
    for (LocalVid l : graph.owned_vertices()) {
      global.vertex_data(graph.Gvid(l)).factors =
          graph.vertex_data(l).factors;
    }
  }
  EXPECT_LT(apps::AlsRmse(global, false), rmse_before * 0.5);
}

TEST(BulkSyncEngineTest, ResidualToleranceStopsEarly) {
  auto structure = gen::Grid2D(8, 8);
  auto global = apps::BuildPageRankGraph(structure);
  auto colors = GreedyColoring(structure);
  auto atom_of = BlockPartition(structure.num_vertices, 2);
  std::vector<rpc::MachineId> placement = {0, 1};
  using Graph = DistributedGraph<PageRankVertex, PageRankEdge>;
  rpc::ClusterOptions copts;
  copts.num_machines = 2;
  copts.comm.latency = std::chrono::microseconds(0);
  rpc::Runtime runtime(copts);
  SumAllReduce allreduce(&runtime.comm(), 1);
  std::vector<Graph> graphs(2);
  std::atomic<uint64_t> sweeps{0};
  runtime.Run([&](rpc::MachineContext& ctx) {
    Graph& graph = graphs[ctx.id];
    ASSERT_TRUE(graph
                    .InitFromGlobal(global, atom_of, colors, placement,
                                    ctx.id, &ctx.comm())
                    .ok());
    ctx.barrier().Wait(ctx.id);
    EngineOptions opts;
    opts.num_threads = 1;
    opts.max_sweeps = 500;
    opts.residual_tolerance = 1e-3;
    baselines::BulkSyncEngine<PageRankVertex, PageRankEdge> engine(
        ctx, &graph, &allreduce, opts);
    engine.SetKernel([](Graph& g, LocalVid l, uint64_t) {
      double sum = 0;
      for (LocalEid e : g.in_edges(l)) {
        sum += g.edge_data(e).weight * g.vertex_data(g.edge_source(e)).rank;
      }
      double next = 0.15 + 0.85 * sum;
      double residual = std::fabs(next - g.vertex_data(l).rank);
      g.vertex_data(l).rank = next;
      return residual;
    });
    RunResult r = engine.Start();
    if (ctx.id == 0) sweeps.store(r.sweeps);
  });
  EXPECT_GE(sweeps.load(), 2u);
  EXPECT_LT(sweeps.load(), 500u) << "tolerance early-exit did not trigger";
}

// ---------------------------------------------------------------------
// Hadoop simulator
// ---------------------------------------------------------------------

TEST(HadoopSimTest, ExecutesMapShuffleReduce) {
  baselines::HadoopCostModel model;
  baselines::HadoopJob<uint32_t, double> job(model, 4);
  std::map<uint32_t, double> sums;
  auto stats = job.Run(
      /*num_items=*/1000, /*record_bytes=*/16,
      [](uint64_t i, const baselines::HadoopJob<uint32_t, double>::Emit& emit) {
        emit(static_cast<uint32_t>(i % 10), static_cast<double>(i));
      },
      [&](const uint32_t& key, const std::vector<double>& values) {
        double s = 0;
        for (double v : values) s += v;
        sums[key] = s;
      });
  EXPECT_EQ(stats.map_records, 1000u);
  EXPECT_EQ(stats.reduce_groups, 10u);
  EXPECT_EQ(stats.map_output_bytes, 16000u);
  EXPECT_EQ(sums.size(), 10u);
  // Sum over key 0: 0 + 10 + ... + 990.
  EXPECT_EQ(sums[0], 49500.0);
  EXPECT_GE(stats.modeled_seconds, model.job_startup_seconds);
}

TEST(HadoopSimTest, MoreMachinesReduceModeledTimeButNotStartup) {
  baselines::HadoopCostModel model;
  auto run = [&](size_t machines) {
    baselines::HadoopJob<uint32_t, uint64_t> job(model, machines);
    return job
        .Run(
            200000, 64,
            [](uint64_t i,
               const baselines::HadoopJob<uint32_t, uint64_t>::Emit& emit) {
              emit(static_cast<uint32_t>(i % 100), i);
            },
            [](const uint32_t&, const std::vector<uint64_t>&) {})
        .modeled_seconds;
  };
  double t4 = run(4);
  double t64 = run(64);
  EXPECT_GT(t4, t64);
  EXPECT_GE(t64, model.job_startup_seconds);  // startup is not parallel
}

// ---------------------------------------------------------------------
// EC2 cost model
// ---------------------------------------------------------------------

TEST(Ec2CostTest, FineGrainedBilling) {
  // 4 machines for 1 hour = 4 * rate.
  EXPECT_NEAR(baselines::Ec2CostUsd(4, 3600.0),
              4.0 * baselines::kCc14xlargeHourlyUsd, 1e-12);
  // Cost scales linearly with time and machines.
  EXPECT_NEAR(baselines::Ec2CostUsd(8, 1800.0),
              baselines::Ec2CostUsd(4, 3600.0), 1e-12);
}

}  // namespace
}  // namespace graphlab
