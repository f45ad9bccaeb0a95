// Application-level tests: ALS, Loopy BP, CoEM, CoSeg (with the GMM sync
// operation), and the small linear algebra kernel — each checked for the
// statistical behaviour the paper's experiments rely on.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "graphlab/apps/als.h"
#include "graphlab/apps/coem.h"
#include "graphlab/apps/coseg.h"
#include "graphlab/apps/linalg.h"
#include "graphlab/apps/loopy_bp.h"
#include "graphlab/engine/engine_factory.h"
#include "graphlab/graph/partition.h"
#include "graphlab/rpc/runtime.h"

namespace graphlab {
namespace {

// ---------------------------------------------------------------------
// Linear algebra
// ---------------------------------------------------------------------

TEST(LinalgTest, CholeskySolvesSpdSystem) {
  // A = [[4,2],[2,3]], b = [10, 9] -> x = [1.5, 2].
  std::vector<double> a = {4, 2, 2, 3};
  std::vector<double> b = {10, 9}, diag(2);
  apps::SolveSpdInPlace(a.data(), 2, b.data(), diag.data());
  EXPECT_NEAR(b[0], 1.5, 1e-12);
  EXPECT_NEAR(b[1], 2.0, 1e-12);
}

TEST(LinalgTest, CholeskyRejectsIndefinite) {
  std::vector<double> a = {1, 2, 2, 1};  // indefinite
  EXPECT_FALSE(apps::CholeskyFactor(a.data(), 2));
}

TEST(LinalgTest, SolveSpdBoostsSingular) {
  // Singular matrix: diagonal boost must recover a finite solution.
  std::vector<double> a = {1, 1, 1, 1};
  std::vector<double> b = {2, 2}, diag(2);
  apps::SolveSpdInPlace(a.data(), 2, b.data(), diag.data());
  EXPECT_TRUE(std::isfinite(b[0]));
  EXPECT_TRUE(std::isfinite(b[1]));
}

TEST(LinalgTest, RandomSpdSystemsSolveAccurately) {
  Rng rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    size_t n = 3 + rng.UniformInt(8);
    // A = M M^T + I is SPD.
    std::vector<double> m(n * n);
    for (double& x : m) x = rng.Gaussian();
    std::vector<double> a(n * n, 0.0);
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < n; ++j) {
        for (size_t k = 0; k < n; ++k) a[i * n + j] += m[i * n + k] * m[j * n + k];
      }
      a[i * n + i] += 1.0;
    }
    std::vector<double> x_true(n);
    for (double& x : x_true) x = rng.Gaussian();
    std::vector<double> b(n, 0.0);
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < n; ++j) b[i] += a[i * n + j] * x_true[j];
    }
    std::vector<double> diag(n);
    apps::SolveSpdInPlace(a.data(), n, b.data(), diag.data());
    for (size_t i = 0; i < n; ++i) EXPECT_NEAR(b[i], x_true[i], 1e-8);
  }
}

// ---------------------------------------------------------------------
// ALS
// ---------------------------------------------------------------------

apps::AlsProblem SmallAls() {
  apps::AlsProblem p;
  p.num_users = 300;
  p.num_items = 60;
  p.ratings_per_user = 12;
  return p;
}

TEST(AlsTest, GraphShapeMatchesProblem) {
  auto p = SmallAls();
  auto g = apps::BuildAlsGraph(p, 8);
  EXPECT_EQ(g.num_vertices(), 360u);
  EXPECT_EQ(g.num_edges(), 300u * 12);
  EXPECT_EQ(g.vertex_data(0).factors.size(), 8u);
  // Bipartite: all edges go user -> item.
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_LT(g.source(e), 300u);
    EXPECT_GE(g.target(e), 300u);
  }
}

TEST(AlsTest, TrainingReducesRmse) {
  auto p = SmallAls();
  auto g = apps::BuildAlsGraph(p, 8);
  double rmse_before = apps::AlsRmse(g, /*test=*/false);

  EngineOptions opts;
  opts.num_threads = 4;
  ASSERT_TRUE(
      apps::SolveAls(&g, "shared_memory", opts, 0.05, 1e-3).ok());

  double rmse_after = apps::AlsRmse(g, /*test=*/false);
  EXPECT_LT(rmse_after, rmse_before * 0.5)
      << "ALS failed to fit the planted low-rank structure";
  // Held-out error should also drop (planted structure is recoverable).
  EXPECT_LT(apps::AlsRmse(g, /*test=*/true), rmse_before);
}

TEST(AlsTest, SerializableBeatsRacingStability) {
  // Fig. 1(d): non-serializable (racing) execution exhibits unstable /
  // worse convergence.  Racing here = no scope locks, torn element reads.
  auto p = SmallAls();
  auto run = [&](bool enforce) {
    auto g = apps::BuildAlsGraph(p, 8);
    EngineOptions opts;
    opts.num_threads = 8;  // more threads = more racing
    opts.enforce_consistency = enforce;
    auto engine = std::move(CreateEngine("shared_memory", &g, opts).value());
    engine->SetUpdateFn(apps::MakeAlsUpdateFn<apps::AlsGraph>(0.05, 1e-4));
    engine->ScheduleAll();
    engine->Start(/*max_updates=*/4000);
    return apps::AlsRmse(g, false);
  };
  double serializable = run(true);
  // The racing run must at least produce finite results (UB-free), and the
  // serializable run must be stable/low.
  double racing = run(false);
  EXPECT_TRUE(std::isfinite(racing));
  EXPECT_LT(serializable, 0.5);
}

// The ALS solve before apps::NormalEquations: one neighbor at a time into
// A and b, then a Cholesky solve on a by-value copy.  The kernel must give
// the same bits.
namespace one_row_at_a_time {

bool CholeskyFactor(std::vector<double>* a, size_t n) {
  std::vector<double>& A = *a;
  for (size_t j = 0; j < n; ++j) {
    double d = A[j * n + j];
    for (size_t k = 0; k < j; ++k) d -= A[j * n + k] * A[j * n + k];
    if (d <= 0.0) return false;
    d = std::sqrt(d);
    A[j * n + j] = d;
    for (size_t i = j + 1; i < n; ++i) {
      double s = A[i * n + j];
      for (size_t k = 0; k < j; ++k) s -= A[i * n + k] * A[j * n + k];
      A[i * n + j] = s / d;
    }
  }
  return true;
}

void SolveSpd(std::vector<double> a, size_t n, std::vector<double>* b) {
  double boost = 1e-9;
  std::vector<double> original = a;
  while (!CholeskyFactor(&a, n)) {
    a = original;
    for (size_t i = 0; i < n; ++i) a[i * n + i] += boost;
    boost *= 10.0;
  }
  std::vector<double>& x = *b;
  for (size_t i = 0; i < n; ++i) {
    double s = x[i];
    for (size_t k = 0; k < i; ++k) s -= a[i * n + k] * x[k];
    x[i] = s / a[i * n + i];
  }
  for (size_t ii = n; ii > 0; --ii) {
    size_t i = ii - 1;
    double s = x[i];
    for (size_t k = i + 1; k < n; ++k) s -= a[k * n + i] * x[k];
    x[i] = s / a[i * n + i];
  }
}

template <typename Ctx>
std::vector<double> SolveAlsVertex(Ctx& ctx, double lambda) {
  const size_t d = ctx.const_vertex_data().factors.size();
  std::vector<double> A(d * d, 0.0);
  std::vector<double> b(d, 0.0);
  std::vector<double> x;
  auto accumulate = [&](LocalEid e, LocalVid nbr) {
    const auto& edge = ctx.const_edge_data(e);
    if (edge.is_test) return;
    apps::LoadFactors(ctx.neighbor_data(nbr).factors, &x);
    for (size_t i = 0; i < d; ++i) {
      for (size_t j = 0; j <= i; ++j) A[i * d + j] += x[i] * x[j];
      b[i] += edge.rating * x[i];
    }
  };
  for (auto e : ctx.in_edges()) accumulate(e, ctx.edge_source(e));
  for (auto e : ctx.out_edges()) accumulate(e, ctx.edge_target(e));
  for (size_t i = 0; i < d; ++i) {
    for (size_t j = i + 1; j < d; ++j) A[i * d + j] = A[j * d + i];
    A[i * d + i] += lambda;
  }
  SolveSpd(std::move(A), d, &b);
  return b;
}

}  // namespace one_row_at_a_time

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// Gauss-Seidel sweeps over a seeded d=20 problem, each vertex solved by
// both forms from identical inputs.  lambda = 0 leaves users with fewer
// than d training ratings singular, so the diagonal-boost retry runs too.
TEST(AlsTest, NormalEquationsMatchTheOneRowAtATimeSolveBitForBit) {
  apps::AlsProblem p;
  p.num_users = 400;
  p.num_items = 80;
  p.ratings_per_user = 15;
  p.seed = 11;
  auto schedule = [](void*, LocalVid, double) {};
  for (double lambda : {0.05, 0.0}) {
    SCOPED_TRACE("lambda " + std::to_string(lambda));
    auto kernel = apps::BuildAlsGraph(p, 20);
    auto reference = apps::BuildAlsGraph(p, 20);
    size_t mismatches = 0;
    for (int sweep = 0; sweep < 3; ++sweep) {
      for (VertexId v = 0; v < kernel.num_vertices(); ++v) {
        Context<apps::AlsGraph> a(&kernel, v, 1.0,
                                  ConsistencyModel::kEdgeConsistency,
                                  nullptr, schedule);
        Context<apps::AlsGraph> b(&reference, v, 1.0,
                                  ConsistencyModel::kEdgeConsistency,
                                  nullptr, schedule);
        kernel.vertex_data(v).factors = apps::SolveAlsVertex(a, lambda);
        reference.vertex_data(v).factors =
            one_row_at_a_time::SolveAlsVertex(b, lambda);
        if (!SameBits(kernel.vertex_data(v).factors,
                      reference.vertex_data(v).factors)) {
          ++mismatches;
        }
      }
    }
    EXPECT_EQ(mismatches, 0u);
  }
  // And the boost retry on its own, from a matrix that needs several.
  std::vector<double> singular = {1, 1, 1, 1, 1, 1, 1, 1, 1};
  std::vector<double> x = {1, 2, 3}, expect = x, diag(3);
  one_row_at_a_time::SolveSpd(singular, 3, &expect);
  apps::SolveSpdInPlace(singular.data(), 3, x.data(), diag.data());
  EXPECT_TRUE(SameBits(x, expect));
}

TEST(AlsTest, FactorAccessorsRoundTrip) {
  std::vector<double> src = {1.0, 2.0, 3.0};
  std::vector<double> dst(3, 0.0);
  apps::StoreFactors(src, &dst);
  std::vector<double> out;
  apps::LoadFactors(dst, &out);
  EXPECT_EQ(out, src);
}

// ---------------------------------------------------------------------
// Loopy BP
// ---------------------------------------------------------------------

TEST(LoopyBpTest, BeliefsSharpenTowardEvidence) {
  auto structure = gen::Grid2D(20, 20);
  auto g = apps::BuildMrf(structure, 2, /*noise=*/0.1,
                          /*evidence_strength=*/1.5, 17);
  EngineOptions opts;
  opts.num_threads = 4;
  auto engine = std::move(CreateEngine("shared_memory", &g, opts).value());
  engine->SetUpdateFn(
      apps::MakeBpUpdateFn<apps::BpGraph>(apps::PottsPotential{1.0}, 1e-4));
  engine->ScheduleAll();
  RunResult r = engine->Start();
  EXPECT_GT(r.updates, 400u);
  // Smoothing should push most beliefs away from uniform.
  size_t confident = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto& b = g.vertex_data(v).belief;
    if (std::fabs(b[0] - b[1]) > 0.2) confident++;
  }
  EXPECT_GT(confident, g.num_vertices() * 3 / 4);
}

TEST(LoopyBpTest, DynamicSchedulingDoesFewerUpdates) {
  auto structure = gen::Grid2D(25, 25);
  auto run = [&](const char* sched, double tol) {
    auto g = apps::BuildMrf(structure, 2, 0.15, 1.5, 18);
    EngineOptions opts;
    opts.num_threads = 2;
    opts.scheduler = sched;
    auto engine = std::move(CreateEngine("shared_memory", &g, opts).value());
    engine->SetUpdateFn(
        apps::MakeBpUpdateFn<apps::BpGraph>(apps::PottsPotential{1.0}, tol));
    engine->ScheduleAll();
    return engine->Start().updates;
  };
  // Residual-prioritized converges in fewer updates than plain FIFO at the
  // same tolerance (the Fig. 1(c) story).
  uint64_t fifo = run("fifo", 1e-3);
  uint64_t priority = run("priority", 1e-3);
  EXPECT_LT(priority, fifo + fifo / 4)
      << "priority scheduling should not be much worse than FIFO";
}

TEST(LoopyBpTest, SweepVariantRunsExactIterations) {
  auto structure = gen::Grid2D(10, 10);
  auto g = apps::BuildMrf(structure, 2, 0.1, 1.0, 19);
  EngineOptions opts;
  opts.num_threads = 2;
  auto engine = std::move(CreateEngine("shared_memory", &g, opts).value());
  engine->SetUpdateFn(apps::MakeBpSweepUpdateFn<apps::BpGraph>(
      apps::PottsPotential{1.0}, /*iterations=*/5));
  engine->ScheduleAll();
  RunResult r = engine->Start();
  EXPECT_EQ(r.updates, 100u * 5);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(g.vertex_data(v).updates_done, 5u);
  }
}

// ---------------------------------------------------------------------
// CoEM
// ---------------------------------------------------------------------

TEST(CoemTest, PropagationReducesEntropy) {
  apps::CoemProblem p;
  p.num_noun_phrases = 1500;
  p.num_contexts = 400;
  p.contexts_per_np = 10;
  auto g = apps::BuildCoemGraph(p);
  double entropy_before = apps::CoemEntropy(g);

  EngineOptions opts;
  opts.num_threads = 4;
  auto engine = std::move(CreateEngine("shared_memory", &g, opts).value());
  engine->SetUpdateFn(apps::MakeCoemUpdateFn<apps::CoemGraph>(1e-3));
  engine->ScheduleAll();
  RunResult r = engine->Start();
  EXPECT_GT(r.updates, p.num_noun_phrases);
  EXPECT_LT(apps::CoemEntropy(g), entropy_before)
      << "label propagation should concentrate type distributions";
}

TEST(CoemTest, SeedsStayFixed) {
  apps::CoemProblem p;
  p.num_noun_phrases = 300;
  p.num_contexts = 100;
  p.contexts_per_np = 8;
  p.seed_fraction = 0.2;
  auto g = apps::BuildCoemGraph(p);
  std::vector<std::vector<float>> seed_dists;
  std::vector<VertexId> seeds;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (g.vertex_data(v).is_seed) {
      seeds.push_back(v);
      seed_dists.push_back(g.vertex_data(v).types);
    }
  }
  ASSERT_GT(seeds.size(), 10u);

  ASSERT_TRUE(apps::SolveCoem(&g, "shared_memory").ok());
  for (size_t i = 0; i < seeds.size(); ++i) {
    EXPECT_EQ(g.vertex_data(seeds[i]).types, seed_dists[i]);
  }
}

// ---------------------------------------------------------------------
// CoSeg with GMM sync on the distributed locking engine
// ---------------------------------------------------------------------

TEST(CosegTest, DistributedEmWithSyncProducesCoherentSegmentation) {
  apps::CosegProblem p;
  p.frames = 8;
  p.rows = 6;
  p.cols = 10;
  p.num_labels = 3;
  auto global = apps::BuildCosegGraph(p);
  auto structure = global.Structure();
  auto colors = GreedyColoring(structure);
  auto atom_of = BlockPartition(structure.num_vertices, 2);
  std::vector<rpc::MachineId> placement = {0, 1};

  using Graph = DistributedGraph<apps::CosegVertex, apps::CosegEdge>;
  rpc::ClusterOptions copts;
  copts.num_machines = 2;
  copts.comm.latency = std::chrono::microseconds(0);
  rpc::Runtime runtime(copts);
  SumAllReduce allreduce(&runtime.comm(), 1);
  SyncManager<Graph> sync(&runtime.comm());
  apps::RegisterGmmSync<Graph>(&sync, p.num_labels);
  std::vector<Graph> graphs(2);

  runtime.Run([&](rpc::MachineContext& ctx) {
    Graph& graph = graphs[ctx.id];
    ASSERT_TRUE(graph
                    .InitFromGlobal(global, atom_of, colors, placement,
                                    ctx.id, &ctx.comm())
                    .ok());
    sync.AttachGraph(ctx.id, &graph);
    ctx.barrier().Wait(ctx.id);
    // Prime the GMM once so update functions see finite parameters.
    sync.RunSyncBlocking("gmm", ctx.id);

    EngineOptions opts;
    opts.num_threads = 2;
    opts.scheduler = "priority";
    opts.max_pipeline_length = 64;
    opts.sync_interval_ms = 20;  // background GMM refresh
    opts.sync_keys = {"gmm"};
    DistributedEngineDeps<apps::CosegVertex, apps::CosegEdge> deps;
    deps.allreduce = &allreduce;
    deps.sync = &sync;
    rpc::MachineId me = ctx.id;
    auto run = apps::SolveCoseg<Graph>(
        "locking", ctx, &graph, deps, opts,
        [&sync, me] { return sync.Get<apps::GmmParams>("gmm", me); },
        apps::PottsPotential{1.5}, 1e-2, /*max_updates_per_vertex=*/10);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    RunResult r = *run;
    if (ctx.id == 0) {
      EXPECT_GT(r.updates, structure.num_vertices);
    }
    // GMM parameters were re-estimated at least once in the background.
    EXPECT_GE(sync.PublishedRound("gmm", ctx.id), 1u);
  });

  // Copy owned beliefs back into one graph and check smoothing quality.
  apps::CosegGraph merged = apps::BuildCosegGraph(p);
  for (auto& graph : graphs) {
    for (LocalVid l : graph.owned_vertices()) {
      merged.vertex_data(graph.Gvid(l)).belief = graph.vertex_data(l).belief;
    }
  }
  EXPECT_GT(apps::CosegLabelAgreement(merged), 0.55)
      << "smoothed labels should agree along most edges";
}

}  // namespace
}  // namespace graphlab
