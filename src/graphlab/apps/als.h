// Copyright 2026 The Distributed GraphLab Reproduction Authors.
//
// Alternating Least Squares collaborative filtering (Sec. 5.1, the
// Netflix movie-recommendation task).
//
// The sparse ratings matrix R defines a bipartite graph: user vertices
// connect to the movies they rated; edge data holds the rating.  The
// update function recomputes a vertex's d-dimensional latent vector from
// the latent vectors of its neighbors by solving the regularized normal
// equations (A + lambda*I) x = b with A = sum x_n x_n^T and b = sum
// r_n x_n.  Update cost is O(d^3 + deg * d^2) — the knob behind the
// Fig. 6(c) computation-intensity sweep.
//
// The latent vectors are read and written exclusively through relaxed
// std::atomic_ref element accesses, so the deliberately *non-serializable*
// execution of Fig. 1(d) (enforce_consistency = false on the shared-memory
// engine) exhibits genuine torn/stale reads without undefined behaviour.

#ifndef GRAPHLAB_APPS_ALS_H_
#define GRAPHLAB_APPS_ALS_H_

#include <algorithm>
#include <atomic>
#include <cmath>
#include <vector>

#include "graphlab/apps/linalg.h"
#include "graphlab/baselines/bsp_engine.h"
#include "graphlab/engine/engine_factory.h"
#include "graphlab/engine/context.h"
#include "graphlab/graph/generators.h"
#include "graphlab/graph/local_graph.h"
#include "graphlab/util/random.h"
#include "graphlab/util/serialization.h"

namespace graphlab {
namespace apps {

struct AlsVertex {
  std::vector<double> factors;
  uint32_t snapshot_epoch = 0;

  void Save(OutArchive* oa) const { *oa << factors << snapshot_epoch; }
  void Load(InArchive* ia) { *ia >> factors >> snapshot_epoch; }
};

struct AlsEdge {
  float rating = 0.0f;
  /// Held-out test ratings are excluded from training solves and used for
  /// the Fig. 9(a) test-error curves.
  uint8_t is_test = 0;

  void Save(OutArchive* oa) const { *oa << rating << is_test; }
  void Load(InArchive* ia) { *ia >> rating >> is_test; }
};

using AlsGraph = LocalGraph<AlsVertex, AlsEdge>;

/// Race-tolerant element-wise accessors (relaxed atomic_ref).
inline void LoadFactors(const std::vector<double>& src,
                        std::vector<double>* dst) {
  dst->resize(src.size());
  for (size_t i = 0; i < src.size(); ++i) {
    (*dst)[i] = std::atomic_ref<const double>(src[i])
                    .load(std::memory_order_relaxed);
  }
}
inline void StoreFactors(const std::vector<double>& src,
                         std::vector<double>* dst) {
  GL_CHECK_EQ(src.size(), dst->size());
  for (size_t i = 0; i < src.size(); ++i) {
    std::atomic_ref<double>((*dst)[i])
        .store(src[i], std::memory_order_relaxed);
  }
}

/// Configuration of the synthetic Netflix-style problem.
struct AlsProblem {
  uint64_t num_users = 5000;
  uint64_t num_items = 500;
  uint32_t ratings_per_user = 20;
  double zipf_alpha = 0.7;   // popularity skew of movies
  uint32_t true_rank = 4;    // planted latent dimensionality
  double noise = 0.1;        // rating observation noise
  double test_fraction = 0.2;
  uint64_t seed = 42;
};

/// Builds the bipartite rating graph with a planted low-rank structure:
/// true user/item vectors are Gaussian, ratings are their inner products
/// plus noise, a fraction of edges is held out as test set, and the model
/// latent vectors are randomly initialized with dimension `d`.
inline AlsGraph BuildAlsGraph(const AlsProblem& p, uint32_t d) {
  GraphStructure s = gen::BipartiteZipf(p.num_users, p.num_items,
                                        p.ratings_per_user, p.zipf_alpha,
                                        p.seed);
  Rng rng(p.seed ^ 0x5eedULL);
  std::vector<std::vector<double>> truth(s.num_vertices);
  for (auto& t : truth) {
    t.resize(p.true_rank);
    for (double& x : t) x = rng.Gaussian(0.0, 1.0 / std::sqrt(p.true_rank));
  }
  AlsGraph g;
  for (VertexId v = 0; v < s.num_vertices; ++v) {
    AlsVertex data;
    data.factors.resize(d);
    for (double& x : data.factors) x = rng.Gaussian(0.0, 0.1);
    g.AddVertex(std::move(data));
  }
  for (const auto& [u, m] : s.edges) {
    AlsEdge e;
    e.rating = static_cast<float>(Dot(truth[u], truth[m]) +
                                  rng.Gaussian(0.0, p.noise));
    e.is_test = rng.Bernoulli(p.test_fraction) ? 1 : 0;
    g.AddEdge(u, m, e);
  }
  g.Finalize();
  return g;
}

/// Core of the ALS update: regularized least squares over the training
/// edges of the scope.  Reads neighbors through atomic_ref.
template <typename Ctx>
std::vector<double> SolveAlsVertex(Ctx& ctx, double lambda) {
  const size_t d = ctx.const_vertex_data().factors.size();
  NormalEquations& eq = ThreadNormalEquations();
  eq.Reset(d);
  auto gather = [&](LocalEid e, LocalVid nbr) {
    const auto& edge = ctx.const_edge_data(e);
    if (edge.is_test) return;
    const std::vector<double>& f = ctx.neighbor_data(nbr).factors;
    double* row = eq.AddRow(edge.rating);
    for (size_t i = 0; i < d; ++i) {
      row[i] = std::atomic_ref<const double>(f[i]).load(
          std::memory_order_relaxed);
    }
  };
  for (auto e : ctx.in_edges()) gather(e, ctx.edge_source(e));
  for (auto e : ctx.out_edges()) gather(e, ctx.edge_target(e));
  std::vector<double> x;
  eq.Solve(lambda, &x);
  return x;
}

/// Dynamic ALS update function (any engine): solve, store, and schedule
/// neighbors when the latent vector moved by more than `tolerance`.
/// With tolerance = +infinity the schedule never propagates (static
/// one-shot); with 0 it behaves like round-robin refinement.
template <typename Graph>
UpdateFn<Graph> MakeAlsUpdateFn(double lambda = 0.05,
                                double tolerance = 1e-2) {
  return [lambda, tolerance](Context<Graph>& ctx) {
    std::vector<double> solution = SolveAlsVertex(ctx, lambda);
    std::vector<double> old;
    LoadFactors(ctx.const_vertex_data().factors, &old);
    StoreFactors(solution, &ctx.vertex_data().factors);
    const double residual = L2Distance(solution, old);
    if (residual > tolerance) {
      for (LocalVid n : ctx.neighbors()) ctx.Schedule(n, residual);
    }
  };
}

/// Synchronous (BSP) ALS step for the Fig. 9(a) BSP comparison and the
/// Fig. 1(d) non-serializable emulation: every vertex (users AND movies
/// simultaneously) re-solves against the *previous* iteration's neighbor
/// factors.  Simultaneous solves are exactly what an unsynchronized racing
/// execution degenerates to — each solve sees values that are concurrently
/// being overwritten — and they break the alternation ALS relies on.
inline baselines::BspEngine<AlsVertex, AlsEdge>::StepFn MakeAlsBspStep(
    double lambda = 0.05, bool self_reactivate = true) {
  return
      [lambda, self_reactivate](
          baselines::BspEngine<AlsVertex, AlsEdge>::BspContext& ctx) {
        const size_t d = ctx.vertex_data().factors.size();
        NormalEquations& eq = ThreadNormalEquations();
        eq.Reset(d);
        auto gather = [&](EdgeId e, VertexId nbr) {
          const AlsEdge& edge = ctx.edge_data(e);
          if (edge.is_test) return;
          const std::vector<double>& x = ctx.prev_data(nbr).factors;
          std::copy(x.begin(), x.end(), eq.AddRow(edge.rating));
        };
        for (auto e : ctx.in_edges()) gather(e, ctx.edge_source(e));
        for (auto e : ctx.out_edges()) gather(e, ctx.edge_target(e));
        eq.Solve(lambda, &ctx.vertex_data().factors);
        if (self_reactivate) ctx.ActivateSelf();
      };
}

/// Root-mean-square rating error over train (is_test=0) or test edges.
inline double AlsRmse(const AlsGraph& g, bool test_edges) {
  double se = 0.0;
  uint64_t n = 0;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const AlsEdge& edge = g.edge_data(e);
    if ((edge.is_test != 0) != test_edges) continue;
    double pred = Dot(g.vertex_data(g.source(e)).factors,
                      g.vertex_data(g.target(e)).factors);
    double diff = pred - edge.rating;
    se += diff * diff;
    ++n;
  }
  return n == 0 ? 0.0 : std::sqrt(se / static_cast<double>(n));
}


/// Engine-agnostic entry point: trains ALS on any engine the factory
/// knows.
inline Expected<RunResult> SolveAls(AlsGraph* graph,
                                    const std::string& engine_name,
                                    EngineOptions options = {},
                                    double lambda = 0.05,
                                    double tolerance = 1e-3) {
  auto engine = CreateEngine(engine_name, graph, options);
  if (!engine.ok()) return engine.status();
  (*engine)->SetUpdateFn(MakeAlsUpdateFn<AlsGraph>(lambda, tolerance));
  (*engine)->ScheduleAll();
  return (*engine)->Start();
}

}  // namespace apps
}  // namespace graphlab

#endif  // GRAPHLAB_APPS_ALS_H_
