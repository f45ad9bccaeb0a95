// Copyright 2026 The Distributed GraphLab Reproduction Authors.
//
// PageRank — the paper's running example (Ex. 1-3, Alg. 1) and the
// workload of the Fig. 1(a)/1(b) motivation experiments.
//
// R(v) = (1 - d) + d * sum_{u -> v} w_{u,v} R(u), with w_{u,v} = 1/out(u).
// The dynamic variant schedules out-neighbors only when the rank moved by
// more than `tolerance` (Alg. 1's adaptive behaviour).

#ifndef GRAPHLAB_APPS_PAGERANK_H_
#define GRAPHLAB_APPS_PAGERANK_H_

#include <cmath>
#include <vector>

#include "graphlab/baselines/bsp_engine.h"
#include "graphlab/engine/engine_factory.h"
#include "graphlab/engine/context.h"
#include "graphlab/graph/local_graph.h"
#include "graphlab/util/serialization.h"

namespace graphlab {
namespace apps {

struct PageRankVertex {
  double rank = 1.0;
  /// Chandy-Lamport marker epoch (engine/snapshot.h contract).
  uint32_t snapshot_epoch = 0;

  void Save(OutArchive* oa) const { *oa << rank << snapshot_epoch; }
  void Load(InArchive* ia) { *ia >> rank >> snapshot_epoch; }
};

struct PageRankEdge {
  /// w_{u,v} = 1/out_degree(u); constant after load, so the versioned
  /// ghost coherence never retransmits it (Sec. 4.1).
  float weight = 0.0f;

  void Save(OutArchive* oa) const { *oa << weight; }
  void Load(InArchive* ia) { *ia >> weight; }
};

using PageRankGraph = LocalGraph<PageRankVertex, PageRankEdge>;

/// Builds the data graph from a web-graph topology: vertex ranks start at
/// 1, edge weights are 1/out_degree(source).
inline PageRankGraph BuildPageRankGraph(const GraphStructure& s) {
  PageRankGraph g;
  g.AddVertices(s.num_vertices);
  std::vector<uint32_t> out_degree(s.num_vertices, 0);
  for (const auto& [u, v] : s.edges) out_degree[u]++;
  for (const auto& [u, v] : s.edges) {
    g.AddEdge(u, v, PageRankEdge{1.0f / static_cast<float>(out_degree[u])});
  }
  g.Finalize();
  return g;
}

/// The Alg. 1 update function, usable on any engine/graph combination.
template <typename Graph>
UpdateFn<Graph> MakePageRankUpdateFn(double damping = 0.85,
                                     double tolerance = 1e-3) {
  return [damping, tolerance](Context<Graph>& ctx) {
    const double old_rank = ctx.const_vertex_data().rank;
    double sum = 0.0;
    for (auto e : ctx.in_edges()) {
      sum += ctx.const_edge_data(e).weight *
             ctx.neighbor_data(ctx.edge_source(e)).rank;
    }
    const double new_rank = (1.0 - damping) + damping * sum;
    ctx.vertex_data().rank = new_rank;
    const double residual = std::fabs(new_rank - old_rank);
    if (residual > tolerance) {
      for (auto e : ctx.out_edges()) {
        ctx.Schedule(ctx.edge_target(e), residual);
      }
    }
  };
}

/// The synchronous (Pregel-style) step function for the BSP baseline:
/// identical math, but neighbor ranks come from the previous superstep.
inline baselines::BspEngine<PageRankVertex, PageRankEdge>::StepFn
MakePageRankBspStep(double damping = 0.85, double tolerance = 1e-3) {
  return [damping, tolerance](
             baselines::BspEngine<PageRankVertex, PageRankEdge>::BspContext&
                 ctx) {
    double sum = 0.0;
    for (auto e : ctx.in_edges()) {
      sum += ctx.edge_data(e).weight * ctx.prev_data(ctx.edge_source(e)).rank;
    }
    const double new_rank = (1.0 - damping) + damping * sum;
    const double residual =
        std::fabs(new_rank - ctx.prev_data(ctx.vertex_id()).rank);
    ctx.vertex_data().rank = new_rank;
    if (residual > tolerance) {
      ctx.ActivateSelf();
      for (auto e : ctx.out_edges()) ctx.Activate(ctx.edge_target(e));
    }
  };
}

/// Reference solution: Jacobi power iteration to machine precision.
inline std::vector<double> ExactPageRank(const PageRankGraph& g,
                                         double damping = 0.85,
                                         uint64_t max_iters = 10000,
                                         double tol = 1e-12) {
  std::vector<double> rank(g.num_vertices(), 1.0);
  std::vector<double> next(g.num_vertices(), 0.0);
  for (uint64_t it = 0; it < max_iters; ++it) {
    double delta = 0.0;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      double sum = 0.0;
      for (EdgeId e : g.in_edges(v)) {
        sum += g.edge_data(e).weight * rank[g.source(e)];
      }
      next[v] = (1.0 - damping) + damping * sum;
      delta += std::fabs(next[v] - rank[v]);
    }
    rank.swap(next);
    if (delta < tol) break;
  }
  return rank;
}

/// L1 distance between the graph's current ranks and a reference vector
/// (the Fig. 1(a) error metric).
template <typename GraphT>
double PageRankL1Error(const GraphT& g, const std::vector<double>& exact) {
  double err = 0.0;
  for (VertexId v = 0; v < exact.size(); ++v) {
    err += std::fabs(g.vertex_data(v).rank - exact[v]);
  }
  return err;
}


/// Engine-agnostic entry point: runs dynamic PageRank to convergence on
/// any engine the factory knows ("shared_memory", "bsp", ...).
inline Expected<RunResult> SolvePageRank(PageRankGraph* graph,
                                         const std::string& engine_name,
                                         EngineOptions options = {},
                                         double damping = 0.85,
                                         double tolerance = 1e-6) {
  auto engine = CreateEngine(engine_name, graph, options);
  if (!engine.ok()) return engine.status();
  (*engine)->SetUpdateFn(MakePageRankUpdateFn<PageRankGraph>(damping,
                                                             tolerance));
  (*engine)->ScheduleAll();
  return (*engine)->Start();
}

}  // namespace apps
}  // namespace graphlab

#endif  // GRAPHLAB_APPS_PAGERANK_H_
