// Copyright 2026 The Distributed GraphLab Reproduction Authors.
//
// Loopy Belief Propagation on pairwise Markov Random Fields.
//
// Used three ways in the paper: the Fig. 1(c) sync/async/dynamic
// convergence comparison (binary MRF from noisy observations), the
// Sec. 4.2.2 synthetic 26-connected 3-D mesh experiment (Fig. 3, Fig. 4),
// and as the smoothing component of CoSeg (apps/coseg.h, K states).
//
// Representation: K-state linear-domain messages with an attractive Potts
// pairwise potential.  Each edge stores both direction messages
// (D_{u<->v}); the update at v recomputes every outgoing message from the
// unary potential and the incoming messages, schedules a neighbor with
// priority equal to the change of its incoming message (residual BP,
// Elidan et al. [11]) when that change exceeds `tolerance`.

#ifndef GRAPHLAB_APPS_LOOPY_BP_H_
#define GRAPHLAB_APPS_LOOPY_BP_H_

#include <cmath>
#include <vector>

#include "graphlab/baselines/bsp_engine.h"
#include "graphlab/engine/engine_factory.h"
#include "graphlab/engine/context.h"
#include "graphlab/graph/generators.h"
#include "graphlab/graph/local_graph.h"
#include "graphlab/util/random.h"
#include "graphlab/util/serialization.h"

namespace graphlab {
namespace apps {

struct BpVertex {
  /// Unary potential phi_v(x) (linear domain, normalized).
  std::vector<double> unary;
  /// Current belief estimate (refreshed by the update function).
  std::vector<double> belief;
  /// Executed-update counter used by the fixed-iteration sweep variant.
  uint32_t updates_done = 0;
  uint32_t snapshot_epoch = 0;

  void Save(OutArchive* oa) const {
    *oa << unary << belief << updates_done << snapshot_epoch;
  }
  void Load(InArchive* ia) {
    *ia >> unary >> belief >> updates_done >> snapshot_epoch;
  }
};

struct BpEdge {
  /// Message from edge-source to edge-target and the reverse direction.
  std::vector<double> msg_fwd;
  std::vector<double> msg_rev;

  void Save(OutArchive* oa) const { *oa << msg_fwd << msg_rev; }
  void Load(InArchive* ia) { *ia >> msg_fwd >> msg_rev; }
};

using BpGraph = LocalGraph<BpVertex, BpEdge>;

inline void NormalizeInPlace(std::vector<double>* v) {
  double sum = 0.0;
  for (double x : *v) sum += x;
  if (sum <= 0.0) {
    for (double& x : *v) x = 1.0 / static_cast<double>(v->size());
    return;
  }
  for (double& x : *v) x /= sum;
}

/// Attractive Potts pairwise potential: psi(a, b) = 1 if a == b else
/// exp(-smoothing).
struct PottsPotential {
  double smoothing = 2.0;
  double operator()(size_t a, size_t b) const {
    return a == b ? 1.0 : std::exp(-smoothing);
  }
};

/// Builds an MRF over `structure` with `num_states` states: a planted
/// label field (striped blocks of side `block`) observed through a noisy
/// channel (correct label kept with prob 1-noise) becomes the unary
/// potentials.  Messages start uniform.
inline BpGraph BuildMrf(const GraphStructure& structure, size_t num_states,
                        double noise, double evidence_strength,
                        uint64_t seed, uint32_t block = 8) {
  Rng rng(seed);
  BpGraph g;
  for (VertexId v = 0; v < structure.num_vertices; ++v) {
    size_t planted = (v / block) % num_states;
    size_t observed = planted;
    if (rng.Bernoulli(noise)) observed = rng.UniformInt(num_states);
    BpVertex data;
    data.unary.assign(num_states, 1.0);
    data.unary[observed] = std::exp(evidence_strength);
    NormalizeInPlace(&data.unary);
    data.belief = data.unary;
    g.AddVertex(std::move(data));
  }
  for (const auto& [u, v] : structure.edges) {
    BpEdge e;
    e.msg_fwd.assign(num_states, 1.0 / static_cast<double>(num_states));
    e.msg_rev.assign(num_states, 1.0 / static_cast<double>(num_states));
    g.AddEdge(u, v, e);
  }
  g.Finalize();
  return g;
}

/// Computes v's belief from unary * all incoming messages; then, for each
/// neighbor u, the outgoing message m_{v->u} = normalize(cavity belief
/// convolved with psi).  Returns the max residual over outgoing messages.
///
/// Shared implementation for the GraphLab update function, the BSP step,
/// and CoSeg (which swaps in GMM unaries).
template <typename Ctx>
double BpUpdateScope(Ctx& ctx, const PottsPotential& psi,
                     double tolerance) {
  const size_t k = ctx.const_vertex_data().unary.size();

  // Incoming message product (belief, unnormalized).
  std::vector<double> belief = ctx.const_vertex_data().unary;
  auto fold_incoming = [&](const std::vector<double>& msg) {
    for (size_t s = 0; s < k; ++s) belief[s] *= msg[s];
  };
  for (auto e : ctx.in_edges()) fold_incoming(ctx.const_edge_data(e).msg_fwd);
  for (auto e : ctx.out_edges()) fold_incoming(ctx.const_edge_data(e).msg_rev);
  NormalizeInPlace(&belief);
  ctx.vertex_data().belief = belief;

  // Recompute each outgoing message with the incoming one divided out
  // (cavity), convolve with the pairwise potential, normalize.
  double max_residual = 0.0;
  std::vector<double> cavity(k), out(k);
  auto send = [&](LocalEid e, bool forward, LocalVid nbr) {
    auto& edge = ctx.edge_data(e);
    const std::vector<double>& incoming =
        forward ? edge.msg_rev : edge.msg_fwd;  // message from nbr to v
    std::vector<double>& outgoing = forward ? edge.msg_fwd : edge.msg_rev;
    for (size_t s = 0; s < k; ++s) {
      cavity[s] = incoming[s] > 1e-300 ? belief[s] / incoming[s] : belief[s];
    }
    for (size_t t = 0; t < k; ++t) {
      double sum = 0.0;
      for (size_t s = 0; s < k; ++s) sum += cavity[s] * psi(s, t);
      out[t] = sum;
    }
    NormalizeInPlace(&out);
    double residual = 0.0;
    for (size_t t = 0; t < k; ++t) {
      residual = std::max(residual, std::fabs(out[t] - outgoing[t]));
    }
    outgoing = out;
    if (residual > tolerance) ctx.Schedule(nbr, residual);
    max_residual = std::max(max_residual, residual);
  };
  for (auto e : ctx.out_edges()) send(e, /*forward=*/true, ctx.edge_target(e));
  for (auto e : ctx.in_edges()) send(e, /*forward=*/false, ctx.edge_source(e));
  return max_residual;
}

/// GraphLab update function (edge consistency model required).
template <typename Graph>
UpdateFn<Graph> MakeBpUpdateFn(PottsPotential psi = {},
                               double tolerance = 1e-3) {
  return [psi, tolerance](Context<Graph>& ctx) {
    BpUpdateScope(ctx, psi, tolerance);
  };
}

/// Fixed-iteration variant: every vertex re-runs until it has executed
/// `iterations` times, regardless of residual (the Sec. 4.2.2 "10
/// iterations of loopy BP" mesh benchmark).  The count lives in the
/// vertex data so it works with any scheduler.
template <typename Graph>
UpdateFn<Graph> MakeBpSweepUpdateFn(PottsPotential psi, uint32_t iterations) {
  return [psi, iterations](Context<Graph>& ctx) {
    BpUpdateScope(ctx, psi, /*tolerance=*/2.0);  // never residual-schedule
    uint32_t done = ++ctx.vertex_data().updates_done;
    if (done < iterations) ctx.ScheduleSelf(1.0);
  };
}

/// BSP/Pregel-style synchronous step for Fig. 1(c): messages recomputed
/// from the previous superstep's beliefs.
inline baselines::BspEngine<BpVertex, BpEdge>::StepFn MakeBpBspStep(
    PottsPotential psi = {}, double tolerance = 1e-3) {
  // In the BSP setting the double-buffered vertex data carries beliefs;
  // messages live on (shared) edges, so we emulate Pregel by recomputing
  // messages from prev beliefs — each vertex writes only its outgoing
  // messages, which BSP supersteps make race-free per direction.
  return [psi, tolerance](
             baselines::BspEngine<BpVertex, BpEdge>::BspContext& ctx) {
    const size_t k = ctx.vertex_data().unary.size();
    std::vector<double> belief = ctx.vertex_data().unary;
    auto fold = [&](const std::vector<double>& msg) {
      for (size_t s = 0; s < k; ++s) belief[s] *= msg[s];
    };
    for (auto e : ctx.in_edges()) fold(ctx.edge_data(e).msg_fwd);
    for (auto e : ctx.out_edges()) fold(ctx.edge_data(e).msg_rev);
    NormalizeInPlace(&belief);
    ctx.vertex_data().belief = belief;

    std::vector<double> cavity(k), out(k);
    double max_residual = 0.0;
    auto send = [&](EdgeId e, bool forward, VertexId nbr) {
      BpEdge& edge = ctx.mutable_edge_data(e);
      const std::vector<double>& incoming =
          forward ? edge.msg_rev : edge.msg_fwd;
      std::vector<double>& outgoing = forward ? edge.msg_fwd : edge.msg_rev;
      for (size_t s = 0; s < k; ++s) {
        cavity[s] =
            incoming[s] > 1e-300 ? belief[s] / incoming[s] : belief[s];
      }
      for (size_t t = 0; t < k; ++t) {
        double sum = 0.0;
        for (size_t s = 0; s < k; ++s) sum += cavity[s] * psi(s, t);
        out[t] = sum;
      }
      NormalizeInPlace(&out);
      double residual = 0.0;
      for (size_t t = 0; t < k; ++t) {
        residual = std::max(residual, std::fabs(out[t] - outgoing[t]));
      }
      outgoing = out;
      if (residual > tolerance) ctx.Activate(nbr);
      max_residual = std::max(max_residual, residual);
    };
    for (auto e : ctx.out_edges()) send(e, true, ctx.edge_target(e));
    for (auto e : ctx.in_edges()) send(e, false, ctx.edge_source(e));
    if (max_residual > tolerance) ctx.ActivateSelf();
  };
}

/// Mean L1 distance between current beliefs and a reference belief table —
/// the Fig. 1(c) residual metric.
inline double BeliefL1(const BpGraph& g,
                       const std::vector<std::vector<double>>& reference) {
  double err = 0.0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (size_t s = 0; s < reference[v].size(); ++s) {
      err += std::fabs(g.vertex_data(v).belief[s] - reference[v][s]);
    }
  }
  return err / static_cast<double>(g.num_vertices());
}


/// Engine-agnostic entry point: runs loopy BP to convergence on any
/// engine the factory knows.
inline Expected<RunResult> SolveBp(BpGraph* graph,
                                   const std::string& engine_name,
                                   EngineOptions options = {},
                                   PottsPotential psi = {},
                                   double tolerance = 1e-4) {
  auto engine = CreateEngine(engine_name, graph, options);
  if (!engine.ok()) return engine.status();
  (*engine)->SetUpdateFn(MakeBpUpdateFn<BpGraph>(psi, tolerance));
  (*engine)->ScheduleAll();
  return (*engine)->Start();
}

}  // namespace apps
}  // namespace graphlab

#endif  // GRAPHLAB_APPS_LOOPY_BP_H_
