// Copyright 2026 The Distributed GraphLab Reproduction Authors.
//
// Video Co-Segmentation (Sec. 5.2).
//
// Frames are coarsened to grids of super-pixels carrying color/texture
// statistics; super-pixels connect 4-way in-frame and to the same position
// in adjacent frames (3-D spatio-temporal grid).  Labels are predicted
// with a Gaussian Mixture Model (one diagonal Gaussian per label, over the
// feature vector) smoothed by K-state loopy BP — an EM loop in which the
// GMM parameters are maintained *by the sync operation* while prioritized
// LBP updates run on the locking engine.  "To the best of our knowledge,
// there are no other abstractions that provide the dynamic asynchronous
// scheduling as well as the sync (reduction) capabilities required by this
// application."

#ifndef GRAPHLAB_APPS_COSEG_H_
#define GRAPHLAB_APPS_COSEG_H_

#include <array>
#include <cmath>
#include <vector>

#include "graphlab/apps/loopy_bp.h"
#include "graphlab/engine/context.h"
#include "graphlab/engine/sync.h"
#include "graphlab/engine/engine_factory.h"
#include "graphlab/graph/generators.h"
#include "graphlab/graph/local_graph.h"
#include "graphlab/util/random.h"
#include "graphlab/util/serialization.h"

namespace graphlab {
namespace apps {

inline constexpr size_t kCosegFeatureDim = 3;  // color statistics

struct CosegVertex {
  /// Super-pixel color/texture statistics.
  std::array<float, kCosegFeatureDim> features{};
  /// BP state (unary derived from the GMM; beliefs smoothed by LBP).
  std::vector<double> unary;
  std::vector<double> belief;
  uint32_t updates_done = 0;
  uint32_t snapshot_epoch = 0;

  void Save(OutArchive* oa) const {
    *oa << features << unary << belief << updates_done << snapshot_epoch;
  }
  void Load(InArchive* ia) {
    *ia >> features >> unary >> belief >> updates_done >> snapshot_epoch;
  }
};

using CosegEdge = BpEdge;
using CosegGraph = LocalGraph<CosegVertex, CosegEdge>;

/// Diagonal-covariance GMM parameters maintained via the sync operation.
struct GmmParams {
  /// means[k*dim + j], variances likewise; weights[k].
  std::vector<double> means;
  std::vector<double> variances;
  std::vector<double> weights;
  /// Accumulation counters (used during the combine phase).
  std::vector<double> counts;

  void Save(OutArchive* oa) const {
    *oa << means << variances << weights << counts;
  }
  void Load(InArchive* ia) { *ia >> means >> variances >> weights >> counts; }
};

struct CosegProblem {
  uint32_t frames = 32;
  uint32_t rows = 12;
  uint32_t cols = 20;
  uint32_t num_labels = 5;
  double feature_noise = 0.35;
  uint64_t seed = 11;
};

/// Initial GMM: means spread over the feature range, unit variance.
inline GmmParams InitialGmm(uint32_t num_labels) {
  GmmParams gmm;
  gmm.means.assign(num_labels * kCosegFeatureDim, 0.0);
  gmm.variances.assign(num_labels * kCosegFeatureDim, 1.0);
  gmm.weights.assign(num_labels, 1.0 / num_labels);
  gmm.counts.assign(num_labels, 0.0);
  for (uint32_t c = 0; c < num_labels; ++c) {
    for (size_t j = 0; j < kCosegFeatureDim; ++j) {
      gmm.means[c * kCosegFeatureDim + j] =
          static_cast<double>(c) / num_labels + 0.5 * j;
    }
  }
  return gmm;
}

/// log N(x; mu, sigma^2) for one diagonal Gaussian component.
inline double GmmLogLikelihood(const GmmParams& gmm, uint32_t component,
                               const std::array<float, kCosegFeatureDim>& x) {
  double ll = std::log(std::max(gmm.weights[component], 1e-12));
  for (size_t j = 0; j < kCosegFeatureDim; ++j) {
    double mu = gmm.means[component * kCosegFeatureDim + j];
    double var = std::max(gmm.variances[component * kCosegFeatureDim + j],
                          1e-4);
    double d = x[j] - mu;
    ll += -0.5 * (d * d / var + std::log(2.0 * M_PI * var));
  }
  return ll;
}

/// Builds the spatio-temporal grid with planted label regions (vertical
/// bands drifting across frames) and label-dependent Gaussian features.
inline CosegGraph BuildCosegGraph(const CosegProblem& p) {
  GraphStructure s = gen::VideoGrid(p.frames, p.rows, p.cols);
  Rng rng(p.seed);
  CosegGraph g;
  const size_t k = p.num_labels;
  for (uint32_t f = 0; f < p.frames; ++f) {
    for (uint32_t r = 0; r < p.rows; ++r) {
      for (uint32_t c = 0; c < p.cols; ++c) {
        // Planted label: vertical bands that drift one column per 4 frames.
        uint32_t band = ((c + f / 4) * k) / p.cols % k;
        CosegVertex d;
        for (size_t j = 0; j < kCosegFeatureDim; ++j) {
          d.features[j] = static_cast<float>(
              static_cast<double>(band) / k + 0.5 * j +
              rng.Gaussian(0.0, p.feature_noise));
        }
        d.unary.assign(k, 1.0 / k);
        d.belief.assign(k, 1.0 / k);
        g.AddVertex(std::move(d));
      }
    }
  }
  for (const auto& [u, v] : s.edges) {
    CosegEdge e;
    e.msg_fwd.assign(k, 1.0 / k);
    e.msg_rev.assign(k, 1.0 / k);
    g.AddEdge(u, v, e);
  }
  g.Finalize();
  // Break the EM symmetry: seed beliefs (and unaries) from the spread-out
  // initial GMM so the first sync produces distinguishable components.
  GmmParams init = InitialGmm(p.num_labels);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    auto& d = g.vertex_data(v);
    double max_ll = -1e300;
    std::vector<double> ll(k);
    for (size_t c = 0; c < k; ++c) {
      ll[c] = GmmLogLikelihood(init, static_cast<uint32_t>(c), d.features);
      max_ll = std::max(max_ll, ll[c]);
    }
    for (size_t c = 0; c < k; ++c) d.unary[c] = std::exp(ll[c] - max_ll);
    NormalizeInPlace(&d.unary);
    d.belief = d.unary;
  }
  return g;
}

/// The CoSeg sync operation (M step): soft-assign each vertex to its
/// belief-weighted labels and accumulate sufficient statistics; Finalize
/// turns them into new means/variances/weights.
///
/// Register with the engine's SyncManager under key "gmm"; update
/// functions read the latest published parameters.
template <typename Graph>
void RegisterGmmSync(SyncManager<Graph>* sync, uint32_t num_labels) {
  GmmParams zero;
  zero.means.assign(num_labels * kCosegFeatureDim, 0.0);
  zero.variances.assign(num_labels * kCosegFeatureDim, 0.0);
  zero.weights.assign(num_labels, 0.0);
  zero.counts.assign(num_labels, 0.0);
  sync->template Register<GmmParams>(
      "gmm", zero,
      // Map: accumulate belief-weighted first and second moments.
      [](const Graph& g, LocalVid l, GmmParams* acc) {
        const auto& d = g.vertex_data(l);
        for (size_t c = 0; c < acc->counts.size(); ++c) {
          double w = d.belief[c];
          acc->counts[c] += w;
          for (size_t j = 0; j < kCosegFeatureDim; ++j) {
            acc->means[c * kCosegFeatureDim + j] += w * d.features[j];
            acc->variances[c * kCosegFeatureDim + j] +=
                w * d.features[j] * d.features[j];
          }
        }
      },
      // Combine: element-wise sum.
      [](GmmParams* a, const GmmParams& b) {
        for (size_t i = 0; i < a->means.size(); ++i) {
          a->means[i] += b.means[i];
          a->variances[i] += b.variances[i];
        }
        for (size_t i = 0; i < a->counts.size(); ++i) {
          a->counts[i] += b.counts[i];
          a->weights[i] += b.weights[i];
        }
      },
      // Finalize: moments -> mean/variance/weight.
      [](GmmParams* acc, uint64_t num_vertices) {
        for (size_t c = 0; c < acc->counts.size(); ++c) {
          double n = std::max(acc->counts[c], 1e-9);
          for (size_t j = 0; j < kCosegFeatureDim; ++j) {
            double mean = acc->means[c * kCosegFeatureDim + j] / n;
            double ex2 = acc->variances[c * kCosegFeatureDim + j] / n;
            acc->means[c * kCosegFeatureDim + j] = mean;
            acc->variances[c * kCosegFeatureDim + j] =
                std::max(ex2 - mean * mean, 1e-4);
          }
          acc->weights[c] =
              n / std::max(static_cast<double>(num_vertices), 1.0);
        }
      });
}

/// CoSeg update function: refresh the unary from the latest published GMM,
/// then run the residual-BP scope update.  `gmm_provider` fetches the
/// machine-local published GMM (capturing the SyncManager + machine id).
template <typename Graph>
UpdateFn<Graph> MakeCosegUpdateFn(
    std::function<GmmParams()> gmm_provider, PottsPotential psi = {},
    double tolerance = 1e-2, uint32_t max_updates_per_vertex = 0) {
  return [gmm_provider = std::move(gmm_provider), psi, tolerance,
          max_updates_per_vertex](Context<Graph>& ctx) {
    auto& data = ctx.vertex_data();
    if (max_updates_per_vertex != 0 &&
        data.updates_done >= max_updates_per_vertex) {
      return;
    }
    data.updates_done++;
    GmmParams gmm = gmm_provider();
    if (!gmm.counts.empty()) {
      const size_t k = data.unary.size();
      double max_ll = -1e300;
      std::vector<double> ll(k);
      for (size_t c = 0; c < k; ++c) {
        ll[c] = GmmLogLikelihood(gmm, static_cast<uint32_t>(c),
                                 data.features);
        max_ll = std::max(max_ll, ll[c]);
      }
      for (size_t c = 0; c < k; ++c) data.unary[c] = std::exp(ll[c] - max_ll);
      NormalizeInPlace(&data.unary);
    }
    BpUpdateScope(ctx, psi, tolerance);
  };
}

/// Segmentation agreement with the planted bands (sanity metric).
inline double CosegLabelAgreement(const CosegGraph& g) {
  // Labels are identifiable only up to permutation; measure pairwise
  // consistency instead: fraction of in-frame neighbor pairs whose argmax
  // labels agree, which planted banding makes high after smoothing.
  uint64_t same = 0, total = 0;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto& a = g.vertex_data(g.source(e)).belief;
    const auto& b = g.vertex_data(g.target(e)).belief;
    size_t la = std::max_element(a.begin(), a.end()) - a.begin();
    size_t lb = std::max_element(b.begin(), b.end()) - b.begin();
    same += (la == lb) ? 1 : 0;
    total++;
  }
  return total ? static_cast<double>(same) / static_cast<double>(total) : 0.0;
}


/// Engine-agnostic entry point for the distributed co-segmentation EM
/// loop: creates this machine's engine member through the factory, wires
/// the GMM-parameter getter into the update function, and runs to
/// quiescence.  Collective.
template <typename Graph>
Expected<RunResult> SolveCoseg(const std::string& engine_name,
                               rpc::MachineContext ctx, Graph* graph,
                               const DistributedEngineDeps<
                                   CosegVertex, CosegEdge>& deps,
                               EngineOptions options,
                               std::function<GmmParams()> gmm,
                               PottsPotential psi = {1.5},
                               double tolerance = 1e-2,
                               uint32_t max_updates_per_vertex = 10) {
  auto engine = CreateEngine(engine_name, ctx, graph, options, deps);
  if (!engine.ok()) return engine.status();
  (*engine)->SetUpdateFn(MakeCosegUpdateFn<Graph>(
      std::move(gmm), psi, tolerance, max_updates_per_vertex));
  (*engine)->ScheduleAll();
  return (*engine)->Start();
}

}  // namespace apps
}  // namespace graphlab

#endif  // GRAPHLAB_APPS_COSEG_H_
