// Copyright 2026 The Distributed GraphLab Reproduction Authors.
//
// Label propagation as an update function, serving two roles:
//
//   1. A new app (community detection / semi-supervised labeling) for the
//      scenario-diversity item: a majority vote over the scope, argmax
//      adoption, change-driven scheduling — exercises a non-arithmetic
//      neighborhood fold.
//   2. A partition refiner: seed labels with any PartitionAssignment and
//      the converged labels are a lower-cut assignment respecting a
//      balance cap (RefinePartitionLabelProp below) — phase 1.5 of the
//      Sec. 4.1 two-phase scheme.
//
// The update folds one weighted vote per incident edge (in-edges, then
// out-edges) for the *other* endpoint's label, adopts the heaviest label
// (the current label wins ties, for oscillation damping) unless the move
// would pass the balance cap, and schedules the neighbors only when the
// label changed.

#ifndef GRAPHLAB_APPS_LABEL_PROP_H_
#define GRAPHLAB_APPS_LABEL_PROP_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "graphlab/engine/engine_factory.h"
#include "graphlab/graph/local_graph.h"
#include "graphlab/graph/partition.h"
#include "graphlab/util/serialization.h"

namespace graphlab {
namespace apps {

struct LabelPropVertex {
  uint32_t label = 0;
  /// Chandy-Lamport marker epoch (engine/snapshot.h contract).
  uint32_t snapshot_epoch = 0;

  void Save(OutArchive* oa) const { *oa << label << snapshot_epoch; }
  void Load(InArchive* ia) { *ia >> label >> snapshot_epoch; }
};

struct LabelPropEdge {
  float weight = 1.0f;

  void Save(OutArchive* oa) const { *oa << weight; }
  void Load(InArchive* ia) { *ia >> weight; }
};

using LabelPropGraph = LocalGraph<LabelPropVertex, LabelPropEdge>;

/// A sparse histogram of label -> accumulated vote weight, in first-vote
/// order.
struct LabelVotes {
  std::vector<std::pair<uint32_t, double>> votes;

  void Add(uint32_t label, double weight) {
    for (auto& [l, w] : votes) {
      if (l == label) {
        w += weight;
        return;
      }
    }
    votes.emplace_back(label, weight);
  }
};

/// Cluster-shared knobs + mutable balance/termination state.  Every
/// update shares one instance (per machine on distributed runs, where the
/// cap is enforced against local counts — best effort; exact on the
/// single-machine refinement path).
struct LabelPropShared {
  /// label -> vertices currently carrying it.
  std::vector<std::atomic<uint64_t>> label_size;
  /// Max vertices per label; 0 disables the balance constraint.
  uint64_t capacity = 0;
  /// Remaining label changes before the propagation stops signaling.
  /// Bounds convergence: async label propagation admits limit cycles on
  /// e.g. bipartite subgraphs, so the budget (sweeps * n) forces
  /// quiescence.
  std::atomic<int64_t> moves_budget{1 << 30};

  explicit LabelPropShared(uint32_t num_labels)
      : label_size(num_labels) {
    for (auto& s : label_size) s.store(0, std::memory_order_relaxed);
  }
};

/// The label propagation update function.  `shared` may be null (no
/// balance cap, no moves budget).
template <typename Graph>
UpdateFn<Graph> MakeLabelPropUpdateFn(
    std::shared_ptr<LabelPropShared> shared) {
  return [shared = std::move(shared)](Context<Graph>& ctx) {
    LabelVotes total;
    for (auto e : ctx.in_edges()) {
      total.Add(ctx.neighbor_data(ctx.edge_source(e)).label,
                ctx.const_edge_data(e).weight);
    }
    for (auto e : ctx.out_edges()) {
      total.Add(ctx.neighbor_data(ctx.edge_target(e)).label,
                ctx.const_edge_data(e).weight);
    }

    const uint32_t current = ctx.const_vertex_data().label;
    uint32_t best = current;
    double best_weight = 0.0;
    bool have_current = false;
    for (const auto& [l, w] : total.votes) {
      if (l == current) {
        have_current = true;
        best_weight = std::max(best_weight, w);
      }
    }
    if (!have_current) best_weight = -1.0;  // isolated from own label
    for (const auto& [l, w] : total.votes) {
      if (l == current) continue;
      // Strict improvement only (current label wins ties); smallest label
      // wins equal-weight challenger ties for determinism.
      if (w > best_weight ||
          (w == best_weight && best != current && l < best)) {
        best = l;
        best_weight = w;
      }
    }
    if (best == current) return;
    if (shared != nullptr &&
        shared->moves_budget.fetch_sub(1, std::memory_order_relaxed) <= 0) {
      return;  // budget spent: freeze labels so the engine drains
    }
    if (shared != nullptr && shared->capacity > 0) {
      // Reserve a slot under the destination label's cap; undo and stay
      // if the move would overfill it.
      uint64_t now = shared->label_size[best].fetch_add(
                         1, std::memory_order_relaxed) +
                     1;
      if (now > shared->capacity) {
        shared->label_size[best].fetch_sub(1, std::memory_order_relaxed);
        return;
      }
      shared->label_size[current].fetch_sub(1, std::memory_order_relaxed);
    }
    ctx.vertex_data().label = best;
    for (auto e : ctx.out_edges()) ctx.Schedule(ctx.edge_target(e), 1.0);
    for (auto e : ctx.in_edges()) ctx.Schedule(ctx.edge_source(e), 1.0);
  };
}

/// Builds the data graph: labels from `initial` (identity labeling when
/// empty), unit edge weights.
inline LabelPropGraph BuildLabelPropGraph(
    const GraphStructure& s, const PartitionAssignment& initial = {}) {
  LabelPropGraph g;
  g.AddVertices(s.num_vertices);
  for (VertexId v = 0; v < s.num_vertices; ++v) {
    g.vertex_data(v).label =
        initial.empty() ? static_cast<uint32_t>(v) : initial[v];
  }
  for (const auto& [u, v] : s.edges) g.AddEdge(u, v, LabelPropEdge{1.0f});
  g.Finalize();
  return g;
}

/// Engine-agnostic label propagation entry point: runs the update
/// function to quiescence, bounded by `max_sweeps * n` moves.  Every
/// vertex label must be below `num_labels` (when nonzero).
inline Expected<RunResult> SolveLabelProp(LabelPropGraph* graph,
                                          const std::string& engine_name,
                                          EngineOptions options = {},
                                          uint32_t num_labels = 0,
                                          uint64_t label_capacity = 0,
                                          uint64_t max_sweeps = 16) {
  uint32_t labels = num_labels;
  if (labels == 0) {
    for (VertexId v = 0; v < graph->num_vertices(); ++v) {
      labels = std::max(labels, graph->vertex_data(v).label + 1);
    }
  }
  auto shared = std::make_shared<LabelPropShared>(labels);
  shared->capacity = label_capacity;
  for (VertexId v = 0; v < graph->num_vertices(); ++v) {
    const uint32_t label = graph->vertex_data(v).label;
    if (label >= labels) {
      return Status::InvalidArgument(
          "vertex " + std::to_string(v) + " has label " +
          std::to_string(label) + ", not below num_labels=" +
          std::to_string(labels));
    }
    shared->label_size[label].fetch_add(1, std::memory_order_relaxed);
  }
  shared->moves_budget.store(
      static_cast<int64_t>(max_sweeps * graph->num_vertices()),
      std::memory_order_relaxed);
  auto engine = CreateEngine(engine_name, graph, options);
  if (!engine.ok()) return engine.status();
  (*engine)->SetUpdateFn(MakeLabelPropUpdateFn<LabelPropGraph>(shared));
  (*engine)->ScheduleAll();
  return (*engine)->Start();
}

/// Refines an initial atom assignment by running label propagation with
/// the atom ids as labels under a balance cap of `balance_slack * n / k`.
/// Single-threaded by construction, so the result is deterministic.
inline PartitionAssignment RefinePartitionLabelProp(
    const GraphStructure& structure, const PartitionAssignment& initial,
    AtomId num_atoms, double balance_slack = 1.25, uint64_t max_sweeps = 8) {
  GL_CHECK_EQ(initial.size(), structure.num_vertices);
  LabelPropGraph g = BuildLabelPropGraph(structure, initial);
  const uint64_t cap = std::max<uint64_t>(
      static_cast<uint64_t>(balance_slack *
                            static_cast<double>(structure.num_vertices) /
                            static_cast<double>(num_atoms)),
      (structure.num_vertices + num_atoms - 1) / num_atoms);
  EngineOptions options;
  options.num_threads = 1;
  auto result =
      SolveLabelProp(&g, "shared_memory", options, num_atoms, cap, max_sweeps);
  GL_CHECK(result.ok()) << result.status().ToString();
  PartitionAssignment out(structure.num_vertices);
  for (VertexId v = 0; v < structure.num_vertices; ++v) {
    out[v] = g.vertex_data(v).label;
  }
  return out;
}

/// Local share of the cluster edge-cut statistic: owned out-edges whose
/// endpoints carry different labels (each directed edge counted once, on
/// its source's owner).  Sum across machines with SumAllReduce width 2 —
/// see ClusterEdgeCut.
template <typename Graph>
std::pair<uint64_t, uint64_t> LocalEdgeCut(const Graph& g) {
  uint64_t cut = 0, total = 0;
  for (LocalVid l : g.owned_vertices()) {
    const uint32_t label = g.vertex_data(l).label;
    for (LocalEid e : g.out_edges(l)) {
      ++total;
      if (g.vertex_data(g.edge_target(e)).label != label) ++cut;
    }
  }
  return {cut, total};
}

/// Collective edge-cut statistic: every machine contributes its owned
/// edges; returns {cut_edges, total_edges} summed cluster-wide.  Must be
/// called by all machines (allreduce cadence).
template <typename Graph>
std::pair<uint64_t, uint64_t> ClusterEdgeCut(const Graph& g,
                                             SumAllReduce* allreduce,
                                             rpc::MachineId me) {
  auto [cut, total] = LocalEdgeCut(g);
  std::vector<uint64_t> sum = allreduce->Reduce(me, {cut, total});
  return {sum[0], sum[1]};
}

}  // namespace apps
}  // namespace graphlab

#endif  // GRAPHLAB_APPS_LABEL_PROP_H_
