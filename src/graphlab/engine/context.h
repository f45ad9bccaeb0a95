// Copyright 2026 The Distributed GraphLab Reproduction Authors.
//
// Context<Graph>: the scope view handed to update functions (Sec. 3.2).
//
// An update function  f(v, S_v) -> (S_v, T)  receives the data of v, its
// adjacent edges and adjacent vertices, may modify what its consistency
// model permits, and requests future executions via Schedule().  The
// context records which entities were written (through the non-const
// accessors) so the engine can version-bump and flush exactly those.
//
// Consistency enforcement: the engines guarantee the *isolation* of the
// accesses; the context enforces the *rights* in debug builds by CHECKing
// writes that the declared model forbids.

#ifndef GRAPHLAB_ENGINE_CONTEXT_H_
#define GRAPHLAB_ENGINE_CONTEXT_H_

#include <functional>
#include <span>

#include "graphlab/graph/coloring.h"
#include "graphlab/graph/types.h"
#include "graphlab/util/logging.h"

namespace graphlab {

/// Result summary returned by every engine's Run().
struct RunResult {
  uint64_t updates = 0;         // update-function executions (cluster-wide)
  double seconds = 0.0;         // wall time of the run
  uint64_t sweeps = 0;          // color sweeps (chromatic) / supersteps (BSP)
  uint64_t bytes_sent = 0;      // comm layer bytes during the run
  uint64_t messages_sent = 0;   // comm layer messages during the run
  /// CPU time of this machine's engine workers during the run (local
  /// value, not reduced): the chunks of the synchronous engines' batches,
  /// and the whole worker threads of the asynchronous ones (task
  /// acquisition and scheduling included).  Input to the modeled cluster
  /// wall-clock used by the scaling benchmarks on single-core hosts (see
  /// bench/bench_common.h).
  double busy_seconds = 0.0;
  /// The run ended at a collective abort decision (chromatic sweep,
  /// bulk-sync superstep): some machine aborted — a failed boundary hook,
  /// a peer death, AbortAndJoin — so the result is partial.  The same on
  /// every machine that took part in the decision.
  bool aborted = false;
};

template <typename Graph>
class Context {
 public:
  using vertex_data_type = typename Graph::vertex_data_type;
  using edge_data_type = typename Graph::edge_data_type;
  /// Engine hook used by Schedule: (engine, local vid, priority).
  using ScheduleFn = void (*)(void*, LocalVid, double);

  Context(Graph* graph, LocalVid lvid, double priority,
          ConsistencyModel model, void* engine, ScheduleFn schedule_fn)
      : graph_(graph),
        lvid_(lvid),
        priority_(priority),
        model_(model),
        engine_(engine),
        schedule_fn_(schedule_fn) {}

  // ------------------------------------------------------------------
  // Identity
  // ------------------------------------------------------------------
  LocalVid lvid() const { return lvid_; }
  VertexId vertex_id() const { return graph_->Gvid(lvid_); }
  double priority() const { return priority_; }
  ConsistencyModel consistency() const { return model_; }
  Graph& graph() { return *graph_; }

  // ------------------------------------------------------------------
  // Central vertex data
  // ------------------------------------------------------------------
  /// Read/write access to D_v; requires edge or full consistency for the
  /// write (vertex consistency also grants it: the central vertex is
  /// always exclusively held).  Marks the vertex modified.
  vertex_data_type& vertex_data() {
    graph_->MarkVertexModified(lvid_);
    return graph_->vertex_data(lvid_);
  }
  const vertex_data_type& const_vertex_data() const {
    return graph_->vertex_data(lvid_);
  }

  // ------------------------------------------------------------------
  // Neighbor vertex data
  // ------------------------------------------------------------------
  /// Read-only neighbor access (legal under edge and full consistency).
  const vertex_data_type& neighbor_data(LocalVid n) const {
    GL_CHECK(model_ != ConsistencyModel::kVertexConsistency)
        << "vertex consistency grants no neighbor access";
    return graph_->vertex_data(n);
  }

  /// Writable neighbor access — full consistency only.
  vertex_data_type& mutable_neighbor_data(LocalVid n) {
    GL_CHECK(model_ == ConsistencyModel::kFullConsistency)
        << "neighbor writes require the full consistency model";
    graph_->MarkVertexModified(n);
    return graph_->vertex_data(n);
  }

  // ------------------------------------------------------------------
  // Edge data
  // ------------------------------------------------------------------
  /// Read/write adjacent edge data (edge or full consistency).
  edge_data_type& edge_data(LocalEid e) {
    GL_CHECK(model_ != ConsistencyModel::kVertexConsistency)
        << "vertex consistency grants no edge access";
    graph_->MarkEdgeModified(e);
    return graph_->edge_data(e);
  }
  const edge_data_type& const_edge_data(LocalEid e) const {
    GL_CHECK(model_ != ConsistencyModel::kVertexConsistency);
    return graph_->edge_data(e);
  }

  // ------------------------------------------------------------------
  // Topology of the scope
  // ------------------------------------------------------------------
  auto in_edges() const { return graph_->in_edges(lvid_); }
  auto out_edges() const { return graph_->out_edges(lvid_); }
  auto neighbors() const { return graph_->neighbors(lvid_); }
  LocalVid edge_source(LocalEid e) const {
    return static_cast<LocalVid>(graph_->edge_source(e));
  }
  LocalVid edge_target(LocalEid e) const {
    return static_cast<LocalVid>(graph_->edge_target(e));
  }
  size_t num_neighbors() const { return neighbors().size(); }

  // ------------------------------------------------------------------
  // Scheduling (the T' of Alg. 2)
  // ------------------------------------------------------------------
  /// Requests the eventual execution of local-or-ghost vertex `v`.
  /// Remote vertices are forwarded to their owner by the engine.
  void Schedule(LocalVid v, double priority = 1.0) {
    schedule_fn_(engine_, v, priority);
  }

  /// Re-schedules the current vertex.
  void ScheduleSelf(double priority = 1.0) { Schedule(lvid_, priority); }

 private:
  Graph* graph_;
  LocalVid lvid_;
  double priority_;
  ConsistencyModel model_;
  void* engine_;
  ScheduleFn schedule_fn_;
};

/// The user computation: a stateless procedure over a scope.
template <typename Graph>
using UpdateFn = std::function<void(Context<Graph>&)>;

}  // namespace graphlab

#endif  // GRAPHLAB_ENGINE_CONTEXT_H_
