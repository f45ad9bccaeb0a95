// Copyright 2026 The Distributed GraphLab Reproduction Authors.
//
// GasContext: the program-facing view of one GAS update.
//
// Wraps the engine's Context<Graph> (the scope the engine locked under
// its consistency model) and adds the GAS surface: phase-gated data
// access and Signal() into the scheduler.
//
// Phase rights (checked, not just documented — the declared data-flow is
// what lets one program run unchanged under every engine's consistency
// model):
//
//   phase     reads                 writes            scheduling
//   -------   -------------------   ---------------   ----------
//   gather    center, nbrs, edges   —                 —
//   apply     center, nbrs, edges   vertex_data()     —
//   scatter   center, nbrs, edges   edge_data()       Signal
//
// Neighbor vertex data is never writable through the GAS surface: GAS
// programs are edge-consistency programs by construction, which is what
// lets them run unmodified on every engine.

#ifndef GRAPHLAB_VERTEX_PROGRAM_GAS_CONTEXT_H_
#define GRAPHLAB_VERTEX_PROGRAM_GAS_CONTEXT_H_

#include "graphlab/engine/context.h"
#include "graphlab/util/logging.h"
#include "graphlab/vertex_program/ivertex_program.h"

namespace graphlab {

enum class GasPhase : uint8_t { kGather, kApply, kScatter };

template <typename Graph, typename GatherT>
class GasContext {
 public:
  using base_context_type = Context<Graph>;
  using vertex_data_type = typename Graph::vertex_data_type;
  using edge_data_type = typename Graph::edge_data_type;
  using gather_type = GatherT;

  explicit GasContext(base_context_type* ctx) : ctx_(ctx) {}

  // ------------------------------------------------------------------
  // Identity / topology (any phase)
  // ------------------------------------------------------------------
  LocalVid lvid() const { return ctx_->lvid(); }
  VertexId vertex_id() const { return ctx_->vertex_id(); }
  double priority() const { return ctx_->priority(); }
  auto in_edges() const { return ctx_->in_edges(); }
  auto out_edges() const { return ctx_->out_edges(); }
  LocalVid edge_source(LocalEid e) const { return ctx_->edge_source(e); }
  LocalVid edge_target(LocalEid e) const { return ctx_->edge_target(e); }
  size_t num_neighbors() const { return ctx_->num_neighbors(); }

  /// The non-central endpoint of an adjacent edge.
  LocalVid other(LocalEid e) const {
    const LocalVid src = edge_source(e);
    return src == lvid() ? edge_target(e) : src;
  }

  // ------------------------------------------------------------------
  // Reads (any phase)
  // ------------------------------------------------------------------
  const vertex_data_type& const_vertex_data() const {
    return ctx_->const_vertex_data();
  }
  const vertex_data_type& neighbor_data(LocalVid n) const {
    return ctx_->neighbor_data(n);
  }
  const edge_data_type& const_edge_data(LocalEid e) const {
    return ctx_->const_edge_data(e);
  }

  // ------------------------------------------------------------------
  // Writes (phase-gated)
  // ------------------------------------------------------------------
  /// Central vertex write — apply only.
  vertex_data_type& vertex_data() {
    GL_CHECK(phase_ == GasPhase::kApply)
        << "vertex_data() is writable in apply only";
    return ctx_->vertex_data();
  }

  /// Adjacent edge write — scatter only.
  edge_data_type& edge_data(LocalEid e) {
    GL_CHECK(phase_ == GasPhase::kScatter)
        << "edge_data() is writable in scatter only";
    return ctx_->edge_data(e);
  }

  // ------------------------------------------------------------------
  // Scheduling (scatter only)
  // ------------------------------------------------------------------
  /// Requests a future execution of `v` (ghosts are forwarded to their
  /// owner by the engine, exactly like Context::Schedule).
  void Signal(LocalVid v, double priority = 1.0) {
    GL_CHECK(phase_ == GasPhase::kScatter) << "Signal() from scatter only";
    ctx_->Schedule(v, priority);
  }
  void SignalSelf(double priority = 1.0) { Signal(lvid(), priority); }

  // ------------------------------------------------------------------
  // Compiler internals (gas_compiler.h) — not part of the program API.
  // ------------------------------------------------------------------
  void BeginPhase(GasPhase p) { phase_ = p; }

 private:
  base_context_type* ctx_;
  GasPhase phase_ = GasPhase::kGather;
};

}  // namespace graphlab

#endif  // GRAPHLAB_VERTEX_PROGRAM_GAS_CONTEXT_H_
