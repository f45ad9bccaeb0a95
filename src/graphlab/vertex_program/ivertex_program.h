// Copyright 2026 The Distributed GraphLab Reproduction Authors.
//
// IVertexProgram: the gather-apply-scatter (GAS) decomposition of the
// paper's update function (Sec. 3.2), the abstraction its authors
// introduced next (PowerGraph, OSDI 2012).  A vertex program factors
// f(v, S_v) into three phases with declared data-flow:
//
//   gather   read-only fold over a declared edge direction; the per-edge
//            results are combined with `+=`, which must be commutative
//            and associative so the engine may reorder the accumulation.
//   apply    writes the central vertex from the gathered total.
//   scatter  per-edge follow-up over a declared direction: write edge
//            data and Signal() neighbors into the scheduler.
//
// Programs are *compiled* onto the classic engines (vertex_program/
// gas_compiler.h): the three phases become one ordinary update function
// that runs unmodified through every CreateEngine() strategy under its
// consistency model.  The declared directions tell the compiler which
// edges each phase walks.
//
// A program type must provide (duck-typed; deriving from IVertexProgram
// supplies the defaults):
//
//   using gather_type = ...;          // default-constructible; the
//                                     // default value is the fold
//                                     // identity; supports `+=`
//   EdgeDirection gather_edges(ctx) const;
//   gather_type gather(ctx, LocalEid) const;
//   void apply(ctx, const gather_type& total);
//   EdgeDirection scatter_edges(ctx) const;
//   void scatter(ctx, LocalEid);
//
// The compiler copies the program once per update, so per-update mutable
// state (e.g. the rank change computed in apply and consumed by scatter)
// lives in ordinary data members; state must NOT be carried across
// updates (engines give no ordering guarantee between them).

#ifndef GRAPHLAB_VERTEX_PROGRAM_IVERTEX_PROGRAM_H_
#define GRAPHLAB_VERTEX_PROGRAM_IVERTEX_PROGRAM_H_

#include <cstdint>

#include "graphlab/graph/types.h"

namespace graphlab {

template <typename Graph, typename GatherT>
class GasContext;  // vertex_program/gas_context.h

/// Edge set a phase runs over, relative to the central vertex.
enum class EdgeDirection : uint8_t {
  kNone,  // phase skipped
  kIn,    // edges whose target is the central vertex
  kOut,   // edges whose source is the central vertex
  kAll,   // both
};

inline const char* ToString(EdgeDirection d) {
  switch (d) {
    case EdgeDirection::kNone: return "none";
    case EdgeDirection::kIn: return "in";
    case EdgeDirection::kOut: return "out";
    case EdgeDirection::kAll: return "all";
  }
  return "?";
}

/// True when direction `d` includes the in-edges (resp. out-edges) of the
/// central vertex.
inline bool CoversInEdges(EdgeDirection d) {
  return d == EdgeDirection::kIn || d == EdgeDirection::kAll;
}
inline bool CoversOutEdges(EdgeDirection d) {
  return d == EdgeDirection::kOut || d == EdgeDirection::kAll;
}

/// Convenience base supplying the program typedefs and the default phase
/// selections (gather over in-edges, scatter over out-edges — the
/// PageRank-shaped common case).  gather() and apply() have no sensible
/// default and must be defined by the program.
template <typename Graph, typename GatherT>
class IVertexProgram {
 public:
  using graph_type = Graph;
  using gather_type = GatherT;
  using context_type = GasContext<Graph, GatherT>;

  EdgeDirection gather_edges(const context_type&) const {
    return EdgeDirection::kIn;
  }
  EdgeDirection scatter_edges(const context_type&) const {
    return EdgeDirection::kOut;
  }
  /// Default scatter: nothing.  Programs that Signal() or write edges
  /// shadow this.
  void scatter(context_type&, LocalEid) const {}
};

}  // namespace graphlab

#endif  // GRAPHLAB_VERTEX_PROGRAM_IVERTEX_PROGRAM_H_
