// Copyright 2026 The Distributed GraphLab Reproduction Authors.
//
// Graph coloring heuristics for the Chromatic engine (Sec. 4.2.1).
//
// The chromatic engine satisfies the edge consistency model by executing
// same-colored vertices together; full consistency needs a second-order
// coloring (no vertex shares a color with any distance-2 neighbor); vertex
// consistency assigns every vertex one color.  Optimal coloring is NP-hard;
// greedy first-fit gives reasonable quality and many MLDM graphs (bipartite
// ALS/CoEM) are trivially 2-colorable.

#ifndef GRAPHLAB_GRAPH_COLORING_H_
#define GRAPHLAB_GRAPH_COLORING_H_

#include "graphlab/graph/types.h"

namespace graphlab {

/// Consistency models of Sec. 3.4, shared across engines.
enum class ConsistencyModel {
  kVertexConsistency,
  kEdgeConsistency,
  kFullConsistency,
};

const char* ConsistencyModelName(ConsistencyModel model);

/// Greedy first-fit coloring: no two adjacent vertices share a color, so
/// it satisfies the edge consistency model.  Colors in largest-degree-
/// first order (Welsh-Powell, ties by id) and keeps the vertex-id-order
/// coloring unless that uses strictly more colors, so it never needs more
/// colors than id order and bipartite graphs keep their 2 colors in id
/// order.  Every color is one chromatic step per sweep.
ColorAssignment GreedyColoring(const GraphStructure& structure);

/// Second-order greedy coloring: no vertex shares a color with any vertex
/// at distance <= 2.  Satisfies the full consistency model.
ColorAssignment SecondOrderColoring(const GraphStructure& structure);

/// Returns a coloring appropriate for running `model` on the chromatic
/// engine (single color for vertex consistency).
ColorAssignment ColoringFor(const GraphStructure& structure,
                            ConsistencyModel model);

/// Number of distinct colors used.
ColorId NumColors(const ColorAssignment& colors);

/// Validates a first-order coloring (no adjacent vertices share colors).
bool ValidateColoring(const GraphStructure& structure,
                      const ColorAssignment& colors);

/// Validates a second-order coloring.
bool ValidateSecondOrderColoring(const GraphStructure& structure,
                                 const ColorAssignment& colors);

}  // namespace graphlab

#endif  // GRAPHLAB_GRAPH_COLORING_H_
