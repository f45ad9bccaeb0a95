// Copyright 2026 The Distributed GraphLab Reproduction Authors.
//
// Streaming greedy edge-cut partitioner (phase 1 of the Sec. 4.1 two-phase
// scheme).  Vertices are streamed in degree-descending order (seeded
// shuffle breaking ties) and each is placed into the atom maximizing
//
//     score(v, a) = |N(v) ∩ atom_a| * (1 - size_a / capacity)
//
// — the linear deterministic greedy (LDG) objective: co-locate with already
// placed neighbors, discounted by how full the atom is.  capacity is
// balance_slack * n / k, so the assignment is balanced within the slack
// factor by construction.  Deterministic for a fixed seed.

#ifndef GRAPHLAB_GRAPH_PARTITIONER_H_
#define GRAPHLAB_GRAPH_PARTITIONER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graphlab/graph/partition.h"
#include "graphlab/graph/types.h"

namespace graphlab {

struct StreamingPartitionOptions {
  /// Per-atom capacity as a multiple of the ideal n / k share.
  double balance_slack = 1.25;
  /// Seed for the vertex stream order (and nothing else).
  uint64_t seed = 0;
  /// Extra full passes over the stream with the complete assignment
  /// visible (ReLDG).  Each pass is O(|E|); two recover most of the gap
  /// to offline partitioners on power-law graphs.
  uint64_t restreams = 2;
};

/// LDG/Fennel-style streaming placement.  One CSR build plus one pass over
/// the vertices; O(deg(v)) score update per vertex.
PartitionAssignment StreamingGreedyPartition(
    const GraphStructure& structure, AtomId num_atoms,
    const StreamingPartitionOptions& options = {});

/// Names accepted by PartitionByName: "random", "block", "striped", "bfs",
/// "greedy".  ("refined" = greedy + label-propagation refinement lives in
/// apps/label_prop.h — the graph layer cannot depend on the engines.)
std::vector<std::string> ListPartitionerNames();

/// Dispatch by name; GL_CHECK-fails on an unknown name.
PartitionAssignment PartitionByName(const std::string& name,
                                    const GraphStructure& structure,
                                    AtomId num_atoms, uint64_t seed);

}  // namespace graphlab

#endif  // GRAPHLAB_GRAPH_PARTITIONER_H_
