// Copyright 2026 The Distributed GraphLab Reproduction Authors.
//
// LocalGraph<V, E>: the single-machine data graph (Sec. 3.1).
//
// The data graph G = (V, E, D) stores mutable user data on vertices and
// edges over a static structure.  This container backs the shared-memory
// engine, the BSP/Pregel baseline, and serves as the in-memory staging
// representation from which atoms are cut for distributed ingress.
//
// Structure is append-then-freeze: AddVertex/AddEdge while building, then
// Finalize() compiles CSR-style in/out adjacency indexes.  Mutating data is
// allowed after finalization; mutating structure is not (the abstraction
// fixes the graph structure during execution).
//
// Storage: properties live in struct-of-arrays property columns
// (graph/storage.h).  The accessors below are thin views into them.

#ifndef GRAPHLAB_GRAPH_LOCAL_GRAPH_H_
#define GRAPHLAB_GRAPH_LOCAL_GRAPH_H_

#include <algorithm>
#include <span>
#include <vector>

#include "graphlab/graph/storage.h"
#include "graphlab/graph/types.h"
#include "graphlab/util/logging.h"

namespace graphlab {

template <typename VertexData, typename EdgeData>
class LocalGraph {
 public:
  using vertex_data_type = VertexData;
  using edge_data_type = EdgeData;

  LocalGraph() = default;

  /// Builds a graph with `n` default-initialized vertices.
  explicit LocalGraph(size_t n) { AddVertices(n); }

  /// Appends one vertex; returns its id.
  VertexId AddVertex(VertexData data = VertexData{}) {
    GL_CHECK(!finalized_) << "structure is static after Finalize()";
    vstore_.push_back(std::move(data));
    return static_cast<VertexId>(vstore_.size() - 1);
  }

  /// Appends `n` default vertices.
  void AddVertices(size_t n) {
    GL_CHECK(!finalized_);
    vstore_.resize(vstore_.size() + n);
  }

  /// Appends a directed edge; returns its id.  Self edges are rejected
  /// (the scope model gives a vertex access to itself already).
  EdgeId AddEdge(VertexId src, VertexId dst, EdgeData data = EdgeData{}) {
    GL_CHECK(!finalized_);
    GL_CHECK_NE(src, dst) << "self edge";
    GL_CHECK_LT(src, vstore_.size());
    GL_CHECK_LT(dst, vstore_.size());
    estore_.Append(src, dst, std::move(data));
    return static_cast<EdgeId>(estore_.size() - 1);
  }

  /// Freezes the structure and builds adjacency indexes (including the
  /// distinct-neighbor CSR behind neighbors()).  Idempotent.
  void Finalize() {
    if (finalized_) return;
    BuildIndex([this](EdgeId e) { return estore_.SrcOf(e); }, &out_index_,
               &out_edges_);
    BuildIndex([this](EdgeId e) { return estore_.DstOf(e); }, &in_index_,
               &in_edges_);
    finalized_ = true;  // before the neighbor pass: it reads in/out_edges()
    BuildNeighborIndex();
  }

  bool finalized() const { return finalized_; }
  size_t num_vertices() const { return vstore_.size(); }
  size_t num_edges() const { return estore_.size(); }

  VertexData& vertex_data(VertexId v) {
    GL_CHECK_LT(v, vstore_.size());
    return vstore_.Data(v);
  }
  const VertexData& vertex_data(VertexId v) const {
    GL_CHECK_LT(v, vstore_.size());
    return vstore_.DataOf(v);
  }

  EdgeData& edge_data(EdgeId e) {
    GL_CHECK_LT(e, estore_.size());
    return estore_.Data(e);
  }
  const EdgeData& edge_data(EdgeId e) const {
    GL_CHECK_LT(e, estore_.size());
    return estore_.DataOf(e);
  }

  VertexId source(EdgeId e) const { return estore_.SrcOf(e); }
  VertexId target(EdgeId e) const { return estore_.DstOf(e); }

  /// Edge ids whose target is v (requires Finalize()).
  std::span<const EdgeId> in_edges(VertexId v) const {
    GL_CHECK(finalized_);
    return {in_edges_.data() + in_index_[v],
            in_index_[v + 1] - in_index_[v]};
  }

  /// Edge ids whose source is v (requires Finalize()).
  std::span<const EdgeId> out_edges(VertexId v) const {
    GL_CHECK(finalized_);
    return {out_edges_.data() + out_index_[v],
            out_index_[v + 1] - out_index_[v]};
  }

  size_t in_degree(VertexId v) const { return in_edges(v).size(); }
  size_t out_degree(VertexId v) const { return out_edges(v).size(); }

  /// All distinct neighbors of v in either direction, ascending — a view
  /// into the CSR index compiled by Finalize(), so repeated calls (the
  /// engines' hot path and scope-lock plan compilation) allocate nothing.
  std::span<const VertexId> neighbors(VertexId v) const {
    GL_CHECK(finalized_);
    return {nbr_list_.data() + nbr_index_[v],
            nbr_index_[v + 1] - nbr_index_[v]};
  }

  // ------------------------------------------------------------------
  // API shims so LocalGraph satisfies the same graph concept the engines'
  // Context uses for DistributedGraph (single-machine setting: local and
  // global ids coincide, versioning is a no-op).
  // ------------------------------------------------------------------
  VertexId Gvid(VertexId v) const { return v; }
  LocalVid Lvid(VertexId v) const { return v; }
  bool is_owned(VertexId) const { return true; }
  void MarkVertexModified(VertexId) {}
  void MarkEdgeModified(EdgeId) {}
  VertexId edge_source(EdgeId e) const { return estore_.SrcOf(e); }
  VertexId edge_target(EdgeId e) const { return estore_.DstOf(e); }
  uint64_t num_global_vertices() const { return num_vertices(); }

  /// Extracts topology (for coloring / partitioning utilities).
  GraphStructure Structure() const {
    GraphStructure s;
    s.num_vertices = num_vertices();
    s.edges.reserve(num_edges());
    for (EdgeId e = 0; e < num_edges(); ++e) {
      s.edges.emplace_back(estore_.SrcOf(e), estore_.DstOf(e));
    }
    return s;
  }

  /// Builds structure + default data from topology.
  static LocalGraph FromStructure(const GraphStructure& s) {
    LocalGraph g;
    g.AddVertices(s.num_vertices);
    for (const auto& [u, v] : s.edges) g.AddEdge(u, v);
    g.Finalize();
    return g;
  }

 private:
  template <typename KeyFn>
  void BuildIndex(KeyFn key_of, std::vector<uint64_t>* index,
                  std::vector<EdgeId>* order) const {
    const size_t n = vstore_.size();
    const size_t m = estore_.size();
    index->assign(n + 1, 0);
    for (EdgeId e = 0; e < m; ++e) (*index)[key_of(e) + 1]++;
    for (size_t i = 0; i < n; ++i) (*index)[i + 1] += (*index)[i];
    order->resize(m);
    std::vector<uint64_t> cursor(index->begin(), index->end() - 1);
    for (EdgeId e = 0; e < m; ++e) {
      (*order)[cursor[key_of(e)]++] = e;
    }
  }

  /// Distinct-neighbor CSR (sorted, deduplicated across directions).
  void BuildNeighborIndex() {
    const size_t n = vstore_.size();
    nbr_index_.assign(n + 1, 0);
    nbr_list_.clear();
    std::vector<VertexId> scratch;
    for (VertexId v = 0; v < n; ++v) {
      scratch.clear();
      for (EdgeId e : in_edges(v)) scratch.push_back(estore_.SrcOf(e));
      for (EdgeId e : out_edges(v)) scratch.push_back(estore_.DstOf(e));
      std::sort(scratch.begin(), scratch.end());
      scratch.erase(std::unique(scratch.begin(), scratch.end()),
                    scratch.end());
      nbr_list_.insert(nbr_list_.end(), scratch.begin(), scratch.end());
      nbr_index_[v + 1] = nbr_list_.size();
    }
  }

  bool finalized_ = false;
  storage::LocalVertexSoA<VertexData> vstore_;
  storage::LocalEdgeSoA<EdgeData> estore_;
  std::vector<uint64_t> in_index_, out_index_;   // CSR offsets
  std::vector<EdgeId> in_edges_, out_edges_;     // CSR payloads
  std::vector<uint64_t> nbr_index_;              // neighbor CSR offsets
  std::vector<VertexId> nbr_list_;               // neighbor CSR payload
};

}  // namespace graphlab

#endif  // GRAPHLAB_GRAPH_LOCAL_GRAPH_H_
