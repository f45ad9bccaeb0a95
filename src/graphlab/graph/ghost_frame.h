// Copyright 2026 The Distributed GraphLab Reproduction Authors.
//
// GhostFrame: the staging buffer and codec of one ghost delta frame, the
// batch of versioned vertex and edge writes DistributedGraph pushes to a
// peer holding replicas (handler kDataPushHandler; the wire format is
// documented in the graph/distributed_graph.h header).
//
// Entity data arrives pre-serialized, so nothing here depends on the
// graph's vertex or edge types: the codec is compiled once, in
// ghost_frame.cc, for every graph instantiation.

#ifndef GRAPHLAB_GRAPH_GHOST_FRAME_H_
#define GRAPHLAB_GRAPH_GHOST_FRAME_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "graphlab/graph/types.h"
#include "graphlab/util/serialization.h"

namespace graphlab {

/// Leading byte of every ghost push frame; bump when the layout changes.
inline constexpr uint8_t kGhostFrameVersion = 3;

/// One frame's staged entities in arrival order: keys and versions in
/// flat columns, and each entity's serialized data as an (offset, size)
/// run of one byte arena per frame, so staging allocates nothing per
/// entity.  Encode() sorts by key into scratch buffers the frame keeps, so
/// a frame reused window after window stops allocating once its buffers
/// have grown.  Not thread safe.
class GhostFrame {
 public:
  bool empty() const { return vgvid_.empty() && esrc_.empty(); }
  size_t num_vertices() const { return vgvid_.size(); }
  size_t num_edges() const { return esrc_.size(); }

  /// Drops every staged entity, keeping the buffers.
  void Clear();

  /// Stage an entity; its index is the count before the call.
  void AddVertex(VertexId gvid, uint64_t version, std::string_view blob);
  void AddEdge(VertexId src, VertexId dst, uint64_t version,
               std::string_view blob);

  /// Replace staged entity `i`'s version and data; return the size of
  /// the data replaced.
  size_t SetVertex(size_t i, uint64_t version, std::string_view blob);
  size_t SetEdge(size_t i, uint64_t version, std::string_view blob);

  /// The frame's wire bytes, each section sorted by key.
  OutArchive Encode();

 private:
  struct BlobRef {
    size_t offset;
    size_t size;
  };
  /// (key, entity index) pairs.
  using Order = std::vector<std::pair<uint64_t, uint32_t>>;

  BlobRef Store(std::string_view blob);
  size_t Overwrite(BlobRef* ref, std::string_view blob);
  template <typename KeyFn>
  static void SortBy(size_t n, KeyFn key, Order* order);
  template <typename T>
  static void EncodeSorted(const std::vector<T>& col, const Order& order,
                           std::vector<T>* sorted, std::string* out);

  std::vector<VertexId> vgvid_;
  std::vector<uint64_t> vversion_;
  std::vector<BlobRef> vblob_;
  std::vector<VertexId> esrc_, edst_;
  std::vector<uint64_t> eversion_;
  std::vector<BlobRef> eblob_;
  std::string arena_;

  // Encode scratch: each section's (key, entity) pairs in key order, one
  // sorted column at a time, and the coded columns.
  Order vorder_, eorder_;
  std::vector<VertexId> sorted_ids_;
  std::vector<uint64_t> sorted_versions_;
  std::string vcolumns_, ecolumns_;
};

/// Decode one section's columns from the front of `ia` into the vectors
/// (replacing their contents) and advance `ia` past them; the section's
/// blobs follow.  False, with `ia` unmoved, when a column is corrupt or
/// the columns disagree on their count.
bool ReadGhostVertexColumns(InArchive& ia, std::vector<VertexId>* gvid,
                            std::vector<uint64_t>* version);
bool ReadGhostEdgeColumns(InArchive& ia, std::vector<VertexId>* src,
                          std::vector<VertexId>* dst,
                          std::vector<uint64_t>* version);

}  // namespace graphlab

#endif  // GRAPHLAB_GRAPH_GHOST_FRAME_H_
