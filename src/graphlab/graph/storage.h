// Copyright 2026 The Distributed GraphLab Reproduction Authors.
//
// Columnar property stores for the graph containers.
//
// The graph API (vertex_data()/edge_data()/Gvid()/owner()/...) is
// row-oriented; the rows are *stored* struct-of-arrays: each logical
// field lives in its own contiguous, cache-line-aligned PropertyColumn
// parallel to the CSR adjacency index.  The GAS gather loop streams
// exactly the columns it reads (user data + endpoints) instead of
// dragging versions/colors/owners through the cache, and the compiler can
// vectorize over the plain column pointers (the *_span() accessors the
// flat-gather fast path reads).  Ghost replicas occupy rows of the same
// columns, so coherence pushes (ApplyDataPush) land columnar too.
// bench_columnar_scan keeps its own array-of-structs baseline and
// BENCH_columnar.json records the comparison.

#ifndef GRAPHLAB_GRAPH_STORAGE_H_
#define GRAPHLAB_GRAPH_STORAGE_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graphlab/graph/property_column.h"
#include "graphlab/graph/types.h"
#include "graphlab/rpc/message.h"

namespace graphlab {
namespace storage {

// ======================================================================
// DistributedGraph vertex store
// ======================================================================

/// Columnar vertex store: one PropertyColumn per vertex field.
template <typename V>
struct DistVertexSoA {
  PropertyColumn<VertexId> gvid;
  PropertyColumn<ColorId> color;
  PropertyColumn<rpc::MachineId> owner;  // the dedicated owner column
  PropertyColumn<uint8_t> owned;
  PropertyColumn<uint64_t> version;
  PropertyColumn<uint64_t> flushed;
  PropertyColumn<V> data;

  size_t size() const { return gvid.size(); }
  void clear() {
    gvid.clear();
    color.clear();
    owner.clear();
    owned.clear();
    version.clear();
    flushed.clear();
    data.clear();
  }
  void reserve(size_t n) {
    gvid.reserve(n);
    color.reserve(n);
    owner.reserve(n);
    owned.reserve(n);
    version.reserve(n);
    flushed.reserve(n);
    data.reserve(n);
  }
  void Append(VertexId g, ColorId c, rpc::MachineId o, bool own, V d) {
    gvid.push_back(g);
    color.push_back(c);
    owner.push_back(o);
    owned.push_back(own ? 1 : 0);
    version.push_back(0);
    flushed.push_back(0);
    data.push_back(std::move(d));
  }

  VertexId GvidOf(LocalVid l) const { return gvid[l]; }
  ColorId ColorOf(LocalVid l) const { return color[l]; }
  rpc::MachineId OwnerOf(LocalVid l) const { return owner[l]; }
  bool OwnedOf(LocalVid l) const { return owned[l] != 0; }
  uint64_t& Version(LocalVid l) { return version[l]; }
  uint64_t VersionOf(LocalVid l) const { return version[l]; }
  uint64_t& Flushed(LocalVid l) { return flushed[l]; }
  uint64_t FlushedOf(LocalVid l) const { return flushed[l]; }
  V& Data(LocalVid l) { return data[l]; }
  const V& DataOf(LocalVid l) const { return data[l]; }

  std::span<const V> data_span() const { return data.span(); }
  std::span<const rpc::MachineId> owner_span() const { return owner.span(); }

  uint64_t data_epoch() const { return data.dirty_epoch(); }
  void BumpDataEpoch() { data.BumpDirtyEpoch(); }
};

// ======================================================================
// DistributedGraph edge store
// ======================================================================

template <typename E>
struct DistEdgeSoA {
  PropertyColumn<LocalVid> src;
  PropertyColumn<LocalVid> dst;
  PropertyColumn<uint64_t> version;
  PropertyColumn<uint64_t> flushed;
  PropertyColumn<E> data;

  size_t size() const { return src.size(); }
  void clear() {
    src.clear();
    dst.clear();
    version.clear();
    flushed.clear();
    data.clear();
  }
  void reserve(size_t n) {
    src.reserve(n);
    dst.reserve(n);
    version.reserve(n);
    flushed.reserve(n);
    data.reserve(n);
  }
  void Append(LocalVid s, LocalVid d, E ed) {
    src.push_back(s);
    dst.push_back(d);
    version.push_back(0);
    flushed.push_back(0);
    data.push_back(std::move(ed));
  }

  LocalVid SrcOf(LocalEid e) const { return src[e]; }
  LocalVid DstOf(LocalEid e) const { return dst[e]; }
  uint64_t& Version(LocalEid e) { return version[e]; }
  uint64_t VersionOf(LocalEid e) const { return version[e]; }
  uint64_t& Flushed(LocalEid e) { return flushed[e]; }
  uint64_t FlushedOf(LocalEid e) const { return flushed[e]; }
  E& Data(LocalEid e) { return data[e]; }
  const E& DataOf(LocalEid e) const { return data[e]; }

  std::span<const E> data_span() const { return data.span(); }
  std::span<const LocalVid> src_span() const { return src.span(); }
  std::span<const LocalVid> dst_span() const { return dst.span(); }

  uint64_t data_epoch() const { return data.dirty_epoch(); }
  void BumpDataEpoch() { data.BumpDirtyEpoch(); }
};

// ======================================================================
// LocalGraph stores (no versioning/ownership: single-machine setting)
// ======================================================================

template <typename V>
struct LocalVertexSoA {
  PropertyColumn<V> data;

  size_t size() const { return data.size(); }
  void resize(size_t n) { data.resize(n); }
  void push_back(V d) { data.push_back(std::move(d)); }
  V& Data(VertexId v) { return data[v]; }
  const V& DataOf(VertexId v) const { return data[v]; }
  std::span<const V> data_span() const { return data.span(); }
  uint64_t data_epoch() const { return data.dirty_epoch(); }
  void BumpDataEpoch() { data.BumpDirtyEpoch(); }
};

template <typename E>
struct LocalEdgeSoA {
  PropertyColumn<VertexId> src;
  PropertyColumn<VertexId> dst;
  PropertyColumn<E> data;

  size_t size() const { return data.size(); }
  void Append(VertexId s, VertexId d, E ed) {
    src.push_back(s);
    dst.push_back(d);
    data.push_back(std::move(ed));
  }
  VertexId SrcOf(EdgeId e) const { return src[e]; }
  VertexId DstOf(EdgeId e) const { return dst[e]; }
  E& Data(EdgeId e) { return data[e]; }
  const E& DataOf(EdgeId e) const { return data[e]; }
  std::span<const E> data_span() const { return data.span(); }
  std::span<const VertexId> src_span() const { return src.span(); }
  std::span<const VertexId> dst_span() const { return dst.span(); }
  uint64_t data_epoch() const { return data.dirty_epoch(); }
  void BumpDataEpoch() { data.BumpDirtyEpoch(); }
};

}  // namespace storage
}  // namespace graphlab

#endif  // GRAPHLAB_GRAPH_STORAGE_H_
