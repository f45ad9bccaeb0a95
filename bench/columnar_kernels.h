// Copyright 2026 The Distributed GraphLab Reproduction Authors.
//
// Gather-loop kernels for the columnar-vs-row storage bench, isolated in
// their own translation unit (columnar_kernels.cc) so CMake can compile
// exactly this code at -O3 and, under -DGRAPHLAB_VEC_REPORT=ON, emit the
// gcc vectorizer report (-fopt-info-vec / -fopt-info-vec-missed) for the
// loops that matter — the same fold the GAS flat-gather fast path
// (vertex_program/gas_compiler.h) runs over PropertyColumn spans.
//
// Three kernels, one gather shape (PageRank: total += weight * rank):
//
//   GatherAoS      CSR walk over the row-store records (AosVertexRec /
//                  AosEdgeRec, the pre-columnar layout) — every edge
//                  drags the full bookkeeping record through cache.
//   GatherSoA      the same CSR walk over the property columns — only
//                  the data columns and the id column are touched.
//   DotStream      the degenerate edge-ordered scan (contiguous weight
//                  and pre-gathered rank columns) — the loop the
//                  vectorizer can actually turn into SIMD, proving the
//                  columnar layout is vectorizable at all.
//
// The two CSR gathers fold in identical order so their results are
// bit-identical across layouts; the bench asserts that.  DotStream uses
// independent accumulator lanes (a different, SIMD-friendly fold order),
// so it is a throughput kernel only.

#ifndef BENCH_COLUMNAR_KERNELS_H_
#define BENCH_COLUMNAR_KERNELS_H_

#include <cstddef>

#include <cstdint>

#include "graphlab/apps/pagerank.h"
#include "graphlab/graph/types.h"
#include "graphlab/rpc/message.h"

namespace graphlab {
namespace bench {

/// The row-store records of the pre-columnar layout, kept as the
/// baseline the columnar stores (graph/storage.h) are measured against.
struct AosVertexRec {
  VertexId gvid = kInvalidVertex;
  ColorId color = 0;
  rpc::MachineId owner = 0;
  bool owned = false;
  uint64_t version = 0;
  uint64_t flushed_version = 0;
  apps::PageRankVertex data{};
};

struct AosEdgeRec {
  LocalVid src = kInvalidLocalVid;
  LocalVid dst = kInvalidLocalVid;
  uint64_t version = 0;
  uint64_t flushed_version = 0;
  apps::PageRankEdge data{};
};

/// Row-store gather: totals[v] = sum over v's in-edge CSR slice of
/// edges[e].data.weight * verts[edges[e].src].data.rank.
void GatherAoS(const AosVertexRec* verts, const AosEdgeRec* edges,
               const uint64_t* in_index, const LocalEid* in_edges,
               size_t num_vertices, double* totals);

/// Columnar gather: identical fold over the thin property columns.
void GatherSoA(const apps::PageRankVertex* vdata,
               const apps::PageRankEdge* edata, const LocalVid* esrc,
               const uint64_t* in_index, const LocalEid* in_edges,
               size_t num_vertices, double* totals);

/// Edge-ordered streaming fold: sum of weights[i] * ranks[i] over two
/// contiguous columns.  The vectorizable core the SoA layout unlocks.
double DotStream(const float* weights, const double* ranks, size_t n);

}  // namespace bench
}  // namespace graphlab

#endif  // BENCH_COLUMNAR_KERNELS_H_
