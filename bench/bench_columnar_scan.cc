// Measures what the columnar (struct-of-arrays) property storage buys
// the gather loop over the old array-of-structs record layout.
//
//  E1  Gather sweep: PageRank's gather fold (weight * rank per in-edge)
//      over a power-law web graph, once over the AoS bookkeeping records
//      (storage::DistVertexAoS / DistEdgeAoS rows — the pre-columnar
//      layout) and once over the SoA property columns the graph now
//      keeps (vertex_data_span / edge_data_span / edge_source_span).
//      Identical CSR fold order, bit-identical totals (asserted);
//      reports edges/sec, estimated bytes scanned per edge, and the
//      estimated cache-line traffic.
//  E2  Streaming fold: the edge-ordered contiguous scan (DotStream) the
//      columnar layout degenerates to, i.e. the vectorizable core.
//  E3  Cold-column codecs: EncodeColumn on the static columns (edge
//      weights, owner map, gvid runs) — compression ratio per codec.
//
// Bytes-scanned model (per gathered edge, 64B lines cold):
//   AoS: edge-list entry + full edge record + full vertex record
//   SoA: edge-list entry + edge data + source id + vertex data
// The records drag versions/ownership/topology through cache on every
// edge even though gather never reads them; the columns do not.
//
// Usage: ./bench_columnar_scan [--quick] [--reps=N] [--out=FILE]
//
// Emits BENCH_columnar.json: meta.gather_speedup and
// meta.bytes_scanned_reduction carry the headline numbers (from the
// largest sweep point); one row per (layout, size) plus codec rows.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "bench_json.h"
#include "columnar_kernels.h"
#include "graphlab/apps/pagerank.h"
#include "graphlab/graph/column_codec.h"
#include "graphlab/graph/distributed_graph.h"
#include "graphlab/graph/generators.h"
#include "graphlab/rpc/runtime.h"
#include "graphlab/util/options.h"
#include "graphlab/util/timer.h"

namespace graphlab {
namespace {

using apps::PageRankEdge;
using apps::PageRankVertex;
using bench::AosEdgeRec;
using bench::AosVertexRec;
using SoaGraph = DistributedGraph<PageRankVertex, PageRankEdge>;

/// Per-edge bytes the gather fold drags through cache in each layout.
constexpr size_t kAosBytesPerEdge =
    sizeof(LocalEid) + sizeof(AosEdgeRec) + sizeof(AosVertexRec);
constexpr size_t kSoaBytesPerEdge =
    sizeof(LocalEid) + sizeof(PageRankEdge) + sizeof(LocalVid) +
    sizeof(PageRankVertex);

struct SweepResult {
  double aos_edges_per_sec = 0;
  double soa_edges_per_sec = 0;
};

/// One sweep point: build the graph at `n`, run both gather kernels
/// `reps` times, emit a row per layout.  Returns the timing pair so the
/// caller can derive the headline speedup.
SweepResult RunGatherSweep(bench::JsonWriter* json, uint64_t n,
                           int reps) {
  auto web = gen::PowerLawWeb(n, 8, 0.85, 1);
  auto global = apps::BuildPageRankGraph(web);

  // One-machine ingest so the scan runs over the real DistributedGraph
  // columns (ghost machinery included, even if the ghost set is empty).
  PartitionAssignment atom_of(global.num_vertices(), 0);
  ColorAssignment colors(global.num_vertices(), 0);
  std::vector<rpc::MachineId> placement = {0};
  rpc::ClusterOptions copts;
  copts.num_machines = 1;
  copts.transport = rpc::TransportKind::kInProcess;
  SoaGraph graph;
  rpc::Runtime runtime(copts);
  runtime.Run([&](rpc::MachineContext& ctx) {
    GL_CHECK_OK(graph.InitFromGlobal(global, atom_of, colors, placement,
                                     ctx.id, &ctx.comm()));
  });

  const size_t nv = graph.num_local_vertices();
  const size_t ne = graph.num_local_edges();

  // CSR copy (in-edge lists per vertex, concatenated).
  std::vector<uint64_t> in_index(nv + 1, 0);
  std::vector<LocalEid> in_list;
  in_list.reserve(ne);
  for (LocalVid l = 0; l < nv; ++l) {
    auto in = graph.in_edges(l);
    in_index[l + 1] = in_index[l] + in.size();
    in_list.insert(in_list.end(), in.begin(), in.end());
  }

  // The SoA side scans the graph's own property columns.
  const PageRankVertex* vdata = graph.vertex_data_span().data();
  const PageRankEdge* edata = graph.edge_data_span().data();
  const LocalVid* esrc = graph.edge_source_span().data();

  // The AoS side scans the row-store records of the pre-columnar layout
  // (the bench keeps its own copies of those structs in
  // bench::AosVertexRec / bench::AosEdgeRec), materialized from the same
  // graph so the fold inputs match exactly.
  std::vector<AosVertexRec> averts(nv);
  for (LocalVid l = 0; l < nv; ++l) {
    averts[l].gvid = graph.Gvid(l);
    averts[l].color = graph.color(l);
    averts[l].owner = graph.owner(l);
    averts[l].owned = graph.is_owned(l);
    averts[l].data = graph.vertex_data(l);
  }
  std::vector<AosEdgeRec> aedges(ne);
  for (LocalEid e = 0; e < ne; ++e) {
    aedges[e].src = graph.edge_source(e);
    aedges[e].dst = graph.edge_target(e);
    aedges[e].data = graph.edge_data(e);
  }

  std::vector<double> totals_aos(nv, 0.0), totals_soa(nv, 0.0);
  auto time_kernel = [&](auto&& kernel) {
    kernel();  // warm the cache once, untimed
    Timer t;
    for (int r = 0; r < reps; ++r) kernel();
    return t.Seconds() / reps;
  };
  const double aos_sec = time_kernel([&] {
    bench::GatherAoS(averts.data(), aedges.data(), in_index.data(),
                     in_list.data(), nv, totals_aos.data());
  });
  const double soa_sec = time_kernel([&] {
    bench::GatherSoA(vdata, edata, esrc, in_index.data(), in_list.data(),
                     nv, totals_soa.data());
  });

  // Layout must never change the math: the two folds run in identical
  // CSR order, so the totals are bit-identical, not just close.
  GL_CHECK_EQ(std::memcmp(totals_aos.data(), totals_soa.data(),
                          nv * sizeof(double)),
              0)
      << "AoS and SoA gather diverged";

  const double aos_eps = static_cast<double>(ne) / aos_sec;
  const double soa_eps = static_cast<double>(ne) / soa_sec;
  std::printf("%10zu %10zu   aos %8.1f Medges/s   soa %8.1f Medges/s   "
              "speedup %.2fx   bytes/edge %zu -> %zu\n",
              nv, ne, aos_eps / 1e6, soa_eps / 1e6, soa_eps / aos_eps,
              kAosBytesPerEdge, kSoaBytesPerEdge);
  for (bool soa : {false, true}) {
    const size_t bytes_per_edge = soa ? kSoaBytesPerEdge : kAosBytesPerEdge;
    json->AddRow()
        .Set("row", "gather")
        .Set("layout", soa ? "soa" : "aos")
        .Set("vertices", static_cast<uint64_t>(nv))
        .Set("edges", static_cast<uint64_t>(ne))
        .Set("reps", reps)
        .Set("sec_per_pass", soa ? soa_sec : aos_sec)
        .Set("edges_per_sec", soa ? soa_eps : aos_eps)
        .Set("bytes_per_edge", static_cast<uint64_t>(bytes_per_edge))
        .Set("est_bytes_scanned",
             static_cast<uint64_t>(bytes_per_edge * ne))
        .Set("est_cache_lines",
             static_cast<uint64_t>(bytes_per_edge * ne / 64));
  }
  return {aos_eps, soa_eps};
}

/// E2: the contiguous edge-ordered fold (what the columnar layout
/// degenerates to once ids are sequential) — vectorizable core.
void RunStreamFold(bench::JsonWriter* json, uint64_t n, int reps) {
  std::vector<float> weights(n);
  std::vector<double> ranks(n);
  for (uint64_t i = 0; i < n; ++i) {
    weights[i] = 1.0f / static_cast<float>((i % 64) + 1);
    ranks[i] = 1.0 + static_cast<double>(i % 1024) / 1024.0;
  }
  double sink = bench::DotStream(weights.data(), ranks.data(), n);
  Timer t;
  for (int r = 0; r < reps; ++r) {
    sink += bench::DotStream(weights.data(), ranks.data(), n);
  }
  const double sec = t.Seconds() / reps;
  const double gbps = static_cast<double>(n) *
                      (sizeof(float) + sizeof(double)) / sec / 1e9;
  std::printf("stream fold: %zu elems, %.2f GB/s (sink %.3f)\n",
              static_cast<size_t>(n), gbps, sink);
  json->AddRow()
      .Set("row", "stream_fold")
      .Set("elems", n)
      .Set("sec_per_pass", sec)
      .Set("gb_per_sec", gbps);
}

/// E3: cold-column codec ratios on the static columns of the sweep
/// graph: constant-ish edge weights (dictionary), the one-machine owner
/// column (dictionary, degenerate), and the dense gvid run (delta).
void RunCodecTable(bench::JsonWriter* json, uint64_t n) {
  auto web = gen::PowerLawWeb(n, 8, 0.85, 1);
  auto global = apps::BuildPageRankGraph(web);

  std::vector<float> weights(global.num_edges());
  for (EdgeId e = 0; e < global.num_edges(); ++e) {
    weights[e] = global.edge_data(e).weight;
  }
  std::vector<VertexId> gvids(global.num_vertices());
  for (VertexId v = 0; v < global.num_vertices(); ++v) gvids[v] = v;
  std::vector<rpc::MachineId> owners(global.num_vertices(), 0);

  auto emit = [&](const char* column, auto& col) {
    std::string encoded;
    auto stats = EncodeColumn(
        std::span<const typename std::decay_t<decltype(col)>::value_type>(
            col.data(), col.size()),
        &encoded);
    std::printf("%-12s %-12s %10zu -> %8zu bytes  (%.3fx)\n", column,
                ToString(stats.codec), stats.raw_bytes, stats.encoded_bytes,
                stats.ratio());
    json->AddRow()
        .Set("row", "codec")
        .Set("column", column)
        .Set("codec", ToString(stats.codec))
        .Set("raw_bytes", static_cast<uint64_t>(stats.raw_bytes))
        .Set("encoded_bytes", static_cast<uint64_t>(stats.encoded_bytes))
        .Set("ratio", stats.ratio());
  };
  std::printf("%-12s %-12s %21s\n", "column", "codec", "raw -> encoded");
  emit("edge_weight", weights);
  emit("gvid", gvids);
  emit("owner", owners);
}

}  // namespace
}  // namespace graphlab

int main(int argc, char** argv) {
  graphlab::OptionMap opts;
  opts.ParseArgs(argc, argv);
  if (opts.Has("help")) {
    std::printf(
        "Columnar (SoA) vs row (AoS) gather-scan bench.\n"
        "  --quick      small sweep for CI smoke runs\n"
        "  --reps=N     timed passes per kernel (default 20, quick 5)\n"
        "  --out=FILE   JSON path (default BENCH_columnar.json)\n");
    return 0;
  }
  const bool quick = opts.Has("quick");
  const int reps = static_cast<int>(opts.GetInt("reps", quick ? 5 : 20));
  std::vector<uint64_t> sweep =
      quick ? std::vector<uint64_t>{5000, 20000}
            : std::vector<uint64_t>{20000, 100000, 400000};

  graphlab::bench::JsonWriter json("columnar");
  json.meta()
      .Set("quick", quick)
      .Set("reps", reps)
      .Set("aos_bytes_per_edge",
           static_cast<uint64_t>(graphlab::kAosBytesPerEdge))
      .Set("soa_bytes_per_edge",
           static_cast<uint64_t>(graphlab::kSoaBytesPerEdge));

  graphlab::bench::PrintHeader("gather sweep: AoS records vs SoA columns");
  std::printf("%10s %10s\n", "vertices", "edges");
  graphlab::SweepResult last{};
  for (uint64_t n : sweep) last = graphlab::RunGatherSweep(&json, n, reps);

  graphlab::bench::PrintHeader("edge-ordered streaming fold (vectorized)");
  graphlab::RunStreamFold(&json, quick ? 1u << 20 : 1u << 24, reps);

  graphlab::bench::PrintHeader("cold-column codecs");
  graphlab::RunCodecTable(&json, sweep.back());

  const double speedup = last.soa_edges_per_sec / last.aos_edges_per_sec;
  const double reduction =
      1.0 - static_cast<double>(graphlab::kSoaBytesPerEdge) /
                static_cast<double>(graphlab::kAosBytesPerEdge);
  json.meta().Set("gather_speedup", speedup)
      .Set("bytes_scanned_reduction", reduction);
  std::printf("\nheadline: gather speedup %.2fx, bytes-scanned reduction "
              "%.1f%%\n", speedup, 100.0 * reduction);
  json.WriteFile(opts.GetString("out", ""));
  return 0;
}
