// Partition quality and its distributed cost (the ISSUE 9 tentpole
// acceptance artifact).
//
//  E1  Layout quality: edge cut, balance, and build time for every
//      partitioner (random / block / striped / bfs / greedy / refined)
//      on a synthetic power-law web.  Atoms default to 2x machines: the
//      two-phase scheme of Sec. 4.1 wants over-partitioning for
//      re-placement freedom, but every extra atom split adds cut edges,
//      so the bench reports the moderate point of that tradeoff
//      (--atoms overrides; the launcher and chaos tests run 4x).
//  E2  Distributed impact: 4-machine simulated-cluster PageRank under
//      each layout (atoms placed by the weighted packer), measuring via
//      MetricsService::Collect what the layout buys at runtime —
//      rpc.bytes_sent (ghost-sync traffic) and the per-machine
//      engine.updates skew (max/mean; 1.0 = perfectly balanced).
//  E3  Live rebalance latency: a loopback-TCP fault-tolerant run with a
//      forced mid-run migration check; reports the decide -> resumed
//      latency of moving one hot atom with nobody dead.
//
// Usage: ./bench_partition [--vertices=8000] [--machines=4] [--atoms=K]
//                          [--quick] [--out=FILE] [--help]
//
// Emits BENCH_partition.json (validated and gated by the bench-smoke CI
// job: meta.edge_cut_ratio <= 0.8).

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <string>
#include <vector>

#include "bench_common.h"
#include "bench_json.h"
#include "graphlab/apps/label_prop.h"
#include "graphlab/apps/pagerank.h"
#include "graphlab/engine/allreduce.h"
#include "graphlab/engine/engine_factory.h"
#include "graphlab/fault/ft_runner.h"
#include "graphlab/graph/atom.h"
#include "graphlab/graph/coloring.h"
#include "graphlab/graph/generators.h"
#include "graphlab/graph/partition.h"
#include "graphlab/graph/partitioner.h"
#include "graphlab/metrics/metrics_service.h"
#include "graphlab/rpc/runtime.h"
#include "graphlab/util/options.h"
#include "graphlab/util/timer.h"

namespace graphlab {
namespace {

using apps::PageRankEdge;
using apps::PageRankVertex;
using PRGraph = DistributedGraph<PageRankVertex, PageRankEdge>;

bench::JsonWriter* g_json = nullptr;

PartitionAssignment LayoutByName(const std::string& name,
                                 const GraphStructure& structure,
                                 AtomId num_atoms) {
  if (name == "refined") {
    StreamingPartitionOptions opts;
    opts.seed = 3;
    return apps::RefinePartitionLabelProp(
        structure, StreamingGreedyPartition(structure, num_atoms, opts),
        num_atoms);
  }
  return PartitionByName(name, structure, num_atoms, 3);
}

// ---------------------------------------------------------------------
// E1: layout quality
// ---------------------------------------------------------------------

struct LayoutRow {
  std::string name;
  PartitionQuality quality;
  double seconds = 0;
};

std::vector<LayoutRow> E1Quality(const GraphStructure& structure,
                                 AtomId num_atoms) {
  bench::PrintHeader("partition quality (atoms=" +
                     std::to_string(num_atoms) + ")");
  std::vector<std::string> names = ListPartitionerNames();
  names.push_back("refined");
  std::vector<LayoutRow> rows;
  std::printf("%-10s %10s %12s %9s %9s %9s\n", "layout", "cut_edges",
              "cut_fraction", "balance", "build_s", "vs_random");
  for (const std::string& name : names) {
    LayoutRow row;
    row.name = name;
    Timer t;
    auto atom_of = LayoutByName(name, structure, num_atoms);
    row.seconds = t.Seconds();
    row.quality = EvaluatePartition(structure, atom_of, num_atoms);
    rows.push_back(row);
  }
  const double random_cut = static_cast<double>(rows[0].quality.cut_edges);
  for (const LayoutRow& r : rows) {
    const double cut_fraction =
        static_cast<double>(r.quality.cut_edges) / structure.num_edges();
    const double vs_random =
        static_cast<double>(r.quality.cut_edges) / random_cut;
    std::printf("%-10s %10llu %12.4f %9.4f %9.3f %9.4f\n", r.name.c_str(),
                static_cast<unsigned long long>(r.quality.cut_edges),
                cut_fraction, r.quality.balance, r.seconds, vs_random);
    g_json->AddRow()
        .Set("row", "layout")
        .Set("partitioner", r.name)
        .Set("cut_edges", r.quality.cut_edges)
        .Set("cut_fraction", cut_fraction)
        .Set("balance", r.quality.balance)
        .Set("build_seconds", r.seconds)
        .Set("cut_ratio_vs_random", vs_random);
  }
  return rows;
}

// ---------------------------------------------------------------------
// E2: distributed PageRank under each layout
// ---------------------------------------------------------------------

struct DistMeasure {
  uint64_t bytes_sent = 0;     // cluster total (rpc.bytes_sent)
  double updates_skew = 0;     // per-machine engine.updates max/mean
  uint64_t updates = 0;        // cluster total update executions
  uint64_t machine_cut = 0;    // edges crossing machines after placement
  double seconds = 0;
};

DistMeasure RunLayoutDistributed(
    const GraphStructure& structure,
    const LocalGraph<PageRankVertex, PageRankEdge>& global,
    const ColorAssignment& colors, const PartitionAssignment& atom_of,
    AtomId num_atoms, size_t machines, double tolerance) {
  AtomIndex meta = BuildMetaIndex(structure, atom_of, colors, num_atoms);
  auto placement = PlaceAtoms(meta, machines);

  // Machine-level cut: what ghost synchronization actually crosses the
  // interconnect once atoms are packed onto machines.
  PartitionAssignment machine_of(structure.num_vertices);
  for (VertexId v = 0; v < structure.num_vertices; ++v) {
    machine_of[v] = placement[atom_of[v]];
  }
  DistMeasure out;
  out.machine_cut =
      EvaluatePartition(structure, machine_of, machines).cut_edges;

  rpc::ClusterOptions cluster;
  cluster.num_machines = machines;
  cluster.threads_per_machine = 1;
  cluster.comm.latency = std::chrono::microseconds(100);
  rpc::Runtime runtime(cluster);
  SumAllReduce allreduce(&runtime.comm(), 1);
  std::vector<PRGraph> graphs(machines);
  metrics::ClusterMetricsView view;
  Timer timer;
  runtime.Run([&](rpc::MachineContext& ctx) {
    const rpc::MachineId me = ctx.id;
    PRGraph& graph = graphs[me];
    GL_CHECK_OK(graph.InitFromGlobal(global, atom_of, colors, placement, me,
                                     &ctx.comm()));
    ctx.barrier().Wait(me);
    EngineOptions eo;
    eo.num_threads = 1;
    DistributedEngineDeps<PageRankVertex, PageRankEdge> deps;
    deps.allreduce = &allreduce;
    auto engine =
        std::move(CreateEngine("chromatic", ctx, &graph, eo, deps).value());
    engine->SetUpdateFn(
        apps::MakePageRankUpdateFn<PRGraph>(0.85, tolerance));
    engine->ScheduleAll();
    engine->Start();
    // Cluster-merged metrics: the same collective the load rebalancer
    // watches (per-machine engine.updates / rpc.bytes_sent).
    metrics::MetricsService service(&ctx.comm(), me,
                                    &ctx.comm().registry(me));
    ctx.barrier().Wait(me);
    metrics::ClusterMetricsView v = service.Collect();
    if (me == 0) view = std::move(v);
  });
  out.seconds = timer.Seconds();
  if (const metrics::ClusterMetric* m = view.Find("rpc.bytes_sent")) {
    out.bytes_sent = static_cast<uint64_t>(m->total);
  }
  if (const metrics::ClusterMetric* m = view.Find("engine.updates")) {
    out.updates = static_cast<uint64_t>(m->total);
    out.updates_skew = m->skew;
  }
  return out;
}

std::vector<std::pair<std::string, DistMeasure>> E2Distributed(
    const GraphStructure& structure, AtomId num_atoms, size_t machines,
    double tolerance) {
  bench::PrintHeader("distributed PageRank by layout (machines=" +
                     std::to_string(machines) + ")");
  auto global = apps::BuildPageRankGraph(structure);
  auto colors = GreedyColoring(structure);
  std::vector<std::pair<std::string, DistMeasure>> rows;
  std::printf("%-10s %12s %12s %10s %12s %9s\n", "layout", "bytes_sent",
              "machine_cut", "updates", "update_skew", "wall_s");
  for (const std::string& name :
       {std::string("random"), std::string("striped"), std::string("greedy"),
        std::string("refined")}) {
    auto atom_of = LayoutByName(name, structure, num_atoms);
    DistMeasure m = RunLayoutDistributed(structure, global, colors, atom_of,
                                         num_atoms, machines, tolerance);
    std::printf("%-10s %12llu %12llu %10llu %12.4f %9.3f\n", name.c_str(),
                static_cast<unsigned long long>(m.bytes_sent),
                static_cast<unsigned long long>(m.machine_cut),
                static_cast<unsigned long long>(m.updates), m.updates_skew,
                m.seconds);
    g_json->AddRow()
        .Set("row", "distributed")
        .Set("partitioner", name)
        .Set("bytes_sent", m.bytes_sent)
        .Set("machine_cut", m.machine_cut)
        .Set("updates", m.updates)
        .Set("updates_skew", m.updates_skew)
        .Set("seconds", m.seconds);
    rows.emplace_back(name, m);
  }
  return rows;
}

// ---------------------------------------------------------------------
// E3: live rebalancing (loopback TCP) — migration latency and what the
// rebalancer does to per-machine update skew
// ---------------------------------------------------------------------

struct FtMeasure {
  fault::FtReport report;
  double updates_skew = 0;  // cumulative per-machine engine.updates
};

FtMeasure RunFtVariant(const std::string& layout, uint64_t at_boundary,
                       size_t machines, size_t vertices, AtomId num_atoms,
                       double tolerance) {
  auto structure = gen::PowerLawWeb(vertices, 5, 0.8, 7);
  auto global = apps::BuildPageRankGraph(structure);
  auto colors = GreedyColoring(structure);
  auto atom_of = LayoutByName(layout, structure, num_atoms);
  AtomIndex meta = BuildMetaIndex(structure, atom_of, colors, num_atoms);

  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("glbench_rebal_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);

  rpc::ClusterOptions cluster;
  cluster.num_machines = machines;
  cluster.threads_per_machine = 1;
  cluster.transport = rpc::TransportKind::kTcp;
  cluster.tcp_loopback_cluster = true;
  rpc::Runtime runtime(cluster);

  fault::FtOptions ft;
  ft.heartbeat_interval_ms = 20;
  ft.heartbeat_timeout_ms = 500;
  ft.snapshot_dir = dir;
  ft.rebalance_at_boundary = at_boundary;

  std::vector<PRGraph> graphs(machines);
  FtMeasure out;
  metrics::ClusterMetricsView view;
  runtime.Run([&](rpc::MachineContext& ctx) {
    const rpc::MachineId me = ctx.id;
    {
      fault::FaultTolerantRunner<PageRankVertex, PageRankEdge> runner(ctx,
                                                                      ft);
      typename fault::FaultTolerantRunner<PageRankVertex,
                                          PageRankEdge>::Problem problem;
      problem.meta = meta;
      problem.build = [&, me](PRGraph* graph,
                              const std::vector<rpc::MachineId>& placement) {
        return graph->InitFromGlobal(global, atom_of, colors, placement, me,
                                     &ctx.comm());
      };
      problem.update_fn =
          apps::MakePageRankUpdateFn<PRGraph>(0.85, tolerance);
      problem.engine_options.num_threads = 1;
      auto result = runner.Run(problem, &graphs[me]);
      GL_CHECK(result.ok()) << result.status().ToString();
      if (me == 0) out.report = *result;
    }
    metrics::MetricsService service(&ctx.comm(), me,
                                    &ctx.comm().registry(me));
    ctx.barrier().Wait(me);
    metrics::ClusterMetricsView v = service.Collect();
    if (me == 0) view = std::move(v);
  });
  std::filesystem::remove_all(dir);
  if (const metrics::ClusterMetric* m = view.Find("engine.updates")) {
    out.updates_skew = m->skew;
  }
  return out;
}

struct E3Result {
  fault::FtReport report;       // the rebalanced run's report
  double skew_striped = 0;      // static striped layout, no rebalancer
  double skew_static = 0;       // static greedy layout, no rebalancer
  double skew_rebalanced = 0;   // greedy layout + forced live migration
};

E3Result E3Rebalance(size_t machines, size_t vertices, AtomId num_atoms,
                     double tolerance) {
  bench::PrintHeader("live rebalancing (loopback TCP)");
  E3Result out;
  std::printf("%-18s %12s %10s %12s %12s\n", "variant", "update_skew",
              "rebalances", "rebalance_s", "attempts");
  struct Variant {
    const char* name;
    const char* layout;
    uint64_t at_boundary;
  };
  for (const Variant& v : {Variant{"striped-static", "striped", 0},
                           Variant{"greedy-static", "greedy", 0},
                           Variant{"greedy-rebalance", "greedy", 3}}) {
    FtMeasure m = RunFtVariant(v.layout, v.at_boundary, machines, vertices,
                               num_atoms, tolerance);
    std::printf("%-18s %12.4f %10llu %12.4f %12llu\n", v.name,
                m.updates_skew,
                static_cast<unsigned long long>(m.report.rebalances),
                m.report.rebalance_seconds,
                static_cast<unsigned long long>(m.report.attempts));
    g_json->AddRow()
        .Set("row", "rebalance")
        .Set("variant", v.name)
        .Set("updates_skew", m.updates_skew)
        .Set("rebalances", m.report.rebalances)
        .Set("rebalance_seconds", m.report.rebalance_seconds)
        .Set("attempts", m.report.attempts)
        .Set("full_checkpoints", m.report.full_checkpoints)
        .Set("restored_epoch",
             static_cast<uint64_t>(m.report.restored_epoch));
    if (std::string(v.name) == "striped-static") {
      out.skew_striped = m.updates_skew;
    }
    if (std::string(v.name) == "greedy-static") {
      out.skew_static = m.updates_skew;
    }
    if (std::string(v.name) == "greedy-rebalance") {
      out.report = m.report;
      out.skew_rebalanced = m.updates_skew;
    }
  }
  return out;
}

}  // namespace
}  // namespace graphlab

int main(int argc, char** argv) {
  using namespace graphlab;
  OptionMap opts;
  opts.ParseArgs(argc, argv);
  if (opts.Has("help")) {
    std::printf(
        "Partition quality / distributed impact / rebalance latency.\n"
        "  --vertices=N   graph size              (default 8000)\n"
        "  --machines=M   simulated cluster size  (default 4)\n"
        "  --atoms=K      atom count              (default 2*machines)\n"
        "  --quick        small graph, loose tolerance (CI smoke)\n"
        "  --out=FILE     JSON path (default BENCH_partition.json)\n");
    return 0;
  }
  const bool quick = opts.Has("quick");
  const uint64_t n = opts.GetInt("vertices", quick ? 2000 : 8000);
  const size_t machines = opts.GetInt("machines", 4);
  const AtomId num_atoms = static_cast<AtomId>(
      opts.GetInt("atoms", static_cast<int64_t>(2 * machines)));
  const double tolerance = quick ? 1e-8 : 1e-10;

  auto structure = gen::PowerLawWeb(n, 5, 0.8, 7);

  bench::JsonWriter json("partition");
  g_json = &json;

  auto layouts = E1Quality(structure, num_atoms);
  auto dist = E2Distributed(structure, num_atoms, machines, tolerance);
  // E3 runs the launcher/chaos configuration (4 atoms per machine): the
  // finer granularity is what gives one-atom migrations room to help.
  auto e3 = E3Rebalance(machines, quick ? 800 : 1200,
                        static_cast<AtomId>(4 * machines), 1e-13);

  // Headline ratios the CI smoke gate reads (and the README quotes):
  // layout cut ratios are atom-level; bytes/skew come from the measured
  // 4-machine runs.
  double random_cut = 0, greedy_cut = 0, refined_cut = 0;
  for (const auto& r : layouts) {
    if (r.name == "random") random_cut = r.quality.cut_edges;
    if (r.name == "greedy") greedy_cut = r.quality.cut_edges;
    if (r.name == "refined") refined_cut = r.quality.cut_edges;
  }
  uint64_t random_bytes = 0, greedy_bytes = 0, refined_bytes = 0;
  for (const auto& [name, m] : dist) {
    if (name == "random") random_bytes = m.bytes_sent;
    if (name == "greedy") greedy_bytes = m.bytes_sent;
    if (name == "refined") refined_bytes = m.bytes_sent;
  }
  const double edge_cut_ratio =
      random_cut > 0 ? greedy_cut / random_cut : 0.0;
  const double refined_cut_ratio =
      random_cut > 0 ? refined_cut / random_cut : 0.0;
  const double bytes_reduction =
      random_bytes > 0
          ? 1.0 - static_cast<double>(greedy_bytes) / random_bytes
          : 0.0;
  const double bytes_reduction_refined =
      random_bytes > 0
          ? 1.0 - static_cast<double>(refined_bytes) / random_bytes
          : 0.0;
  json.meta()
      .Set("vertices", n)
      .Set("machines", static_cast<uint64_t>(machines))
      .Set("atoms", static_cast<uint64_t>(num_atoms))
      .Set("quick", quick)
      .Set("edge_cut_ratio", edge_cut_ratio)
      .Set("refined_cut_ratio", refined_cut_ratio)
      .Set("bytes_reduction", bytes_reduction)
      .Set("bytes_reduction_refined", bytes_reduction_refined)
      .Set("updates_skew_striped", e3.skew_striped)
      .Set("updates_skew_static", e3.skew_static)
      .Set("updates_skew_rebalanced", e3.skew_rebalanced)
      .Set("rebalances", e3.report.rebalances)
      .Set("rebalance_seconds", e3.report.rebalance_seconds);
  std::printf(
      "\nedge_cut_ratio=%.4f refined=%.4f bytes_reduction=%.1f%% "
      "(refined %.1f%%) skew: striped=%.4f static=%.4f rebalanced=%.4f\n",
      edge_cut_ratio, refined_cut_ratio, 100.0 * bytes_reduction,
      100.0 * bytes_reduction_refined, e3.skew_striped, e3.skew_static,
      e3.skew_rebalanced);
  json.WriteFile(opts.GetString("out", ""));
  return 0;
}
