// Partitioning subsystem tests: the flat-CSR adjacency build, streaming
// greedy edge-cut quality vs random hashing (the ISSUE 9 acceptance
// gates: cut <= 0.7x random, balance within the 1.25x cap, determinism),
// label-propagation refinement (as a partition refiner and as an app),
// the collective edge-cut statistic, weighted atom placement, engine
// equivalence of PageRank under every partitioner, and the live-migration
// path: a mid-run rebalance on the TCP backend that must converge to the
// unmigrated fixed point.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

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
#include "graphlab/rpc/runtime.h"
#include "tests/transport_param.h"

namespace graphlab {
namespace {

using apps::BuildPageRankGraph;
using apps::MakePageRankUpdateFn;
using apps::PageRankEdge;
using apps::PageRankVertex;
using apps::RefinePartitionLabelProp;
using PRGraph = DistributedGraph<PageRankVertex, PageRankEdge>;

// ---------------------------------------------------------------------
// Flat CSR adjacency (the BfsPartition allocation satellite)
// ---------------------------------------------------------------------

TEST(UndirectedCsrTest, MatchesNaiveAdjacency) {
  auto structure = gen::PowerLawWeb(300, 4, 0.8, 5);
  UndirectedCsr csr = BuildUndirectedCsr(structure);

  ASSERT_EQ(csr.offsets.size(), structure.num_vertices + 1);
  EXPECT_EQ(csr.targets.size(), 2 * structure.num_edges());

  std::vector<std::multiset<VertexId>> naive(structure.num_vertices);
  for (const auto& [u, v] : structure.edges) {
    naive[u].insert(v);
    naive[v].insert(u);
  }
  for (VertexId v = 0; v < structure.num_vertices; ++v) {
    std::multiset<VertexId> got(csr.begin(v), csr.end(v));
    EXPECT_EQ(got, naive[v]) << "vertex " << v;
    EXPECT_EQ(csr.degree(v), naive[v].size());
  }
}

// ---------------------------------------------------------------------
// Streaming greedy partitioner: cut quality, balance, determinism
// ---------------------------------------------------------------------

TEST(StreamingPartitionTest, CutBeatsRandomWithinBalanceCap) {
  const uint64_t n = 4000;
  const AtomId k = 8;
  auto structure = gen::PowerLawWeb(n, 5, 0.8, 13);

  auto random = EvaluatePartition(structure, RandomPartition(n, k, 3), k);
  auto greedy = EvaluatePartition(
      structure, StreamingGreedyPartition(structure, k), k);

  // The ISSUE 9 quality gate: at most 0.7x the random cut.
  EXPECT_LE(greedy.cut_edges,
            static_cast<uint64_t>(0.7 * static_cast<double>(random.cut_edges)))
      << "greedy cut " << greedy.cut_edges << " vs random "
      << random.cut_edges;
  // Balanced within the slack cap by construction (+1 vertex of rounding).
  const double cap_balance =
      (1.25 * static_cast<double>(n) / k + 1.0) / (static_cast<double>(n) / k);
  EXPECT_LE(greedy.balance, cap_balance);
  EXPECT_GT(greedy.max_atom_size, 0u);
}

TEST(StreamingPartitionTest, DeterministicForFixedSeed) {
  auto structure = gen::PowerLawWeb(1000, 5, 0.8, 21);
  StreamingPartitionOptions opts;
  opts.seed = 42;
  auto a = StreamingGreedyPartition(structure, 8, opts);
  auto b = StreamingGreedyPartition(structure, 8, opts);
  EXPECT_EQ(a, b);
}

TEST(StreamingPartitionTest, EveryVertexPlacedInRange) {
  auto structure = gen::PowerLawWeb(500, 4, 0.8, 9);
  for (const std::string& name : ListPartitionerNames()) {
    auto assignment = PartitionByName(name, structure, 8, 7);
    ASSERT_EQ(assignment.size(), structure.num_vertices) << name;
    for (AtomId a : assignment) EXPECT_LT(a, 8u) << name;
  }
}

// ---------------------------------------------------------------------
// Label-propagation refinement (update function)
// ---------------------------------------------------------------------

TEST(LabelPropTest, RefinementReducesCutKeepsBalance) {
  const uint64_t n = 2000;
  const AtomId k = 8;
  auto structure = gen::PowerLawWeb(n, 5, 0.8, 17);

  auto initial = StreamingGreedyPartition(structure, k);
  auto before = EvaluatePartition(structure, initial, k);
  auto refined = RefinePartitionLabelProp(structure, initial, k);
  auto after = EvaluatePartition(structure, refined, k);

  EXPECT_LE(after.cut_edges, before.cut_edges)
      << "refinement must never worsen the cut it starts from";
  const double cap_balance =
      (1.25 * static_cast<double>(n) / k + 1.0) / (static_cast<double>(n) / k);
  EXPECT_LE(after.balance, cap_balance);
  // Single-threaded refinement is deterministic: pin its exact output so
  // a drift in vote order or schedule order shows up here.
  EXPECT_EQ(after.cut_edges, 5985u);
  EXPECT_EQ(after.max_atom_size, 271u);

  // From a random start the refiner must make real progress.
  auto random = RandomPartition(n, k, 3);
  auto random_q = EvaluatePartition(structure, random, k);
  auto refined_random =
      EvaluatePartition(structure, RefinePartitionLabelProp(structure, random, k),
                        k);
  EXPECT_LT(refined_random.cut_edges, random_q.cut_edges);
  EXPECT_EQ(refined_random.cut_edges, 6532u);
  EXPECT_EQ(refined_random.max_atom_size, 312u);
}

TEST(LabelPropTest, LabelAtOrAboveNumLabelsIsInvalidArgument) {
  GraphStructure s;
  s.num_vertices = 3;
  s.edges = {{0, 1}, {1, 2}};
  auto g = apps::BuildLabelPropGraph(s, PartitionAssignment{0, 1, 5});
  EngineOptions options;
  options.num_threads = 1;
  auto result = apps::SolveLabelProp(&g, "shared_memory", options,
                                     /*num_labels=*/2);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(g.vertex_data(2).label, 5u) << "no update may run";
}

TEST(LabelPropTest, MajorityVoteFlipsMinorityLabel) {
  // Two disjoint 5-cliques.  In each, one vertex starts with the other
  // clique's label; the majority gather must flip it and nothing else.
  GraphStructure s;
  s.num_vertices = 10;
  for (VertexId base : {VertexId{0}, VertexId{5}}) {
    for (VertexId u = base; u < base + 5; ++u) {
      for (VertexId v = u + 1; v < base + 5; ++v) s.edges.emplace_back(u, v);
    }
  }
  PartitionAssignment initial = {0, 0, 0, 0, 1,   // vertex 4 is a tourist
                                 1, 1, 1, 1, 0};  // vertex 9 likewise
  auto g = apps::BuildLabelPropGraph(s, initial);
  EngineOptions options;
  options.num_threads = 1;
  auto result = apps::SolveLabelProp(&g, "shared_memory", options,
                                     /*num_labels=*/2);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  for (VertexId v = 0; v < 5; ++v) EXPECT_EQ(g.vertex_data(v).label, 0u);
  for (VertexId v = 5; v < 10; ++v) EXPECT_EQ(g.vertex_data(v).label, 1u);
}

TEST(LabelPropTest, ClusterEdgeCutMatchesEvaluatePartition) {
  using LpGraph = DistributedGraph<apps::LabelPropVertex, apps::LabelPropEdge>;
  const uint64_t n = 600;
  const size_t machines = 3;
  auto structure = gen::PowerLawWeb(n, 4, 0.8, 31);
  auto atom_of = BlockPartition(n, machines);
  auto colors = GreedyColoring(structure);
  // Labels = atoms, so the collective statistic must equal the
  // single-machine EvaluatePartition count exactly.
  auto global = apps::BuildLabelPropGraph(structure, atom_of);
  auto expected = EvaluatePartition(structure, atom_of, machines);

  std::vector<rpc::MachineId> placement(machines);
  for (size_t m = 0; m < machines; ++m) placement[m] = m;

  rpc::Runtime runtime(
      testutil::ClusterFor(rpc::TransportKind::kInProcess, machines));
  testutil::ClusterAllreduce allreduce(&runtime, 2);
  std::vector<LpGraph> graphs(machines);
  runtime.Run([&](rpc::MachineContext& ctx) {
    LpGraph& graph = graphs[ctx.id];
    ASSERT_TRUE(graph
                    .InitFromGlobal(global, atom_of, colors, placement,
                                    ctx.id, &ctx.comm())
                    .ok());
    ctx.barrier().Wait(ctx.id);
    auto [cut, total] =
        apps::ClusterEdgeCut(graph, &allreduce.at(ctx.id), ctx.id);
    EXPECT_EQ(cut, expected.cut_edges);
    EXPECT_EQ(total, structure.num_edges());
  });
}

// ---------------------------------------------------------------------
// Weighted atom placement (satellite: owned vertices + cross-atom degree)
// ---------------------------------------------------------------------

TEST(WeightedPlacementTest, EdgeHeavyAtomsSpreadAcrossMachines) {
  auto structure = gen::PowerLawWeb(1000, 5, 0.8, 11);
  auto atom_of = RandomPartition(1000, 16, 3);
  auto colors = GreedyColoring(structure);
  AtomIndex meta = BuildMetaIndex(structure, atom_of, colors, 16);

  auto placement = PlaceAtomsOnMachines(meta, {0, 1, 2, 3});
  ASSERT_EQ(placement.size(), 16u);

  // The placement cap is computed over vertex + cross-atom edge weight;
  // check the weighted load honours the 9/8 bound the two-phase scheme
  // promises (Sec. 4.1).
  std::vector<uint64_t> weight(16, 0);
  uint64_t total = 0;
  for (AtomId a = 0; a < 16; ++a) {
    weight[a] = meta.atoms[a].num_owned_vertices;
    for (const auto& [nbr, w] : meta.atoms[a].neighbors) weight[a] += w;
    total += weight[a];
  }
  std::vector<uint64_t> load(4, 0);
  for (AtomId a = 0; a < 16; ++a) load[placement[a]] += weight[a];
  const uint64_t cap = (total / 4) * 9 / 8 + 1;
  // The greedy packer may exceed the cap only via its everything-full
  // fallback; with 16 atoms over 4 machines it should never need it.
  for (size_t m = 0; m < 4; ++m) {
    EXPECT_LE(load[m], cap) << "machine " << m;
    EXPECT_GT(load[m], 0u) << "machine " << m;
  }
}

// ---------------------------------------------------------------------
// Engine equivalence: PageRank is layout-invariant under any partitioner
// ---------------------------------------------------------------------

/// Distributed PageRank on a 2-machine simulated cluster with the given
/// vertex->machine assignment; returns the converged global ranks.
std::vector<double> DistributedRanks(
    const std::string& engine_name,
    const LocalGraph<PageRankVertex, PageRankEdge>& global,
    const GraphStructure& structure, const PartitionAssignment& atom_of,
    double tolerance) {
  const size_t machines = 2;
  auto colors = GreedyColoring(structure);
  std::vector<rpc::MachineId> placement(machines);
  for (size_t m = 0; m < machines; ++m) placement[m] = m;

  rpc::Runtime runtime(
      testutil::ClusterFor(rpc::TransportKind::kInProcess, machines, 100));
  testutil::ClusterAllreduce allreduce(&runtime, 1);
  std::vector<PRGraph> graphs(machines);
  runtime.Run([&](rpc::MachineContext& ctx) {
    PRGraph& graph = graphs[ctx.id];
    ASSERT_TRUE(graph
                    .InitFromGlobal(global, atom_of, colors, placement,
                                    ctx.id, &ctx.comm())
                    .ok());
    ctx.barrier().Wait(ctx.id);
    EngineOptions eo;
    eo.num_threads = 1;
    DistributedEngineDeps<PageRankVertex, PageRankEdge> deps;
    deps.allreduce = &allreduce.at(ctx.id);
    auto engine =
        std::move(CreateEngine(engine_name, ctx, &graph, eo, deps).value());
    engine->SetUpdateFn(MakePageRankUpdateFn<PRGraph>(0.85, tolerance));
    engine->ScheduleAll();
    engine->Start();
  });

  std::vector<double> ranks(structure.num_vertices, 0.0);
  for (PRGraph& graph : graphs) {
    for (LocalVid l : graph.owned_vertices()) {
      ranks[graph.Gvid(l)] = graph.vertex_data(l).rank;
    }
  }
  return ranks;
}

/// Every engine the factory knows x every partitioner: the converged
/// ranks must agree with the shared-memory reference — the layout (and
/// the execution strategy) may only change timing, never the fixed point.
class PartitionEngineEquivalenceTest
    : public ::testing::TestWithParam<std::string> {};

TEST_P(PartitionEngineEquivalenceTest, PageRankLayoutInvariant) {
  const std::string name = GetParam();
  const double kTolerance = 1e-13;
  auto structure = gen::PowerLawWeb(400, 5, 0.8, 21);
  auto global = BuildPageRankGraph(structure);

  // Reference: the local shared-memory engine (no layout at all).
  auto reference = global;
  {
    auto engine = std::move(
        CreateEngine("shared_memory", &reference, EngineOptions{}).value());
    engine->SetUpdateFn(MakePageRankUpdateFn<apps::PageRankGraph>(
        0.85, kTolerance));
    engine->ScheduleAll();
    engine->Start();
  }

  auto check = [&](const std::vector<double>& ranks,
                   const std::string& layout) {
    double l1 = 0.0;
    for (VertexId v = 0; v < structure.num_vertices; ++v) {
      l1 += std::fabs(ranks[v] - reference.vertex_data(v).rank);
    }
    EXPECT_LT(l1, 1e-8) << "engine " << name << " under layout " << layout
                        << " left the fixed point";
  };

  bool local = false;
  for (const std::string& n : ListLocalEngineNames()) local |= (n == name);
  if (local) {
    // Local engines have no layout; one run against the reference.
    auto g = global;
    auto engine = std::move(CreateEngine(name, &g, EngineOptions{}).value());
    engine->SetUpdateFn(
        MakePageRankUpdateFn<apps::PageRankGraph>(0.85, kTolerance));
    engine->ScheduleAll();
    engine->Start();
    std::vector<double> ranks(structure.num_vertices);
    for (VertexId v = 0; v < structure.num_vertices; ++v) {
      ranks[v] = g.vertex_data(v).rank;
    }
    check(ranks, "local");
    return;
  }

  for (const std::string& partitioner : ListPartitionerNames()) {
    auto atom_of = PartitionByName(partitioner, structure, 2, 9);
    check(DistributedRanks(name, global, structure, atom_of, kTolerance),
          partitioner);
  }
  // And the refined layout (greedy + label-propagation refinement).
  auto refined = RefinePartitionLabelProp(
      structure, StreamingGreedyPartition(structure, 2), 2);
  check(DistributedRanks(name, global, structure, refined, kTolerance),
        "refined");
}

INSTANTIATE_TEST_SUITE_P(AllEngines, PartitionEngineEquivalenceTest,
                         ::testing::ValuesIn(ListEngineNames()));

// ---------------------------------------------------------------------
// Live migration: a mid-run rebalance (nobody dead) over loopback TCP
// must converge to the unmigrated fixed point
// ---------------------------------------------------------------------

struct MigrationScenario {
  size_t machines = 4;
  size_t vertices = 1200;
  AtomId atoms = 16;
  double tolerance = 1e-13;
  uint64_t rebalance_at_boundary = 3;
  std::string snapshot_dir;
};

std::vector<double> MigrationReferenceRanks(const MigrationScenario& s) {
  auto structure = gen::PowerLawWeb(s.vertices, 5, 0.8, 7);
  auto global = BuildPageRankGraph(structure);
  auto colors = GreedyColoring(structure);
  auto atom_of = RandomPartition(s.vertices, s.atoms, 3);
  AtomIndex meta = BuildMetaIndex(structure, atom_of, colors, s.atoms);
  auto placement = PlaceAtoms(meta, s.machines);

  rpc::Runtime runtime(
      testutil::ClusterFor(rpc::TransportKind::kInProcess, s.machines));
  testutil::ClusterAllreduce allreduce(&runtime, 1);
  std::vector<PRGraph> graphs(s.machines);
  std::vector<double> ranks(s.vertices, 0.0);
  std::mutex ranks_mutex;
  runtime.Run([&](rpc::MachineContext& ctx) {
    PRGraph& graph = graphs[ctx.id];
    GL_CHECK_OK(graph.InitFromGlobal(global, atom_of, colors, placement,
                                     ctx.id, &ctx.comm()));
    ctx.barrier().Wait(ctx.id);
    EngineOptions eo;
    eo.num_threads = 1;
    DistributedEngineDeps<PageRankVertex, PageRankEdge> deps;
    deps.allreduce = &allreduce.at(ctx.id);
    auto engine =
        std::move(CreateEngine("chromatic", ctx, &graph, eo, deps).value());
    engine->SetUpdateFn(MakePageRankUpdateFn<PRGraph>(0.85, s.tolerance));
    engine->ScheduleAll();
    engine->Start();
    ctx.barrier().Wait(ctx.id);
    std::lock_guard<std::mutex> lock(ranks_mutex);
    for (LocalVid l : graph.owned_vertices()) {
      ranks[graph.Gvid(l)] = graph.vertex_data(l).rank;
    }
  });
  return ranks;
}

struct MigrationRun {
  fault::FtReport report;  // machine 0's
  std::vector<double> ranks;
  /// Per machine, the placement each attempt built on.
  std::vector<std::vector<std::vector<rpc::MachineId>>> builds;
};

MigrationRun RunMigrationCluster(const MigrationScenario& s) {
  auto structure = gen::PowerLawWeb(s.vertices, 5, 0.8, 7);
  auto global = BuildPageRankGraph(structure);
  auto colors = GreedyColoring(structure);
  auto atom_of = RandomPartition(s.vertices, s.atoms, 3);
  AtomIndex meta = BuildMetaIndex(structure, atom_of, colors, s.atoms);

  rpc::Runtime runtime(
      testutil::ClusterFor(rpc::TransportKind::kTcp, s.machines));

  fault::FtOptions ft;
  ft.heartbeat_interval_ms = 20;
  ft.heartbeat_timeout_ms = 500;
  ft.snapshot_dir = s.snapshot_dir;
  ft.rebalance_at_boundary = s.rebalance_at_boundary;

  std::vector<PRGraph> graphs(s.machines);
  MigrationRun run;
  run.ranks.assign(s.vertices, 0.0);
  run.builds.resize(s.machines);
  std::mutex ranks_mutex;

  runtime.Run([&](rpc::MachineContext& ctx) {
    const rpc::MachineId me = ctx.id;
    fault::FaultTolerantRunner<PageRankVertex, PageRankEdge> runner(ctx, ft);
    typename fault::FaultTolerantRunner<PageRankVertex,
                                        PageRankEdge>::Problem problem;
    problem.meta = meta;
    problem.build = [&, me](PRGraph* graph,
                            const std::vector<rpc::MachineId>& placement) {
      run.builds[me].push_back(placement);
      return graph->InitFromGlobal(global, atom_of, colors, placement, me,
                                   &ctx.comm());
    };
    problem.update_fn = MakePageRankUpdateFn<PRGraph>(0.85, s.tolerance);
    problem.engine_options.num_threads = 1;

    auto result = runner.Run(problem, &graphs[me]);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    if (me == 0) run.report = *result;

    std::lock_guard<std::mutex> lock(ranks_mutex);
    for (LocalVid l : graphs[me].owned_vertices()) {
      run.ranks[graphs[me].Gvid(l)] = graphs[me].vertex_data(l).rank;
    }
  });
  return run;
}

// Every machine decides the migration itself from the same reduced
// round, so every machine must rebuild on the same placement: the
// pre-migration one, then the same single atom moved.
void ExpectOneDecisionEverywhere(
    const std::vector<std::vector<std::vector<rpc::MachineId>>>& builds) {
  const auto& first = builds[0];
  ASSERT_GE(first.size(), 2u);
  size_t moved = 0;
  for (size_t a = 0; a < first.front().size(); ++a) {
    moved += first.front()[a] != first.back()[a];
  }
  EXPECT_EQ(moved, 1u);
  for (size_t m = 1; m < builds.size(); ++m) {
    EXPECT_EQ(builds[m], first) << "machine " << m << " decided differently";
  }
}

class LiveMigrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string name =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    dir_ = (std::filesystem::temp_directory_path() /
            ("glmig_" + std::to_string(::getpid()) + "_" + name))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string dir_;
};

TEST_F(LiveMigrationTest, MidRunMigrationMatchesUnmigratedFixedPoint) {
  MigrationScenario s;
  s.snapshot_dir = dir_;
  auto reference = MigrationReferenceRanks(s);
  auto [report, ranks, builds] = RunMigrationCluster(s);
  ExpectOneDecisionEverywhere(builds);

  // Exactly one migration was adopted: the attempt aborted at the forced
  // boundary, the next attempt rebuilt on the amended placement, and no
  // machine died doing it.
  EXPECT_EQ(report.rebalances, 1u);
  EXPECT_GE(report.attempts, 2u);
  EXPECT_GT(report.rebalance_seconds, 0.0);
  // The migration boundary forced a full checkpoint so the move is
  // exact-state, not a recompute.
  EXPECT_GE(report.full_checkpoints, 1u);
  EXPECT_GE(report.restored_epoch, 1u);

  double l1 = 0.0;
  for (size_t v = 0; v < ranks.size(); ++v) {
    l1 += std::fabs(ranks[v] - reference[v]);
  }
  EXPECT_LT(l1, 1e-8) << "migrated run diverged from unmigrated reference";
}

TEST_F(LiveMigrationTest, MigrationWithoutSnapshotsRecomputes) {
  MigrationScenario s;
  s.snapshot_dir = "";  // no checkpointing: the move restarts from inputs
  auto reference = MigrationReferenceRanks(s);
  auto [report, ranks, builds] = RunMigrationCluster(s);
  ExpectOneDecisionEverywhere(builds);
  EXPECT_EQ(report.rebalances, 1u);
  EXPECT_EQ(report.checkpoints_written, 0u);
  double l1 = 0.0;
  for (size_t v = 0; v < ranks.size(); ++v) {
    l1 += std::fabs(ranks[v] - reference[v]);
  }
  EXPECT_LT(l1, 1e-8);
}

// A machine whose live flag is 0 did not contribute to the decision
// round; whatever its load slot reads, it is never picked as hot or cold.
TEST(RebalanceDecisionTest, MachineWithoutLiveFlagIsNeverPicked) {
  MigrationScenario s;
  auto structure = gen::PowerLawWeb(s.vertices, 5, 0.8, 7);
  auto atom_of = RandomPartition(s.vertices, s.atoms, 3);
  AtomIndex meta =
      BuildMetaIndex(structure, atom_of, GreedyColoring(structure), s.atoms);
  const size_t n = s.machines;
  const auto placement = PlaceAtoms(meta, n);
  for (rpc::MachineId absent = 0; absent < n; ++absent) {
    // Live machines with skewed loads, with equal loads (a forced check
    // falls back to owned vertices), and the absent machine's slot
    // reading as the hottest or the coldest.
    for (bool skewed : {true, false}) {
      for (uint64_t absent_load : {uint64_t{0}, uint64_t{1} << 40}) {
        std::vector<uint64_t> reduced(2 * n, 0);
        for (rpc::MachineId m = 0; m < n; ++m) {
          reduced[m] = skewed ? 1000 * (m + 1) : 1000;
          reduced[n + m] = 1;
        }
        reduced[absent] = absent_load;
        reduced[n + absent] = 0;
        const fault::MigrationDecision d = fault::DecideMigration(
            meta, placement, reduced, 1.3, /*forced=*/!skewed);
        ASSERT_TRUE(d.migrate) << "absent " << absent;
        EXPECT_NE(d.from, absent);
        EXPECT_NE(d.to, absent);
        EXPECT_NE(d.from, d.to);
        EXPECT_EQ(placement[d.atom], d.from);
      }
    }
  }
}

}  // namespace
}  // namespace graphlab
