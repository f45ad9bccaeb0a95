// Unit and integration tests for the GAS vertex-program subsystem
// (src/graphlab/vertex_program/): the compiler's phase sequencing and
// direction handling, the phase rights GasContext enforces, and
// end-to-end GAS PageRank / loopy BP runs.

#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "graphlab/apps/loopy_bp.h"
#include "graphlab/apps/pagerank.h"
#include "graphlab/engine/engine_factory.h"
#include "graphlab/graph/generators.h"
#include "graphlab/vertex_program/gas_compiler.h"

namespace graphlab {
namespace {

using apps::PageRankGraph;
using PRProgram = apps::PageRankProgram<PageRankGraph>;

// ---------------------------------------------------------------------
// BpMessageProduct accumulator
// ---------------------------------------------------------------------

TEST(BpMessageProductTest, EmptyIsIdentityAndFoldIsElementwiseProduct) {
  apps::BpMessageProduct acc;
  acc += apps::BpMessageProduct{};  // identity + identity
  EXPECT_TRUE(acc.prod.empty());
  acc += apps::BpMessageProduct{{0.5, 2.0}};
  acc += apps::BpMessageProduct{{4.0, 0.25}};
  ASSERT_EQ(acc.prod.size(), 2u);
  EXPECT_DOUBLE_EQ(acc.prod[0], 2.0);
  EXPECT_DOUBLE_EQ(acc.prod[1], 0.5);
  acc += apps::BpMessageProduct{};  // identity on the right
  EXPECT_DOUBLE_EQ(acc.prod[0], 2.0);
}

// ---------------------------------------------------------------------
// Compiled-update unit tests: drive the compiled function directly
// through a hand-built Context so each GAS mechanism is observable.
// ---------------------------------------------------------------------

using ScheduleLog = std::vector<std::pair<LocalVid, double>>;

void LogSchedule(void* log, LocalVid v, double priority) {
  static_cast<ScheduleLog*>(log)->emplace_back(v, priority);
}

/// 0 -> 1 -> 2 chain with PageRank data.
PageRankGraph ChainGraph() {
  GraphStructure s;
  s.num_vertices = 3;
  s.edges = {{0, 1}, {1, 2}};
  return apps::BuildPageRankGraph(s);
}

/// Runs `fn` on vertex `v` the way an engine would (edge consistency),
/// logging Signal() calls.
void DriveUpdate(const UpdateFn<PageRankGraph>& fn, PageRankGraph* g,
                 LocalVid v, ScheduleLog* log) {
  Context<PageRankGraph> ctx(g, v, 1.0, ConsistencyModel::kEdgeConsistency,
                             log, &LogSchedule);
  fn(ctx);
}

TEST(GasCompilerTest, GatherApplyScatterMatchesHandwrittenMath) {
  auto g = ChainGraph();
  PRProgram program;
  program.damping = 0.85;
  program.tolerance = 1e-3;
  auto compiled = CompileVertexProgram(&g, program);
  auto fn = compiled.update_fn();

  ScheduleLog log;
  DriveUpdate(fn, &g, 1, &log);
  // gather: weight 1.0 * rank(0) = 1.0; apply: 0.15 + 0.85 * 1.0.
  EXPECT_DOUBLE_EQ(g.vertex_data(1).rank, 0.15 + 0.85 * 1.0);
  // scatter: rank change 0 exceeds nothing -> but rank was 1.0 before,
  // change is 0.0 exactly, so no signal.
  EXPECT_TRUE(log.empty());

  // Vertex 2's rank moves, so its out-neighbors (none) and signal list
  // stay empty but the update itself must execute all three phases.
  auto st = compiled.stats();
  EXPECT_EQ(st.updates, 1u);
  EXPECT_EQ(st.edges_gathered, 1u);
  EXPECT_EQ(st.edges_scattered, 1u);
}

TEST(GasCompilerTest, SignalsCarryResidualPriority) {
  auto g = ChainGraph();
  g.vertex_data(0).rank = 3.0;  // force a large rank change at 1
  PRProgram program;
  program.tolerance = 1e-3;
  auto compiled = CompileVertexProgram(&g, program);
  auto fn = compiled.update_fn();

  ScheduleLog log;
  DriveUpdate(fn, &g, 1, &log);
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].first, 2u);
  EXPECT_GT(log[0].second, 1.0);  // |0.15 + 0.85*3 - 1.0| = 1.7
}

// Direction selection: gather over all edges counts both endpoints.
struct DegreeCount : public IVertexProgram<PageRankGraph, double> {
  using context_type = GasContext<PageRankGraph, double>;
  EdgeDirection gather_edges(const context_type&) const {
    return EdgeDirection::kAll;
  }
  double gather(const context_type&, LocalEid) const { return 1.0; }
  void apply(context_type& ctx, const double& total) {
    ctx.vertex_data().rank = total;
  }
};

TEST(GasCompilerTest, GatherDirectionAllFoldsBothEdgeSets) {
  auto g = ChainGraph();
  auto fn = CompileVertexProgram(&g, DegreeCount{}).update_fn();
  ScheduleLog log;
  for (LocalVid v = 0; v < 3; ++v) DriveUpdate(fn, &g, v, &log);
  EXPECT_DOUBLE_EQ(g.vertex_data(0).rank, 1.0);  // out-degree 1
  EXPECT_DOUBLE_EQ(g.vertex_data(1).rank, 2.0);  // in 1 + out 1
  EXPECT_DOUBLE_EQ(g.vertex_data(2).rank, 1.0);  // in-degree 1
}

// ---------------------------------------------------------------------
// Phase rights: a write or Signal() outside its phase aborts.
// ---------------------------------------------------------------------

enum class Violation {
  kCenterWriteInScatter,
  kEdgeWriteInApply,
  kSignalInApply,
};

/// PageRank-shaped program that breaks one phase right.
struct PhaseViolator : public IVertexProgram<PageRankGraph, double> {
  using context_type = GasContext<PageRankGraph, double>;
  Violation violation = Violation::kCenterWriteInScatter;
  double gather(const context_type&, LocalEid) const { return 0.0; }
  void apply(context_type& ctx, const double&) {
    if (violation == Violation::kEdgeWriteInApply) {
      ctx.edge_data(*ctx.in_edges().begin()).weight = 0.0f;
    } else if (violation == Violation::kSignalInApply) {
      ctx.Signal(0);
    }
  }
  void scatter(context_type& ctx, LocalEid) {
    if (violation == Violation::kCenterWriteInScatter) {
      ctx.vertex_data().rank = 0.0;
    }
  }
};

void RunViolator(Violation violation) {
  auto g = ChainGraph();
  PhaseViolator program;
  program.violation = violation;
  ScheduleLog log;
  DriveUpdate(CompileVertexProgram(&g, program).update_fn(), &g, 1, &log);
}

TEST(GasPhaseRightsTest, VertexDataOutsideApplyDies) {
  EXPECT_DEATH(RunViolator(Violation::kCenterWriteInScatter),
               "writable in apply only");
}

TEST(GasPhaseRightsTest, EdgeDataOutsideScatterDies) {
  EXPECT_DEATH(RunViolator(Violation::kEdgeWriteInApply),
               "writable in scatter only");
}

TEST(GasPhaseRightsTest, SignalOutsideScatterDies) {
  EXPECT_DEATH(RunViolator(Violation::kSignalInApply),
               "from scatter only");
}

// ---------------------------------------------------------------------
// End-to-end: GAS programs through the engine factory
// ---------------------------------------------------------------------

TEST(GasEndToEndTest, GasPageRankConvergesToExactSolution) {
  auto structure = gen::PowerLawWeb(500, 5, 0.8, 21);
  auto g = apps::BuildPageRankGraph(structure);
  auto exact = apps::ExactPageRank(g);
  GasStats stats;
  auto r = apps::SolveGasPageRank(&g, "shared_memory", EngineOptions{}, 0.85,
                                  1e-8, &stats);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r.value().updates, 0u);
  EXPECT_LT(apps::PageRankL1Error(g, exact), 1e-2);
  EXPECT_EQ(stats.updates, r.value().updates);
}

TEST(GasEndToEndTest, GasLoopyBpMatchesClassicBeliefs) {
  auto structure = gen::Grid2D(10, 10);
  auto reference = apps::BuildMrf(structure, 3, 0.15, 1.2, 7);
  // Single worker everywhere: this strongly-coupled weak-evidence MRF is
  // multi-stable, and loopy BP under a nondeterministic multi-thread
  // schedule occasionally settles into a different (equally converged)
  // fixed point — a property of the dynamics, not of the runtime.  A
  // deterministic schedule pins all three runs to the same attractor so
  // the GAS-vs-classic comparison is well defined.
  EngineOptions ref_opts;
  ref_opts.num_threads = 1;
  ASSERT_TRUE(
      apps::SolveBp(&reference, "shared_memory", ref_opts, {1.5}, 1e-6).ok());

  auto g = apps::BuildMrf(structure, 3, 0.15, 1.2, 7);
  EngineOptions opts;
  opts.num_threads = 1;
  ASSERT_TRUE(apps::SolveGasBp(&g, "shared_memory", opts, {1.5}, 1e-6).ok());
  double max_diff = 0.0;
  for (VertexId v = 0; v < structure.num_vertices; ++v) {
    for (size_t s = 0; s < 3; ++s) {
      max_diff =
          std::max(max_diff, std::fabs(g.vertex_data(v).belief[s] -
                                       reference.vertex_data(v).belief[s]));
    }
  }
  EXPECT_LT(max_diff, 1e-4);
}

// ---------------------------------------------------------------------
// Factory name listings (the --help / error-message source of truth)
// ---------------------------------------------------------------------

TEST(FactoryNamesTest, ListsCoverEveryStrategyAndScheduler) {
  EXPECT_EQ(ListEngineNames().size(), ListLocalEngineNames().size() +
                                          ListDistributedEngineNames().size());
  for (const std::string& name : ListEngineNames()) {
    EXPECT_FALSE(name.empty());
  }
  EXPECT_EQ(ListSchedulerNames().size(), 3u);
  EXPECT_EQ(JoinedSchedulerNames(), "fifo|sweep|priority");
}

TEST(FactoryNamesTest, UnknownNamesEchoTheListedAlternatives) {
  auto sched = CreateScheduler("bogus", 8);
  ASSERT_FALSE(sched.ok());
  EXPECT_NE(sched.status().ToString().find(JoinedSchedulerNames()),
            std::string::npos);

  auto g = ChainGraph();
  auto engine = CreateEngine("bogus", &g, EngineOptions{});
  ASSERT_FALSE(engine.ok());
  for (const std::string& name : ListLocalEngineNames()) {
    EXPECT_NE(engine.status().ToString().find(name), std::string::npos);
  }
}

}  // namespace
}  // namespace graphlab
