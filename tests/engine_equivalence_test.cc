// The paper's serializability claim, checked cheaply: every execution
// strategy behind CreateEngine must drive the same update function to the
// same fixed point.  PageRank (vs the exact power-iteration solution) and
// loopy BP (vs the shared-memory reference run) are executed through the
// factory on every engine name — local strategies on a LocalGraph,
// distributed strategies on a simulated cluster — and the converged
// vertex values must agree within tolerance.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "graphlab/apps/loopy_bp.h"
#include "graphlab/apps/pagerank.h"
#include "graphlab/engine/allreduce.h"
#include "graphlab/engine/engine_factory.h"
#include "graphlab/graph/coloring.h"
#include "graphlab/graph/generators.h"
#include "graphlab/graph/partition.h"
#include "graphlab/rpc/runtime.h"
#include "tests/transport_param.h"

namespace graphlab {
namespace {

bool IsLocalEngine(const std::string& name) {
  for (const std::string& n : ListLocalEngineNames()) {
    if (n == name) return true;
  }
  return false;
}

/// Runs an update function through CreateEngine(`name`) over a copy of
/// `global` — locally or on a `machines`-wide simulated cluster — and
/// returns the converged global graph.  The update-function builders
/// receive the graph instance they will run on, so they can bind
/// graph-coupled state.
template <typename V, typename E>
LocalGraph<V, E> RunThroughFactory(
    const std::string& name, const LocalGraph<V, E>& global_in,
    size_t machines,
    const std::function<UpdateFn<LocalGraph<V, E>>(LocalGraph<V, E>*)>&
        make_local_update,
    const std::function<UpdateFn<DistributedGraph<V, E>>(
        DistributedGraph<V, E>*)>& make_dist_update,
    EngineOptions opts = {},
    rpc::TransportKind kind = rpc::TransportKind::kInProcess) {
  LocalGraph<V, E> global = global_in;
  if (IsLocalEngine(name)) {
    auto engine = std::move(CreateEngine(name, &global, opts).value());
    EXPECT_EQ(engine->name(), name);
    engine->SetUpdateFn(make_local_update(&global));
    engine->ScheduleAll();
    RunResult r = engine->Start();
    EXPECT_GT(r.updates, 0u);
    return global;
  }

  using Graph = DistributedGraph<V, E>;
  GraphStructure structure = global.Structure();
  ColorAssignment colors = GreedyColoring(structure);
  PartitionAssignment atom_of =
      RandomPartition(structure.num_vertices, machines, 9);
  std::vector<rpc::MachineId> placement(machines);
  for (size_t m = 0; m < machines; ++m) placement[m] = m;

  rpc::Runtime runtime(testutil::ClusterFor(kind, machines, /*latency=*/100));
  testutil::ClusterAllreduce allreduce(&runtime, 1);
  std::vector<Graph> graphs(machines);
  runtime.Run([&](rpc::MachineContext& ctx) {
    Graph& graph = graphs[ctx.id];
    ASSERT_TRUE(graph
                    .InitFromGlobal(global, atom_of, colors, placement,
                                    ctx.id, &ctx.comm())
                    .ok());
    ctx.barrier().Wait(ctx.id);
    DistributedEngineDeps<V, E> deps;
    deps.allreduce = &allreduce.at(ctx.id);
    auto engine =
        std::move(CreateEngine(name, ctx, &graph, opts, deps).value());
    EXPECT_EQ(engine->name(), name);
    engine->SetUpdateFn(make_dist_update(&graph));
    engine->ScheduleAll();
    RunResult r = engine->Start();
    if (ctx.id == 0) {
      EXPECT_GT(r.updates, 0u);
    }
  });
  for (Graph& graph : graphs) {
    for (LocalVid l : graph.owned_vertices()) {
      global.vertex_data(graph.Gvid(l)) = graph.vertex_data(l);
    }
  }
  return global;
}

// ---------------------------------------------------------------------
// PageRank: every engine vs the exact solution
// ---------------------------------------------------------------------

class EngineEquivalenceTest : public ::testing::TestWithParam<std::string> {};

TEST_P(EngineEquivalenceTest, PageRankConvergesToExactFixedPoint) {
  const std::string name = GetParam();
  auto structure = gen::PowerLawWeb(800, 5, 0.8, 55);
  auto global = apps::BuildPageRankGraph(structure);
  auto exact = apps::ExactPageRank(global);

  auto converged = RunThroughFactory<apps::PageRankVertex,
                                     apps::PageRankEdge>(
      name, global, /*machines=*/2,
      [](apps::PageRankGraph*) {
        return apps::MakePageRankUpdateFn<apps::PageRankGraph>(0.85, 1e-8);
      },
      [](DistributedGraph<apps::PageRankVertex, apps::PageRankEdge>*) {
        return apps::MakePageRankUpdateFn<
            DistributedGraph<apps::PageRankVertex, apps::PageRankEdge>>(
            0.85, 1e-8);
      });

  double err = 0.0;
  for (VertexId v = 0; v < structure.num_vertices; ++v) {
    err += std::fabs(converged.vertex_data(v).rank - exact[v]);
  }
  EXPECT_LT(err, 1e-2) << "engine " << name
                       << " left the PageRank fixed point";
}

// ---------------------------------------------------------------------
// Loopy BP: every engine vs the shared-memory reference
// ---------------------------------------------------------------------

TEST_P(EngineEquivalenceTest, LoopyBpAgreesWithSharedMemoryReference) {
  const std::string name = GetParam();
  auto structure = gen::Grid2D(12, 12);
  auto global = apps::BuildMrf(structure, 2, /*noise=*/0.1,
                               /*evidence_strength=*/1.5, 99);
  auto run = [&](const std::string& engine_name, size_t machines) {
    return RunThroughFactory<apps::BpVertex, apps::BpEdge>(
        engine_name, global, machines,
        [](apps::BpGraph*) {
          return apps::MakeBpUpdateFn<apps::BpGraph>(
              apps::PottsPotential{1.0}, 1e-6);
        },
        [](DistributedGraph<apps::BpVertex, apps::BpEdge>*) {
          return apps::MakeBpUpdateFn<
              DistributedGraph<apps::BpVertex, apps::BpEdge>>(
              apps::PottsPotential{1.0}, 1e-6);
        });
  };

  auto reference = run("shared_memory", 1);
  // BP keeps its messages on edges, and the bulk-sync exchange replicates
  // edges per machine without a serializing order — run that strategy
  // single-machine, where its superstep semantics are exact.
  size_t machines = name == std::string("bulk_sync") ? 1 : 2;
  auto converged = run(name, machines);

  double max_diff = 0.0;
  for (VertexId v = 0; v < structure.num_vertices; ++v) {
    const auto& a = reference.vertex_data(v).belief;
    const auto& b = converged.vertex_data(v).belief;
    ASSERT_EQ(a.size(), b.size());
    for (size_t s = 0; s < a.size(); ++s) {
      max_diff = std::max(max_diff, std::fabs(a[s] - b[s]));
    }
  }
  EXPECT_LT(max_diff, 5e-2) << "engine " << name
                            << " diverged from the reference beliefs";
}

// The parameter list is the factory's own name list: adding an engine
// automatically enrolls it in the equivalence suite.
INSTANTIATE_TEST_SUITE_P(AllEngines, EngineEquivalenceTest,
                         ::testing::ValuesIn(ListEngineNames()));

// ---------------------------------------------------------------------
// Transport equivalence: the same computation over the simulated
// interconnect and over real TCP loopback sockets.
//
// The barrier-synchronized strategies (chromatic color-steps, bulk-sync
// supersteps) are DETERMINISTIC at one worker thread: neighbors only
// read ghosts after the communication barrier, so the result is a pure
// function of (graph, partition, colors) — the transport may only change
// timing.  With the canonical little-endian wire encoding, the converged
// state must therefore be BIT-IDENTICAL across backends.  The locking
// engine is schedule-dependent, so it gets the convergence bar instead.
// ---------------------------------------------------------------------

class TransportEquivalenceTest
    : public ::testing::TestWithParam<std::string> {};

TEST_P(TransportEquivalenceTest, DeterministicEnginesBitIdenticalAcrossBackends) {
  const std::string name = GetParam();
  using V = apps::PageRankVertex;
  using E = apps::PageRankEdge;
  using DistGraph = DistributedGraph<V, E>;
  auto structure = gen::PowerLawWeb(400, 5, 0.8, 21);
  auto global = apps::BuildPageRankGraph(structure);
  EngineOptions opts;
  opts.num_threads = 1;  // single worker => deterministic batch order

  auto run = [&](rpc::TransportKind kind) {
    return RunThroughFactory<V, E>(
        name, global, /*machines=*/3,
        [](apps::PageRankGraph*) {
          return apps::MakePageRankUpdateFn<apps::PageRankGraph>(0.85, 1e-8);
        },
        [](DistGraph*) {
          return apps::MakePageRankUpdateFn<DistGraph>(0.85, 1e-8);
        },
        opts, kind);
  };
  auto sim = run(rpc::TransportKind::kInProcess);
  auto tcp = run(rpc::TransportKind::kTcp);
  for (VertexId v = 0; v < structure.num_vertices; ++v) {
    ASSERT_EQ(sim.vertex_data(v).rank, tcp.vertex_data(v).rank)
        << "engine " << name << ": vertex " << v
        << " differs between transports (bit-exactness broken)";
  }
}

INSTANTIATE_TEST_SUITE_P(BarrierEngines, TransportEquivalenceTest,
                         ::testing::Values("chromatic", "bulk_sync"));

class LockingTransportTest
    : public ::testing::TestWithParam<rpc::TransportKind> {};

TEST_P(LockingTransportTest, LockingPageRankConvergesOnBothBackends) {
  auto structure = gen::PowerLawWeb(500, 5, 0.8, 55);
  auto global = apps::BuildPageRankGraph(structure);
  auto exact = apps::ExactPageRank(global);
  using V = apps::PageRankVertex;
  using E = apps::PageRankEdge;
  using DistGraph = DistributedGraph<V, E>;

  auto converged = RunThroughFactory<V, E>(
      "locking", global, /*machines=*/3,
      [](apps::PageRankGraph*) {
        return apps::MakePageRankUpdateFn<apps::PageRankGraph>(0.85, 1e-8);
      },
      [](DistGraph*) {
        return apps::MakePageRankUpdateFn<DistGraph>(0.85, 1e-8);
      },
      EngineOptions{}, GetParam());

  double err = 0.0;
  for (VertexId v = 0; v < structure.num_vertices; ++v) {
    err += std::fabs(converged.vertex_data(v).rank - exact[v]);
  }
  EXPECT_LT(err, 1e-2) << "locking engine over "
                       << rpc::TransportKindName(GetParam())
                       << " left the PageRank fixed point";
}

INSTANTIATE_TEST_SUITE_P(Transports, LockingTransportTest,
                         ::testing::ValuesIn(testutil::kAllTransports),
                         testutil::KindParamName);

}  // namespace
}  // namespace graphlab
