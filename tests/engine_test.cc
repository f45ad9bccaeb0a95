// Integration tests for the execution engines: shared-memory, chromatic,
// locking — all running PageRank to convergence and checked against the
// exact power-iteration solution; plus scheduler unit tests, the
// CreateEngine/CreateScheduler factories' error paths and name listings,
// consistency model enforcement, and the sync operation.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

#include "graphlab/apps/pagerank.h"
#include "graphlab/engine/allreduce.h"
#include "graphlab/engine/engine_factory.h"
#include "graphlab/engine/shared_memory_engine.h"
#include "graphlab/engine/sync.h"
#include "graphlab/graph/coloring.h"
#include "graphlab/graph/generators.h"
#include "graphlab/graph/partition.h"
#include "graphlab/rpc/runtime.h"
#include "graphlab/rpc/tcp_transport.h"
#include "graphlab/scheduler/scheduler.h"
#include "tests/transport_param.h"

namespace graphlab {
namespace {

using apps::BuildPageRankGraph;
using apps::ExactPageRank;
using apps::MakePageRankUpdateFn;
using apps::PageRankEdge;
using apps::PageRankVertex;

using DPRGraph = DistributedGraph<PageRankVertex, PageRankEdge>;

rpc::ClusterOptions TestCluster(size_t machines, uint64_t latency_us = 0) {
  rpc::ClusterOptions o;
  o.num_machines = machines;
  o.comm.latency = std::chrono::microseconds(latency_us);
  return o;
}

// ---------------------------------------------------------------------
// Schedulers
// ---------------------------------------------------------------------

class SchedulerParamTest : public ::testing::TestWithParam<const char*> {};

TEST_P(SchedulerParamTest, SetSemantics) {
  auto sched = std::move(CreateScheduler(GetParam(), 100).value());
  sched->Schedule(5, 1.0);
  sched->Schedule(5, 2.0);  // duplicate collapses
  sched->Schedule(9, 1.0);
  EXPECT_EQ(sched->ApproxSize(), 2u);
  LocalVid v;
  double p;
  std::set<LocalVid> seen;
  while (sched->GetNext(&v, &p)) seen.insert(v);
  EXPECT_EQ(seen, (std::set<LocalVid>{5, 9}));
  EXPECT_TRUE(sched->Empty());
}

TEST_P(SchedulerParamTest, EveryScheduledVertexEventuallyPops) {
  auto sched = std::move(CreateScheduler(GetParam(), 1000).value());
  for (LocalVid v = 0; v < 1000; v += 3) sched->Schedule(v, 1.0);
  std::set<LocalVid> seen;
  LocalVid v;
  double p;
  while (sched->GetNext(&v, &p)) seen.insert(v);
  EXPECT_EQ(seen.size(), 334u);
}

TEST_P(SchedulerParamTest, ClearEmpties) {
  auto sched = std::move(CreateScheduler(GetParam(), 10).value());
  sched->Schedule(1, 1.0);
  sched->Clear();
  EXPECT_TRUE(sched->Empty());
  LocalVid v;
  double p;
  EXPECT_FALSE(sched->GetNext(&v, &p));
}

TEST_P(SchedulerParamTest, RescheduleAfterPopWorks) {
  auto sched = std::move(CreateScheduler(GetParam(), 10).value());
  sched->Schedule(3, 1.0);
  LocalVid v;
  double p;
  ASSERT_TRUE(sched->GetNext(&v, &p));
  sched->Schedule(3, 1.0);
  ASSERT_TRUE(sched->GetNext(&v, &p));
  EXPECT_EQ(v, 3u);
}

INSTANTIATE_TEST_SUITE_P(AllSchedulers, SchedulerParamTest,
                         ::testing::Values("fifo", "sweep", "priority"));

TEST(SchedulerFactoryTest, UnknownNameReturnsInvalidArgument) {
  auto sched = CreateScheduler("no-such-scheduler", 10);
  ASSERT_FALSE(sched.ok());
  EXPECT_EQ(sched.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(sched.status().message().find("no-such-scheduler"),
            std::string::npos);
}

TEST(SchedulerFactoryTest, RoutesThroughEngineOptions) {
  EngineOptions options;
  options.scheduler = "priority";
  auto sched = std::move(CreateScheduler(options, 10).value());
  EXPECT_STREQ(sched->name(), "priority");
}

TEST(PrioritySchedulerTest, PopsHighestFirst) {
  auto sched = std::move(CreateScheduler("priority", 10).value());
  sched->Schedule(1, 1.0);
  sched->Schedule(2, 5.0);
  sched->Schedule(3, 3.0);
  LocalVid v;
  double p;
  ASSERT_TRUE(sched->GetNext(&v, &p));
  EXPECT_EQ(v, 2u);
  EXPECT_EQ(p, 5.0);
  ASSERT_TRUE(sched->GetNext(&v, &p));
  EXPECT_EQ(v, 3u);
}

TEST(PrioritySchedulerTest, MergeKeepsMaxPriority) {
  auto sched = std::move(CreateScheduler("priority", 10).value());
  sched->Schedule(1, 2.0);
  sched->Schedule(1, 7.0);
  sched->Schedule(2, 5.0);
  LocalVid v;
  double p;
  ASSERT_TRUE(sched->GetNext(&v, &p));
  EXPECT_EQ(v, 1u);
  EXPECT_EQ(p, 7.0);
}

// ---------------------------------------------------------------------
// Engine factory error paths
// ---------------------------------------------------------------------

TEST(EngineFactoryTest, UnknownLocalEngineReturnsInvalidArgument) {
  auto structure = gen::Grid2D(3, 3);
  auto g = BuildPageRankGraph(structure);
  auto engine = CreateEngine("no-such-engine", &g, EngineOptions{});
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineFactoryTest, BadSchedulerNameSurfacesAsStatus) {
  auto structure = gen::Grid2D(3, 3);
  auto g = BuildPageRankGraph(structure);
  EngineOptions options;
  options.scheduler = "no-such-scheduler";
  auto engine = CreateEngine("shared_memory", &g, options);
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineFactoryTest, ZeroThreadsRejected) {
  auto structure = gen::Grid2D(3, 3);
  auto g = BuildPageRankGraph(structure);
  EngineOptions options;
  options.num_threads = 0;
  auto engine = CreateEngine("shared_memory", &g, options);
  ASSERT_FALSE(engine.ok());
}

TEST(EngineFactoryTest, UnfinalizedGraphRejected) {
  apps::PageRankGraph g;
  g.AddVertices(4);
  auto engine = CreateEngine("shared_memory", &g, EngineOptions{});
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument);
}

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

  auto g = BuildPageRankGraph(gen::Grid2D(3, 3));
  auto engine = CreateEngine("bogus", &g, EngineOptions{});
  ASSERT_FALSE(engine.ok());
  for (const std::string& name : ListLocalEngineNames()) {
    EXPECT_NE(engine.status().ToString().find(name), std::string::npos);
  }
}

// ---------------------------------------------------------------------
// Shared-memory engine (selected through the factory)
// ---------------------------------------------------------------------

TEST(SharedMemoryEngineTest, PageRankConvergesToExact) {
  auto structure = gen::PowerLawWeb(2000, 6, 0.8, 11);
  auto g = BuildPageRankGraph(structure);
  auto exact = ExactPageRank(g);

  EngineOptions opts;
  opts.num_threads = 4;
  opts.scheduler = "fifo";
  auto engine = std::move(CreateEngine("shared_memory", &g, opts).value());
  EXPECT_STREQ(engine->name(), "shared_memory");
  engine->SetUpdateFn(MakePageRankUpdateFn<apps::PageRankGraph>(0.85, 1e-9));
  engine->ScheduleAll();
  RunResult result = engine->Start();
  EXPECT_GT(result.updates, structure.num_vertices);
  EXPECT_EQ(engine->last_result().updates, result.updates);
  EXPECT_EQ(engine->metrics().updates, result.updates);
  EXPECT_LT(apps::PageRankL1Error(g, exact), 1e-3);
}

// Busy time is the workers' CPU time, read once per worker per run: more
// than nothing, and no more than the run's wall time per worker.  A 10 us
// spinning update keeps the workers near that ceiling.
TEST(SharedMemoryEngineTest, BusyTimeIsWorkerCpuWithinTheRun) {
  for (size_t threads : {1, 2}) {
    SCOPED_TRACE("num_threads " + std::to_string(threads));
    auto g = BuildPageRankGraph(gen::PowerLawWeb(600, 5, 0.8, 21));
    EngineOptions opts;
    opts.num_threads = threads;
    opts.scheduler = "fifo";
    auto engine = std::move(CreateEngine("shared_memory", &g, opts).value());
    auto update = MakePageRankUpdateFn<apps::PageRankGraph>(0.85, 1e-7);
    engine->SetUpdateFn([update](Context<apps::PageRankGraph>& c) {
      const auto until =
          std::chrono::steady_clock::now() + std::chrono::microseconds(10);
      while (std::chrono::steady_clock::now() < until) {
      }
      update(c);
    });
    engine->ScheduleAll();
    RunResult r = engine->Start();
    EXPECT_GT(r.busy_seconds, 0.0);
    EXPECT_LE(r.busy_seconds, r.seconds * threads + 1e-3);
  }
}

TEST(SharedMemoryEngineTest, DynamicDoesFewerUpdatesThanUniform) {
  auto structure = gen::PowerLawWeb(2000, 6, 0.8, 12);

  auto run_with_tol = [&](double tol) {
    auto g = BuildPageRankGraph(structure);
    EngineOptions opts;
    opts.num_threads = 2;
    auto engine = std::move(CreateEngine("shared_memory", &g, opts).value());
    engine->SetUpdateFn(MakePageRankUpdateFn<apps::PageRankGraph>(0.85, tol));
    engine->ScheduleAll();
    return engine->Start().updates;
  };
  // Tight tolerance does strictly more updates than loose tolerance.
  EXPECT_GT(run_with_tol(1e-8), run_with_tol(1e-2));
}

TEST(SharedMemoryEngineTest, UpdateCountingWorks) {
  auto structure = gen::PowerLawWeb(500, 4, 0.8, 13);
  auto g = BuildPageRankGraph(structure);
  auto engine =
      std::move(CreateEngine("shared_memory", &g, EngineOptions{}).value());
  engine->EnableUpdateCounting();
  engine->SetUpdateFn(MakePageRankUpdateFn<apps::PageRankGraph>(0.85, 1e-4));
  engine->ScheduleAll();
  RunResult r = engine->Start();
  uint64_t counted = 0;
  for (uint32_t c : engine->update_counts()) counted += c;
  EXPECT_EQ(counted, r.updates);
  // Every vertex ran at least once.
  for (uint32_t c : engine->update_counts()) EXPECT_GE(c, 1u);
}

TEST(SharedMemoryEngineTest, MaxUpdatesSlicesRun) {
  // Direct construction (the factory is a convenience, not a requirement)
  // plus the slicing path of Start().
  auto structure = gen::PowerLawWeb(500, 4, 0.8, 14);
  auto g = BuildPageRankGraph(structure);
  EngineOptions opts;
  opts.num_threads = 1;
  SharedMemoryEngine<PageRankVertex, PageRankEdge> engine(&g, opts);
  engine.SetUpdateFn(MakePageRankUpdateFn<apps::PageRankGraph>(0.85, 1e-9));
  engine.ScheduleAll();
  RunResult slice = engine.Start(/*max_updates=*/100);
  EXPECT_LE(slice.updates, 110u);  // small overshoot from in-flight updates
  EXPECT_FALSE(engine.ScheduleEmpty());
  engine.Start();  // drain to convergence
  EXPECT_TRUE(engine.ScheduleEmpty());
}

TEST(SharedMemoryEngineTest, AbortAndJoinDrainsAndStops) {
  auto structure = gen::PowerLawWeb(2000, 6, 0.8, 15);
  auto g = BuildPageRankGraph(structure);
  EngineOptions opts;
  opts.num_threads = 2;
  auto engine = std::move(CreateEngine("shared_memory", &g, opts).value());
  // An update function that keeps rescheduling itself forever.
  engine->SetUpdateFn([](Context<apps::PageRankGraph>& ctx) {
    ctx.ScheduleSelf(1.0);
  });
  engine->ScheduleAll();
  std::thread aborter([&engine] {
    // Abort only after at least one update ran — a fixed sleep flakes
    // under parallel-ctest CPU contention when workers start late.
    Timer deadline;
    while (engine->total_updates() == 0 && deadline.Seconds() < 5.0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    engine->AbortAndJoin();
  });
  RunResult r = engine->Start();
  aborter.join();
  EXPECT_TRUE(engine->aborted());
  EXPECT_GT(r.updates, 0u);
  // Aborted engines drop new schedules and run nothing further.
  engine->ScheduleAll();
  EXPECT_EQ(engine->Start().updates, 0u);
}

TEST(SharedMemoryEngineTest, AbortFromInsideUpdateFunctionReturns) {
  // An update function may abort its own engine (e.g. on detecting
  // convergence); the call must flag-and-return, not self-join.
  auto structure = gen::PowerLawWeb(500, 4, 0.8, 16);
  auto g = BuildPageRankGraph(structure);
  EngineOptions opts;
  opts.num_threads = 2;
  auto engine = std::move(CreateEngine("shared_memory", &g, opts).value());
  std::atomic<uint64_t> executed{0};
  IEngine<apps::PageRankGraph>* raw = engine.get();
  engine->SetUpdateFn([&executed, raw](Context<apps::PageRankGraph>& ctx) {
    ctx.ScheduleSelf(1.0);  // would run forever without the abort
    if (executed.fetch_add(1) == 200) raw->AbortAndJoin();
  });
  engine->ScheduleAll();
  RunResult r = engine->Start();  // must return, not deadlock
  EXPECT_TRUE(engine->aborted());
  EXPECT_GT(r.updates, 200u);
}

// ---------------------------------------------------------------------
// Distributed engines on PageRank
// ---------------------------------------------------------------------

struct DistributedPageRankResult {
  double l1_error = 0.0;
  uint64_t updates = 0;
  std::vector<RunResult> per_machine;  // each machine's own Start() result
};

/// Runs distributed PageRank on `machines` machines with the given engine
/// kind ("chromatic" or "locking") and returns the error vs exact.  A
/// nonzero `spin` holds the worker that long in every update.
DistributedPageRankResult RunDistributedPageRank(
    const std::string& kind, size_t machines, uint64_t latency_us,
    size_t num_threads = 2,
    std::chrono::microseconds spin = std::chrono::microseconds(0)) {
  auto structure = gen::PowerLawWeb(1500, 5, 0.8, 21);
  auto global = BuildPageRankGraph(structure);
  auto exact = ExactPageRank(global);
  auto colors = GreedyColoring(structure);
  auto atom_of = RandomPartition(structure.num_vertices, machines, 3);
  std::vector<rpc::MachineId> placement(machines);
  for (size_t i = 0; i < machines; ++i) placement[i] = i;

  rpc::Runtime runtime(TestCluster(machines, latency_us));
  SumAllReduce allreduce(&runtime.comm(), 1);
  std::vector<DPRGraph> graphs(machines);
  std::atomic<uint64_t> total_updates{0};
  std::vector<RunResult> per_machine(machines);

  runtime.Run([&](rpc::MachineContext& ctx) {
    DPRGraph& graph = graphs[ctx.id];
    ASSERT_TRUE(graph
                    .InitFromGlobal(global, atom_of, colors, placement,
                                    ctx.id, &ctx.comm())
                    .ok());
    ctx.barrier().Wait(ctx.id);
    EngineOptions opts;
    opts.num_threads = num_threads;
    opts.max_pipeline_length = 64;
    opts.scheduler = "fifo";
    DistributedEngineDeps<PageRankVertex, PageRankEdge> deps;
    deps.allreduce = &allreduce;
    auto engine =
        std::move(CreateEngine(kind, ctx, &graph, opts, deps).value());
    auto update = MakePageRankUpdateFn<DPRGraph>(0.85, 1e-7);
    engine->SetUpdateFn([update, spin](Context<DPRGraph>& c) {
      const auto until = std::chrono::steady_clock::now() + spin;
      while (std::chrono::steady_clock::now() < until) {
      }
      update(c);
    });
    engine->ScheduleAll();
    RunResult result = engine->Start();
    if (ctx.id == 0) total_updates.store(result.updates);
    per_machine[ctx.id] = result;
  });

  // Gather ranks from the owners and compare against exact.
  DistributedPageRankResult out;
  out.updates = total_updates.load();
  out.per_machine = std::move(per_machine);
  std::vector<double> ranks(structure.num_vertices, 0.0);
  for (auto& graph : graphs) {
    for (LocalVid l : graph.owned_vertices()) {
      ranks[graph.Gvid(l)] = graph.vertex_data(l).rank;
    }
  }
  for (VertexId v = 0; v < structure.num_vertices; ++v) {
    out.l1_error += std::fabs(ranks[v] - exact[v]);
  }
  return out;
}

TEST(ChromaticEngineTest, DistributedPageRankMatchesExact) {
  auto result = RunDistributedPageRank("chromatic", 4, 0);
  EXPECT_GT(result.updates, 1500u);
  EXPECT_LT(result.l1_error, 1e-2);
}

TEST(ChromaticEngineTest, WorksWithLatency) {
  auto result = RunDistributedPageRank("chromatic", 3, 100);
  EXPECT_LT(result.l1_error, 1e-2);
}

TEST(ChromaticEngineTest, SingleMachineDegenerate) {
  auto result = RunDistributedPageRank("chromatic", 1, 0);
  EXPECT_LT(result.l1_error, 1e-2);
}

// Busy time is the workers' CPU time inside colour-step batches: above
// zero on a machine that ran updates, and never more than its workers
// could burn in the run's wall time.  The spinning update keeps busy
// time close to that ceiling, so a batch chunk that loses its
// busy-clock pair fails the first bound and one that counts it twice
// the second.
TEST(ChromaticEngineTest, BusyTimeIsWorkerCpuWithinTheRun) {
  for (size_t threads : {1, 2}) {
    SCOPED_TRACE("num_threads " + std::to_string(threads));
    auto result = RunDistributedPageRank("chromatic", 2, 0, threads,
                                         std::chrono::microseconds(10));
    ASSERT_EQ(result.per_machine.size(), 2u);
    for (const RunResult& r : result.per_machine) {
      EXPECT_GT(r.busy_seconds, 0.0);
      EXPECT_LE(r.busy_seconds, r.seconds * threads + 1e-3);
    }
  }
}

TEST(LockingEngineTest, DistributedPageRankMatchesExact) {
  auto result = RunDistributedPageRank("locking", 4, 0);
  EXPECT_GT(result.updates, 1500u);
  EXPECT_LT(result.l1_error, 1e-2);
}

TEST(LockingEngineTest, BusyTimeIsWorkerCpuWithinTheRun) {
  for (size_t threads : {1, 2}) {
    SCOPED_TRACE("num_threads " + std::to_string(threads));
    auto result = RunDistributedPageRank("locking", 2, 0, threads,
                                         std::chrono::microseconds(10));
    ASSERT_EQ(result.per_machine.size(), 2u);
    for (const RunResult& r : result.per_machine) {
      EXPECT_GT(r.busy_seconds, 0.0);
      EXPECT_LE(r.busy_seconds, r.seconds * threads + 1e-3);
    }
  }
}

TEST(LockingEngineTest, WorksWithLatency) {
  auto result = RunDistributedPageRank("locking", 3, 100);
  EXPECT_LT(result.l1_error, 1e-2);
}

TEST(LockingEngineTest, SingleMachineDegenerate) {
  auto result = RunDistributedPageRank("locking", 1, 0);
  EXPECT_LT(result.l1_error, 1e-2);
}

TEST(LockingEngineTest, DeepPipelineStillCorrect) {
  auto structure = gen::PowerLawWeb(800, 5, 0.8, 22);
  auto global = BuildPageRankGraph(structure);
  auto exact = ExactPageRank(global);
  auto colors = GreedyColoring(structure);
  auto atom_of = RandomPartition(structure.num_vertices, 3, 4);
  std::vector<rpc::MachineId> placement = {0, 1, 2};

  rpc::Runtime runtime(TestCluster(3, 50));
  SumAllReduce allreduce(&runtime.comm(), 1);
  std::vector<DPRGraph> graphs(3);
  runtime.Run([&](rpc::MachineContext& ctx) {
    DPRGraph& graph = graphs[ctx.id];
    ASSERT_TRUE(graph
                    .InitFromGlobal(global, atom_of, colors, placement,
                                    ctx.id, &ctx.comm())
                    .ok());
    ctx.barrier().Wait(ctx.id);
    EngineOptions opts;
    opts.num_threads = 2;
    opts.max_pipeline_length = 2000;
    opts.scheduler = "priority";
    DistributedEngineDeps<PageRankVertex, PageRankEdge> deps;
    deps.allreduce = &allreduce;
    auto engine =
        std::move(CreateEngine("locking", ctx, &graph, opts, deps).value());
    engine->SetUpdateFn(MakePageRankUpdateFn<DPRGraph>(0.85, 1e-7));
    engine->ScheduleAll();
    engine->Start();
  });
  double err = 0;
  for (auto& graph : graphs) {
    for (LocalVid l : graph.owned_vertices()) {
      err += std::fabs(graph.vertex_data(l).rank - exact[graph.Gvid(l)]);
    }
  }
  EXPECT_LT(err, 1e-2);
}

// ---------------------------------------------------------------------
// Chromatic step-end exchange: one frame per peer per color-step,
// schedule forwards riding it
// ---------------------------------------------------------------------

// Complete bipartite graph K(4, 32), every side-B vertex pointing at every
// side-A vertex.  Side A (gvids 0-3, color 0) lives on machine 0 and side
// B (gvids 4-35, color 1) is split evenly over the other machines, so
// machine 0 ghosts all of side B, every other machine ghosts side A, and
// no two side-B machines share a vertex.
constexpr VertexId kSideA = 4;
constexpr VertexId kSideB = 32;

GraphStructure BipartiteStructure() {
  GraphStructure structure;
  structure.num_vertices = kSideA + kSideB;
  for (VertexId b = kSideA; b < kSideA + kSideB; ++b) {
    for (VertexId a = 0; a < kSideA; ++a) structure.edges.push_back({b, a});
  }
  return structure;
}

/// What the `drive` callback gets on each machine.
struct BipartiteMachine {
  rpc::MachineContext& ctx;
  IEngine<DPRGraph>& engine;
  DPRGraph& graph;
  SumAllReduce& allreduce;
};
using BipartiteDrive = std::function<void(BipartiteMachine&)>;

/// Runs one job on the bipartite graph, on the chromatic engine unless
/// `kind` names another.  `drive` runs on each machine once the engines
/// exist, behind a barrier, and must call Start(); `hook`, when set, is
/// the sweep-boundary hook.  Returns machine 0's per-vertex update counts,
/// indexed by gvid (all zero on engines that do not count updates).
std::vector<uint32_t> RunBipartite(
    const rpc::ClusterOptions& cluster, const EngineOptions& opts,
    const BipartiteDrive& drive, const UpdateFn<DPRGraph>& update,
    const std::function<Status(rpc::MachineContext&, uint64_t)>& hook =
        nullptr,
    const std::string& kind = "chromatic") {
  const size_t machines = cluster.num_machines;
  auto global = BuildPageRankGraph(BipartiteStructure());
  PartitionAssignment atom_of(kSideA + kSideB, 0);
  ColorAssignment colors(kSideA + kSideB, 1);
  for (VertexId a = 0; a < kSideA; ++a) colors[a] = 0;
  for (VertexId b = 0; b < kSideB; ++b) {
    atom_of[kSideA + b] = 1 + b * (machines - 1) / kSideB;
  }
  std::vector<rpc::MachineId> placement(machines);
  for (size_t m = 0; m < machines; ++m) placement[m] = m;

  rpc::Runtime runtime(cluster);
  testutil::ClusterAllreduce allreduce(&runtime, 1);
  std::vector<DPRGraph> graphs(machines);
  std::vector<uint32_t> counts(kSideA + kSideB, 0);
  runtime.Run([&](rpc::MachineContext& ctx) {
    DPRGraph& graph = graphs[ctx.id];
    ASSERT_TRUE(graph
                    .InitFromGlobal(global, atom_of, colors, placement,
                                    ctx.id, &ctx.comm())
                    .ok());
    DistributedEngineDeps<PageRankVertex, PageRankEdge> deps;
    deps.allreduce = &allreduce.at(ctx.id);
    auto engine =
        std::move(CreateEngine(kind, ctx, &graph, opts, deps).value());
    engine->SetUpdateFn(update);
    engine->EnableUpdateCounting();
    if (hook) {
      engine->SetBoundaryHook(
          [&ctx, &hook](uint64_t boundary) { return hook(ctx, boundary); });
    }
    ctx.barrier().Wait(ctx.id);
    BipartiteMachine machine{ctx, *engine, graph, allreduce.at(ctx.id)};
    drive(machine);
    if (ctx.id == 0 && !engine->update_counts().empty()) {
      for (LocalVid l : graph.owned_vertices()) {
        counts[graph.Gvid(l)] = engine->update_counts()[l];
      }
    }
  });
  return counts;
}

/// Wire bytes of one message carrying `payload` bytes.
uint64_t WireBytes(rpc::TransportKind kind, uint64_t payload) {
  return payload + (kind == rpc::TransportKind::kTcp
                        ? rpc::kTcpFrameHeaderBytes
                        : rpc::kMessageHeaderBytes);
}

class ChromaticStepEndTest
    : public ::testing::TestWithParam<rpc::TransportKind> {};

// Every B vertex (machine 1) schedules the same machine-0 ghost in one
// color-step: the forward rides that step's step-end frame as one more
// gvid, adding no message.  Measured as machine 1's traffic to machine 0
// up to the end of sweep 1, against an otherwise identical run that
// schedules nothing.
TEST_P(ChromaticStepEndTest, OneFramePerPeerPerColorStep) {
  struct Traffic {
    uint64_t messages = 0;
    uint64_t bytes = 0;
  };
  auto run = [&](bool schedule_a0) {
    Traffic traffic;
    EngineOptions opts;
    opts.num_threads = 2;
    auto counts = RunBipartite(
        testutil::ClusterFor(GetParam(), 2), opts,
        [](BipartiteMachine& m) {
          if (m.ctx.id == 1) m.engine.ScheduleAll();
          m.engine.Start();
        },
        [schedule_a0](Context<DPRGraph>& c) {
          if (schedule_a0 && c.vertex_id() >= kSideA) {
            c.Schedule(c.graph().Lvid(0));
          }
        },
        [&traffic](rpc::MachineContext& ctx, uint64_t boundary) {
          if (ctx.id == 1 && boundary == 1) {
            auto& registry = ctx.comm().registry(ctx.id);
            traffic.messages = registry.counter("rpc.to.0.messages")->Value();
            traffic.bytes = registry.counter("rpc.to.0.bytes")->Value();
          }
          return Status::OK();
        });
    EXPECT_EQ(counts[0], schedule_a0 ? 1u : 0u);
    for (VertexId a = 1; a < kSideA; ++a) EXPECT_EQ(counts[a], 0u);
    return traffic;
  };
  const Traffic quiet = run(false);
  const Traffic forwarded = run(true);
  EXPECT_EQ(forwarded.messages, quiet.messages);
  EXPECT_EQ(forwarded.bytes - quiet.bytes, sizeof(VertexId));
}

// The whole per-run message budget of a job whose updates write nothing:
// every machine sends each peer exactly one step-end frame (a bare u64
// generation) per color-step plus the opening exchange, and the only
// other traffic is the run's barriers and sweep decisions through machine
// 0 — no barrier or quiescence traffic per step.  Machines 1 and 2 share no
// vertex, so their channel carries step-end frames alone.
TEST_P(ChromaticStepEndTest, EachMachineSendsOneFramePerPeerPerColorStep) {
  constexpr size_t kMachines = 3;
  constexpr uint64_t kSweeps = 3;
  EngineOptions opts;
  opts.num_threads = 1;
  opts.max_sweeps = kSweeps;
  std::vector<std::vector<uint64_t>> messages(
      kMachines, std::vector<uint64_t>(kMachines, 0));
  std::vector<std::vector<uint64_t>> bytes = messages;
  ColorId colors = 0;
  RunBipartite(
      testutil::ClusterFor(GetParam(), kMachines), opts,
      [&](BipartiteMachine& m) {
        m.engine.ScheduleAll();
        m.engine.Start();
        const rpc::MachineId me = m.ctx.id;
        if (me == 0) colors = m.graph.num_colors();
        auto& registry = m.ctx.comm().registry(me);
        for (size_t p = 0; p < kMachines; ++p) {
          const std::string to = "rpc.to." + std::to_string(p);
          messages[me][p] = registry.counter(to + ".messages")->Value();
          bytes[me][p] = registry.counter(to + ".bytes")->Value();
        }
      },
      [](Context<DPRGraph>& c) { c.Schedule(c.lvid()); });
  ASSERT_EQ(colors, 2u);
  const uint64_t frames = 1 + colors * kSweeps;
  // Two barriers (RunBipartite's and Start()'s), one allreduce per sweep
  // and the closing update-total allreduce: one message each way apiece.
  const uint64_t control = 2 + kSweeps + 1;
  for (size_t m = 0; m < kMachines; ++m) {
    for (size_t p = 0; p < kMachines; ++p) {
      if (m == p) continue;
      SCOPED_TRACE("machine " + std::to_string(m) + " -> " +
                   std::to_string(p));
      const bool via_master = m == 0 || p == 0;
      EXPECT_EQ(messages[m][p], frames + (via_master ? control : 0));
      if (!via_master) {
        EXPECT_EQ(bytes[m][p], frames * WireBytes(GetParam(), 8));
      }
    }
  }
}

// The step-end decoder takes a frame whole or not at all.  Between two
// runs of one engine, machine 1 sends machine 0 a corpus of bad frames:
// empty, a torn generation, stale / +2 / UINT64_MAX generations, and
// frames of the expected generation with a torn gvid, a gvid unknown here
// or a ghost here.  None may schedule a vertex or stand in for machine
// 1's real frame: all are dropped, and the forward machine 1 then ships
// at the second Start() still arrives and runs once.
TEST_P(ChromaticStepEndTest, MalformedForwardFramesDropCleanly) {
  EngineOptions opts;
  opts.num_threads = 1;
  opts.max_sweeps = 1;
  // Run 1 (nothing scheduled, one sweep of two colors) consumes the
  // opening exchange and two step exchanges.
  constexpr uint64_t kNext = 3;
  auto frame = [](uint64_t generation,
                  std::initializer_list<VertexId> gvids) {
    OutArchive oa;
    oa << generation;
    for (VertexId v : gvids) oa << v;
    return oa;
  };
  uint64_t dropped = 0;
  size_t corpus_size = 0;
  auto counts = RunBipartite(
      testutil::ClusterFor(GetParam(), 2), opts,
      [&](BipartiteMachine& m) {
        rpc::MachineContext& ctx = m.ctx;
        m.engine.Start();
        if (ctx.id == 1) {
          std::vector<OutArchive> corpus;
          corpus.push_back(OutArchive());              // empty frame
          corpus.emplace_back();                       // torn generation
          corpus.back() << uint8_t{0} << uint16_t{3};
          corpus.push_back(frame(kNext - 1, {1}));     // stale
          corpus.push_back(frame(kNext + 1, {1}));     // last seen + 2
          corpus.push_back(frame(UINT64_MAX, {1}));
          corpus.push_back(frame(kNext, {1}));         // torn gvid
          corpus.back() << uint8_t{7} << uint8_t{7};
          corpus.push_back(frame(kNext, {2, 9999}));   // unknown gvid
          corpus.push_back(frame(kNext, {kSideA, 3}));  // a ghost on 0
          corpus_size = corpus.size();
          for (OutArchive& oa : corpus) {
            ctx.comm().Send(ctx.id, 0, rpc::kFlushRoundHandler,
                            std::move(oa));
          }
        }
        // Round kNext: machine 1's real frame trails the corpus.
        ctx.flush().Run(ctx.id);
        if (ctx.id == 0) {
          dropped = ctx.comm()
                        .registry(0)
                        .counter("rpc.flush_dropped")
                        ->Value();
        }
        // The real forward: gvid 1 rides machine 1's next frame.
        if (ctx.id == 1) m.engine.Schedule(m.graph.Lvid(1));
        m.engine.Start();
      },
      [](Context<DPRGraph>&) {});
  EXPECT_EQ(dropped, corpus_size);
  EXPECT_EQ(counts[0], 0u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 0u);
  EXPECT_EQ(counts[3], 0u);
}

// Machine 2 dies inside its color-1 step while machines 0 and 1 wait for
// its step-end frame.  The death releases their wait, aborts their
// engines, and the run ends at sweep 1's decision through the abort bit;
// without the release the self-rescheduling job would never end.
TEST_P(ChromaticStepEndTest, PeerKilledInStepExchangeReleasesSurvivors) {
  constexpr size_t kMachines = 3;
  constexpr VertexId kVictim = kSideA + kSideB - 1;  // owned by machine 2
  EngineOptions opts;
  opts.num_threads = 1;
  std::atomic<rpc::CommLayer*> victim_comm{nullptr};
  std::atomic<bool> killed{false};
  std::vector<uint8_t> aborted(kMachines, 0);
  std::vector<uint64_t> sweeps(kMachines, 0);
  RunBipartite(
      testutil::ClusterFor(GetParam(), kMachines), opts,
      [&](BipartiteMachine& m) {
        const rpc::MachineId me = m.ctx.id;
        if (me == 2) victim_comm.store(&m.ctx.comm());
        // The dead machine's own sweep decision can never complete: its
        // death cancels its allreduce slot, as the fault runner's abort
        // bundle does in a real deployment.
        rpc::Membership& members = m.ctx.comm().membership();
        SumAllReduce* allreduce = &m.allreduce;
        rpc::Subscription subscription = members.Subscribe(
            [me, allreduce](rpc::MachineId down, uint64_t) {
              if (down == me) allreduce->Cancel(me);
            });
        m.engine.ScheduleAll();
        m.engine.Start();
        subscription = rpc::Subscription();
        aborted[me] = m.engine.aborted();
        sweeps[me] = m.engine.last_result().sweeps;
      },
      [&](Context<DPRGraph>& c) {
        c.Schedule(c.lvid());
        if (c.vertex_id() == kVictim && !killed.exchange(true)) {
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
          victim_comm.load()->InjectKill(2);
        }
      });
  EXPECT_TRUE(killed.load());
  for (size_t m = 0; m < kMachines; ++m) {
    SCOPED_TRACE("machine " + std::to_string(m));
    EXPECT_TRUE(aborted[m]);
    EXPECT_EQ(sweeps[m], 1u);
  }
}

// Machine 0 owns no color-1 vertex, so in color-step 1 it waits for
// machine 1's step-end frame.  Machine 1's update aborts machine 0, then
// blocks until machine 0 reaches its sweep boundary — which only the
// abort can let it do, since machine 1's frame comes after that update.
// The run then ends through machine 0's abort bit.
TEST_P(ChromaticStepEndTest, RequestAbortReleasesWaitingMachine) {
  EngineOptions opts;
  opts.num_threads = 1;
  std::atomic<IEngine<DPRGraph>*> engine0{nullptr};
  std::atomic<bool> fired{false};
  std::mutex mutex;
  std::condition_variable cv;
  bool at_boundary = false;
  bool released_in_time = false;
  std::vector<uint8_t> aborted(2, 0);
  std::vector<uint64_t> sweeps(2, 0);
  RunBipartite(
      testutil::ClusterFor(GetParam(), 2), opts,
      [&](BipartiteMachine& m) {
        if (m.ctx.id == 0) engine0.store(&m.engine);
        m.engine.ScheduleAll();
        m.engine.Start();
        aborted[m.ctx.id] = m.engine.aborted();
        sweeps[m.ctx.id] = m.engine.last_result().sweeps;
      },
      [&](Context<DPRGraph>& c) {
        c.Schedule(c.lvid());
        if (c.vertex_id() == kSideA && !fired.exchange(true)) {
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
          engine0.load()->RequestAbort();
          std::unique_lock<std::mutex> lock(mutex);
          released_in_time = cv.wait_for(lock, std::chrono::seconds(10),
                                         [&] { return at_boundary; });
        }
      },
      [&](rpc::MachineContext& ctx, uint64_t) {
        if (ctx.id == 0) {
          std::lock_guard<std::mutex> lock(mutex);
          at_boundary = true;
          cv.notify_all();
        }
        return Status::OK();
      });
  EXPECT_TRUE(released_in_time);
  EXPECT_TRUE(aborted[0]);
  EXPECT_FALSE(aborted[1]);
  EXPECT_EQ(sweeps[0], 1u);
  EXPECT_EQ(sweeps[1], 1u);
}

INSTANTIATE_TEST_SUITE_P(Transports, ChromaticStepEndTest,
                         ::testing::ValuesIn(testutil::kAllTransports),
                         testutil::KindParamName);

// ---------------------------------------------------------------------
// Locking engine schedule forwards from hostile bytes
// ---------------------------------------------------------------------

class LockingForwardTest
    : public ::testing::TestWithParam<rpc::TransportKind> {};

// Machine 1 sends machine 0 schedule-forward frames no real sender
// produces: empty, a torn triple, a good triple followed by a torn one, a
// gvid unknown on machine 0, and a gvid machine 0 holds only as a ghost
// (as a user and as a snapshot forward).  None may abort or schedule a
// vertex, and none may count as a received task, or termination
// detection could never balance.  The real forward machine 1 then sends
// still arrives and runs once.
TEST_P(LockingForwardTest, MalformedForwardFramesDropCleanly) {
  EngineOptions opts;
  opts.num_threads = 1;
  auto triple = [](OutArchive* oa, VertexId gvid, uint8_t snap = 0) {
    *oa << gvid << 1.0 << snap;
  };
  std::vector<std::atomic<uint32_t>> counts(kSideA + kSideB);
  RunBipartite(
      testutil::ClusterFor(GetParam(), 2), opts,
      [&](BipartiteMachine& m) {
        rpc::MachineContext& ctx = m.ctx;
        if (ctx.id == 1) {
          std::vector<OutArchive> corpus;
          corpus.emplace_back();                     // empty frame
          corpus.emplace_back();                     // torn triple
          corpus.back() << VertexId{1} << 1.0;
          corpus.emplace_back();                     // good, then torn
          triple(&corpus.back(), 2);
          corpus.back() << uint8_t{7} << uint8_t{7};
          corpus.emplace_back();                     // unknown gvid
          triple(&corpus.back(), 9999);
          corpus.emplace_back();                     // a ghost on 0
          triple(&corpus.back(), kSideA);
          corpus.emplace_back();                     // ghost, snapshot
          triple(&corpus.back(), kSideA, 1);
          for (OutArchive& oa : corpus) {
            ctx.comm().Send(ctx.id, 0, kScheduleForwardHandler,
                            std::move(oa));
          }
        }
        ctx.flush().Run(ctx.id);
        if (ctx.id == 1) m.engine.Schedule(m.graph.Lvid(1));
        m.engine.Start();
      },
      [&](Context<DPRGraph>& ctx) { counts[ctx.vertex_id()]++; },
      /*hook=*/nullptr, "locking");
  for (VertexId v = 0; v < kSideA + kSideB; ++v) {
    EXPECT_EQ(counts[v].load(), v == 1 ? 1u : 0u) << "vertex " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Transports, LockingForwardTest,
                         ::testing::ValuesIn(testutil::kAllTransports),
                         testutil::KindParamName);

// ---------------------------------------------------------------------
// Lock manager frames (chain hop 19, grant 20, release 21) from hostile
// bytes
// ---------------------------------------------------------------------

class LockingFrameTest : public ::testing::TestWithParam<rpc::TransportKind> {
};

// Machine 1 sends machine 0 lock frames no real sender produces, before
// any scope request exists: torn and over-long frames, unknown gvids, hop
// chains that do not name machine 0 at their position (or name a machine
// that does not exist, or leave out the vertex's owner), grants for a
// ghost and for an owned vertex nobody requested, and releases of locks
// machine 0 does not hold.  Each must be dropped whole and counted in
// lock.frames_dropped: none may abort, take or release a lock, or run a
// vertex (a vertex run on a stray grant would release locks it never
// held, which aborts).  The real request that follows still completes.
TEST_P(LockingFrameTest, MalformedLockFramesDropCleanly) {
  EngineOptions opts;
  opts.num_threads = 1;
  using Chain = std::vector<rpc::MachineId>;
  auto hop = [](VertexId gvid, uint64_t pos, const Chain& chain) {
    OutArchive oa;
    oa << gvid << 1.0 << pos << chain;
    return oa;
  };
  auto frame = [](auto... fields) {
    OutArchive oa;
    (oa << ... << fields);
    return oa;
  };
  std::vector<std::pair<rpc::HandlerId, OutArchive>> corpus;
  corpus.emplace_back(kLockChainHandler, OutArchive());       // empty
  corpus.emplace_back(kLockChainHandler, frame(VertexId{0}, 1.0));  // torn
  corpus.emplace_back(kLockChainHandler, hop(9999, 0, {0, 1}));  // unknown
  corpus.emplace_back(kLockChainHandler, hop(0, 2, {0, 1}));  // pos range
  corpus.emplace_back(kLockChainHandler, hop(0, 1, {0, 1}));  // names 1
  corpus.emplace_back(kLockChainHandler, hop(0, 1, {1, 0}));  // descending
  corpus.emplace_back(kLockChainHandler, hop(0, 0, {0, 7}));  // no machine 7
  corpus.emplace_back(kLockChainHandler,
                      hop(kSideA, 0, {0}));  // owner 1 not in the chain
  corpus.emplace_back(kLockChainHandler, hop(0, 0, {0, 1}));  // then
  corpus.back().second << uint8_t{7};                          // trailing
  corpus.emplace_back(kLockGrantHandler, OutArchive());        // empty
  corpus.emplace_back(kLockGrantHandler, frame(VertexId{0}));  // torn
  corpus.emplace_back(kLockGrantHandler, frame(VertexId{9999}, 1.0));
  corpus.emplace_back(kLockGrantHandler, frame(kSideA, 1.0));  // a ghost
  corpus.emplace_back(kLockGrantHandler,
                      frame(VertexId{0}, 1.0));  // nothing outstanding
  corpus.emplace_back(kLockReleaseHandler, OutArchive());      // empty
  corpus.emplace_back(kLockReleaseHandler, frame(uint16_t{0}));  // torn
  corpus.emplace_back(kLockReleaseHandler, frame(VertexId{9999}));
  corpus.emplace_back(kLockReleaseHandler, frame(VertexId{0}));  // not held
  corpus.emplace_back(kLockReleaseHandler, frame(kSideA));       // not held
  const uint64_t corpus_size = corpus.size();
  uint64_t dropped = 0;
  std::vector<std::atomic<uint32_t>> counts(kSideA + kSideB);
  RunBipartite(
      testutil::ClusterFor(GetParam(), 2), opts,
      [&](BipartiteMachine& m) {
        rpc::MachineContext& ctx = m.ctx;
        if (ctx.id == 1) {
          for (auto& [handler, oa] : corpus) {
            ctx.comm().Send(ctx.id, 0, handler, std::move(oa));
          }
        }
        ctx.flush().Run(ctx.id);
        if (ctx.id == 0) {
          dropped =
              ctx.comm().registry(0).counter("lock.frames_dropped")->Value();
        }
        // A real request: gvid 1's scope chain runs 0 -> 1 and machine 1
        // grants it back to machine 0.
        if (ctx.id == 1) m.engine.Schedule(m.graph.Lvid(1));
        m.engine.Start();
      },
      [&](Context<DPRGraph>& ctx) { counts[ctx.vertex_id()]++; },
      /*hook=*/nullptr, "locking");
  EXPECT_EQ(dropped, corpus_size);
  for (VertexId v = 0; v < kSideA + kSideB; ++v) {
    EXPECT_EQ(counts[v].load(), v == 1 ? 1u : 0u) << "vertex " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Transports, LockingFrameTest,
                         ::testing::ValuesIn(testutil::kAllTransports),
                         testutil::KindParamName);

// Syncs run between color-steps, on every machine's finished step: with
// sync_interval_steps = 1 the value published after a sweep's last step
// equals the sum taken directly over every owned vertex at that sweep's
// boundary, and the sequence is the same over both transports.
TEST(ChromaticSyncTest, SyncEveryStepSeesTheFinishedStep) {
  auto structure = gen::PowerLawWeb(600, 4, 0.8, 41);
  auto global = BuildPageRankGraph(structure);
  auto colors = GreedyColoring(structure);
  auto atom_of = RandomPartition(structure.num_vertices, 3, 6);
  const std::vector<rpc::MachineId> placement = {0, 1, 2};
  // Integer micro-ranks: the sum does not depend on the order partials
  // reach the coordinator.
  auto micro_rank = [](const DPRGraph& g, LocalVid l) {
    return static_cast<int64_t>(std::llround(g.vertex_data(l).rank * 1e9));
  };

  using Boundary = std::pair<int64_t, int64_t>;  // (published, direct)
  auto run = [&](rpc::TransportKind kind) {
    rpc::Runtime runtime(testutil::ClusterFor(kind, 3));
    testutil::ClusterAllreduce allreduce(&runtime, 1);
    // One sync manager per fabric, as ClusterAllreduce does.
    std::vector<std::unique_ptr<SyncManager<DPRGraph>>> syncs;
    std::vector<SyncManager<DPRGraph>*> sync_of(3);
    for (rpc::MachineId m : runtime.local_machines()) {
      if (kind == rpc::TransportKind::kTcp || syncs.empty()) {
        syncs.push_back(
            std::make_unique<SyncManager<DPRGraph>>(&runtime.comm(m)));
        syncs.back()->Register<int64_t>(
            "micro_rank", int64_t{0},
            [&](const DPRGraph& g, LocalVid l, int64_t* acc) {
              *acc += micro_rank(g, l);
            },
            [](int64_t* a, const int64_t& b) { *a += b; });
      }
      sync_of[m] = syncs.back().get();
    }
    std::vector<DPRGraph> graphs(3);
    std::vector<Boundary> boundaries;
    runtime.Run([&](rpc::MachineContext& ctx) {
      DPRGraph& graph = graphs[ctx.id];
      ASSERT_TRUE(graph
                      .InitFromGlobal(global, atom_of, colors, placement,
                                      ctx.id, &ctx.comm())
                      .ok());
      sync_of[ctx.id]->AttachGraph(ctx.id, &graph);
      ctx.barrier().Wait(ctx.id);
      EngineOptions opts;
      opts.num_threads = 1;
      opts.max_sweeps = 6;
      opts.sync_interval_steps = 1;
      opts.sync_keys = {"micro_rank"};
      DistributedEngineDeps<PageRankVertex, PageRankEdge> deps;
      deps.allreduce = &allreduce.at(ctx.id);
      deps.sync = sync_of[ctx.id];
      auto engine =
          std::move(CreateEngine("chromatic", ctx, &graph, opts, deps).value());
      engine->SetUpdateFn(MakePageRankUpdateFn<DPRGraph>(0.85, 1e-7));
      if (ctx.id == 0) {
        // At a boundary no machine runs updates until the sweep decision,
        // which waits for this hook, so every partition can be read here.
        engine->SetBoundaryHook([&](uint64_t) {
          int64_t direct = 0;
          for (const DPRGraph& g : graphs) {
            for (LocalVid l : g.owned_vertices()) direct += micro_rank(g, l);
          }
          boundaries.emplace_back(
              sync_of[0]->Get<int64_t>("micro_rank", 0), direct);
          return Status::OK();
        });
      }
      engine->ScheduleAll();
      engine->Start();
    });
    return boundaries;
  };
  const std::vector<Boundary> inproc = run(rpc::TransportKind::kInProcess);
  const std::vector<Boundary> tcp = run(rpc::TransportKind::kTcp);
  ASSERT_GE(inproc.size(), 2u);
  for (const Boundary& b : inproc) EXPECT_EQ(b.first, b.second);
  EXPECT_EQ(inproc, tcp);
}

// Sync frames come off the wire: an unknown key, a torn header and a torn
// value are logged and dropped — not a process abort, and not a zero
// folded into the round as a machine's partial.
TEST(ChromaticSyncTest, BadWireFramesAreDropped) {
  auto structure = gen::Grid2D(10, 10);
  auto global = BuildPageRankGraph(structure);
  auto colors = GreedyColoring(structure);
  auto atom_of = BlockPartition(structure.num_vertices, 2);
  std::vector<rpc::MachineId> placement = {0, 1};
  rpc::Runtime runtime(TestCluster(2));
  SyncManager<DPRGraph> sync(&runtime.comm());
  sync.Register<uint64_t>(
      "count", uint64_t{0},
      [](const DPRGraph&, LocalVid, uint64_t* acc) { *acc += 1; },
      [](uint64_t* a, const uint64_t& b) { *a += b; });
  std::vector<DPRGraph> graphs(2);
  const LogLevel saved_level = GetLogLevel();
  SetLogLevel(LogLevel::kFatal);
  runtime.Run([&](rpc::MachineContext& ctx) {
    ASSERT_TRUE(graphs[ctx.id]
                    .InitFromGlobal(global, atom_of, colors, placement,
                                    ctx.id, &ctx.comm())
                    .ok());
    sync.AttachGraph(ctx.id, &graphs[ctx.id]);
    ctx.barrier().Wait(ctx.id);
    if (ctx.id == 1) {
      // Each frame goes to the coordinator as a partial and back to this
      // machine as a publish, ahead of the real partial on the channel.
      std::vector<OutArchive> frames(4);
      frames[0] << std::string("no_such_op") << uint64_t{1} << uint64_t{5};
      frames[1] << std::string("count") << uint64_t{1} << uint32_t{5};
      frames[2] << std::string("count");
      frames[3] << uint64_t{1} << std::string("count");
      for (const OutArchive& frame : frames) {
        for (auto [dst, handler] : {std::pair{rpc::MachineId{0},
                                              kSyncPartialHandler},
                                    std::pair{rpc::MachineId{1},
                                              kSyncPublishHandler}}) {
          OutArchive copy;
          copy.WriteBytes(frame.buffer().data(), frame.size());
          ctx.comm().Send(1, dst, handler, std::move(copy));
        }
      }
    }
    sync.RunSyncBlocking("count", ctx.id);
    EXPECT_EQ(sync.PublishedRound("count", ctx.id), 1u);
    EXPECT_EQ(sync.Get<uint64_t>("count", ctx.id), 100u);
    ctx.barrier().Wait(ctx.id);
  });
  SetLogLevel(saved_level);
}

// A ghost scheduled before Start() must reach its owner before color-step
// 0 collects its batch.  Machine 1 seeds only a color-0 vertex owned by
// machine 0, over a 5 ms link; with one sweep allowed, it runs exactly
// once.
TEST(ChromaticForwardRaceTest, GhostSeededBeforeStartRunsInFirstSweep) {
  EngineOptions opts;
  opts.num_threads = 1;
  opts.max_sweeps = 1;
  auto counts = RunBipartite(
      testutil::ClusterFor(rpc::TransportKind::kInProcess, 2,
                           /*latency_us=*/5000),
      opts,
      [](BipartiteMachine& m) {
        if (m.ctx.id == 1) m.engine.Schedule(m.graph.Lvid(0));
        m.engine.Start();
      },
      [](Context<DPRGraph>&) {});
  EXPECT_EQ(counts[0], 1u);
  for (VertexId a = 1; a < kSideA; ++a) EXPECT_EQ(counts[a], 0u);
}

// ---------------------------------------------------------------------
// Sync operation
// ---------------------------------------------------------------------

TEST(SyncTest, ComputesGlobalAggregateWithFinalize) {
  // Sum of ranks over all machines, finalized into a mean.
  auto structure = gen::PowerLawWeb(400, 4, 0.8, 31);
  auto global = BuildPageRankGraph(structure);
  auto colors = GreedyColoring(structure);
  auto atom_of = RandomPartition(structure.num_vertices, 3, 5);
  std::vector<rpc::MachineId> placement = {0, 1, 2};

  rpc::Runtime runtime(TestCluster(3));
  SyncManager<DPRGraph> sync(&runtime.comm());
  std::vector<DPRGraph> graphs(3);
  runtime.Run([&](rpc::MachineContext& ctx) {
    ASSERT_TRUE(graphs[ctx.id]
                    .InitFromGlobal(global, atom_of, colors, placement,
                                    ctx.id, &ctx.comm())
                    .ok());
    sync.AttachGraph(ctx.id, &graphs[ctx.id]);
    if (ctx.id == 0) {
      sync.Register<double>(
          "mean_rank", 0.0,
          [](const DPRGraph& g, LocalVid l, double* acc) {
            *acc += g.vertex_data(l).rank;
          },
          [](double* a, const double& b) { *a += b; },
          [](double* a, uint64_t n) { *a /= static_cast<double>(n); });
    }
    ctx.barrier().Wait(ctx.id);
    sync.RunSyncBlocking("mean_rank", ctx.id);
    // All ranks start at 1.0, so the mean is 1.0 on every machine.
    EXPECT_NEAR(sync.Get<double>("mean_rank", ctx.id), 1.0, 1e-12);
    ctx.barrier().Wait(ctx.id);
  });
}

TEST(SyncTest, RoundsAdvanceMonotonically) {
  auto structure = gen::Grid2D(10, 10);
  auto global = BuildPageRankGraph(structure);
  auto colors = GreedyColoring(structure);
  auto atom_of = BlockPartition(structure.num_vertices, 2);
  std::vector<rpc::MachineId> placement = {0, 1};
  rpc::Runtime runtime(TestCluster(2));
  SyncManager<DPRGraph> sync(&runtime.comm());
  std::vector<DPRGraph> graphs(2);
  runtime.Run([&](rpc::MachineContext& ctx) {
    ASSERT_TRUE(graphs[ctx.id]
                    .InitFromGlobal(global, atom_of, colors, placement,
                                    ctx.id, &ctx.comm())
                    .ok());
    sync.AttachGraph(ctx.id, &graphs[ctx.id]);
    if (ctx.id == 0) {
      sync.Register<uint64_t>(
          "count", uint64_t{0},
          [](const DPRGraph&, LocalVid, uint64_t* acc) { *acc += 1; },
          [](uint64_t* a, const uint64_t& b) { *a += b; });
    }
    ctx.barrier().Wait(ctx.id);
    for (int round = 1; round <= 3; ++round) {
      sync.RunSyncBlocking("count", ctx.id);
      EXPECT_EQ(sync.PublishedRound("count", ctx.id),
                static_cast<uint64_t>(round));
      EXPECT_EQ(sync.Get<uint64_t>("count", ctx.id), 100u);
    }
    ctx.barrier().Wait(ctx.id);
  });
}

// A machine that dies before contributing must not wedge the round: it
// completes over the live machines and publishes the sum of their
// partials to them.  At the coordinator, either the death or the last
// live partial closes it, whichever lands second.
TEST(SyncTest, RoundCompletesOverTheLiveMembership) {
  constexpr size_t kMachines = 3;
  constexpr rpc::MachineId kVictim = 2;
  auto structure = gen::Grid2D(10, 10);
  auto global = BuildPageRankGraph(structure);
  auto colors = GreedyColoring(structure);
  auto atom_of = BlockPartition(structure.num_vertices, kMachines);
  std::vector<rpc::MachineId> placement = {0, 1, 2};
  rpc::Runtime runtime(
      testutil::ClusterFor(rpc::TransportKind::kTcp, kMachines));
  // One manager per fabric, as on any TCP deployment.
  std::vector<std::unique_ptr<SyncManager<DPRGraph>>> syncs;
  for (rpc::MachineId m = 0; m < kMachines; ++m) {
    syncs.push_back(std::make_unique<SyncManager<DPRGraph>>(&runtime.comm(m)));
  }
  std::vector<DPRGraph> graphs(kMachines);
  std::atomic<int> contributed{0};
  std::vector<uint8_t> published(kMachines, 0);
  std::vector<uint64_t> values(kMachines, 0);
  runtime.Run([&](rpc::MachineContext& ctx) {
    const rpc::MachineId me = ctx.id;
    SyncManager<DPRGraph>& sync = *syncs[me];
    ASSERT_TRUE(graphs[me]
                    .InitFromGlobal(global, atom_of, colors, placement, me,
                                    &ctx.comm())
                    .ok());
    sync.AttachGraph(me, &graphs[me]);
    sync.Register<uint64_t>(
        "count", uint64_t{0},
        [](const DPRGraph&, LocalVid, uint64_t* acc) { *acc += 1; },
        [](uint64_t* a, const uint64_t& b) { *a += b; });
    ctx.barrier().Wait(me);
    if (me == kVictim) {
      EXPECT_TRUE(testutil::WaitUntil([&] { return contributed == 2; }));
      ctx.comm().InjectKill(me);
      return;
    }
    sync.RunSyncAsync("count", me);
    contributed.fetch_add(1);
    // Bounded: a round that waits for the dead machine never publishes.
    published[me] = testutil::WaitUntil(
        [&] { return sync.PublishedRound("count", me) >= 1; });
    values[me] = sync.Get<uint64_t>("count", me);
  });
  const uint64_t live_vertices =
      graphs[0].num_owned_vertices() + graphs[1].num_owned_vertices();
  ASSERT_LT(live_vertices, 100u);
  for (rpc::MachineId m : {0u, 1u}) {
    EXPECT_TRUE(published[m]) << "machine " << m;
    EXPECT_EQ(values[m], live_vertices) << "machine " << m;
  }
}

// ---------------------------------------------------------------------
// Consistency model scope rights
// ---------------------------------------------------------------------

TEST(ContextTest, VertexConsistencyForbidsNeighborAccess) {
  auto structure = gen::Grid2D(3, 3);
  auto g = BuildPageRankGraph(structure);
  Context<apps::PageRankGraph> ctx(&g, 4, 1.0,
                                   ConsistencyModel::kVertexConsistency,
                                   nullptr, [](void*, LocalVid, double) {});
  EXPECT_DEATH(ctx.neighbor_data(1), "consistency");
}

TEST(ContextTest, EdgeConsistencyForbidsNeighborWrite) {
  auto structure = gen::Grid2D(3, 3);
  auto g = BuildPageRankGraph(structure);
  Context<apps::PageRankGraph> ctx(&g, 4, 1.0,
                                   ConsistencyModel::kEdgeConsistency,
                                   nullptr, [](void*, LocalVid, double) {});
  EXPECT_DEATH(ctx.mutable_neighbor_data(1), "full consistency");
}

TEST(ContextTest, FullConsistencyAllowsNeighborWrite) {
  auto structure = gen::Grid2D(3, 3);
  auto g = BuildPageRankGraph(structure);
  Context<apps::PageRankGraph> ctx(&g, 4, 1.0,
                                   ConsistencyModel::kFullConsistency,
                                   nullptr, [](void*, LocalVid, double) {});
  ctx.mutable_neighbor_data(1).rank = 2.0;
  EXPECT_EQ(g.vertex_data(1).rank, 2.0);
}

}  // namespace
}  // namespace graphlab
