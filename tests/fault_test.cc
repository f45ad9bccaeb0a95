// Fault-tolerance subsystem tests: membership bookkeeping, the recovery
// rendezvous, and the acceptance gate — a 4-machine TCP loopback
// chromatic PageRank run in which one machine is killed abruptly
// mid-run, the survivors detect the death, re-place its atoms, restore
// the last committed checkpoint epoch, and converge to the same fixed
// point as an unfailed simulated run (L1 < 1e-8).

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <filesystem>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "graphlab/apps/pagerank.h"
#include "graphlab/engine/engine_factory.h"
#include "graphlab/fault/ft_runner.h"
#include "graphlab/fault/injection.h"
#include "graphlab/graph/atom.h"
#include "graphlab/graph/coloring.h"
#include "graphlab/graph/generators.h"
#include "graphlab/graph/partition.h"
#include "graphlab/rpc/runtime.h"
#include "tests/transport_param.h"

namespace graphlab {
namespace {

using apps::BuildPageRankGraph;
using apps::MakePageRankUpdateFn;
using apps::PageRankEdge;
using apps::PageRankVertex;
using DGraph = DistributedGraph<PageRankVertex, PageRankEdge>;

// ---------------------------------------------------------------------
// Membership
// ---------------------------------------------------------------------

TEST(MembershipTest, MarkDownIsMonotoneAndFiresSubscribersOnce) {
  rpc::Membership membership(4);
  EXPECT_EQ(membership.num_alive(), 4u);
  EXPECT_EQ(membership.epoch(), 0u);

  std::vector<rpc::MachineId> deaths;
  rpc::Subscription subscription = membership.Subscribe(
      [&](rpc::MachineId down, uint64_t) { deaths.push_back(down); });

  EXPECT_TRUE(membership.MarkDown(2));
  EXPECT_FALSE(membership.MarkDown(2));  // idempotent
  EXPECT_EQ(membership.num_alive(), 3u);
  EXPECT_EQ(membership.epoch(), 1u);
  EXPECT_FALSE(membership.alive(2));
  ASSERT_EQ(deaths.size(), 1u);
  EXPECT_EQ(deaths[0], 2u);

  // Adopt applies only unobserved deaths.
  std::vector<uint8_t> bitmap = {1, 0, 0, 1};
  membership.Adopt(bitmap);
  EXPECT_EQ(membership.num_alive(), 2u);
  ASSERT_EQ(deaths.size(), 2u);
  EXPECT_EQ(deaths[1], 1u);

  subscription = rpc::Subscription();
  membership.MarkDown(3);
  EXPECT_EQ(deaths.size(), 2u);  // no further notifications

  auto alive = membership.alive_machines();
  ASSERT_EQ(alive.size(), 1u);
  EXPECT_EQ(alive[0], 0u);
}

TEST(MembershipTest, InProcessKillDropsTrafficAndSurvivorsStillFlush) {
  rpc::Runtime runtime(
      testutil::ClusterFor(rpc::TransportKind::kInProcess, 3));
  rpc::CommLayer& comm = runtime.comm(0);
  std::atomic<int> delivered{0};
  std::vector<rpc::HandlerScope> counters;
  for (rpc::MachineId m = 0; m < 3; ++m) {
    counters.push_back(comm.RegisterHandler(
        m, 50, [&](rpc::MachineId, InArchive&) { delivered.fetch_add(1); }));
  }
  comm.Send(0, 2, 50, OutArchive());
  ASSERT_TRUE(testutil::WaitUntil([&] { return delivered.load() == 1; }));

  comm.InjectKill(2);
  EXPECT_FALSE(comm.membership().alive(2));
  // To and from the dead machine: dropped.  The survivors' flush round
  // skips the dead machine and completes.
  comm.Send(0, 2, 50, OutArchive());
  comm.Send(2, 1, 50, OutArchive());
  std::vector<uint8_t> flushed(3, 0);
  runtime.Run([&](rpc::MachineContext& ctx) {
    if (ctx.id != 2) flushed[ctx.id] = ctx.flush().Run(ctx.id);
  });
  EXPECT_TRUE(flushed[0]);
  EXPECT_TRUE(flushed[1]);
  EXPECT_EQ(delivered.load(), 1);
}

// ---------------------------------------------------------------------
// Shrunk-membership atom placement
// ---------------------------------------------------------------------

TEST(PlacementTest, PlaceAtomsOnMachinesCoversSurvivors) {
  auto structure = gen::PowerLawWeb(500, 4, 0.8, 11);
  auto atom_of = RandomPartition(500, 16, 3);
  auto colors = GreedyColoring(structure);
  AtomIndex meta = BuildMetaIndex(structure, atom_of, colors, 16);
  EXPECT_EQ(meta.num_atoms(), 16u);

  // Full cluster and a shrunk survivor set place every atom on a listed
  // machine, reusing the same phase-1 cut.
  auto full = PlaceAtomsOnMachines(meta, {0, 1, 2, 3});
  auto shrunk = PlaceAtomsOnMachines(meta, {0, 1, 3});
  ASSERT_EQ(full.size(), 16u);
  ASSERT_EQ(shrunk.size(), 16u);
  for (rpc::MachineId m : shrunk) EXPECT_NE(m, 2u);
  // Survivor load stays roughly balanced: no machine more than ~2x ideal.
  std::vector<uint64_t> load(4, 0);
  for (AtomId a = 0; a < 16; ++a) {
    load[shrunk[a]] += meta.atoms[a].num_owned_vertices;
  }
  for (rpc::MachineId m : {0, 1, 3}) {
    EXPECT_LT(load[m], 2 * 500u / 3 + 50);
  }
}

// ---------------------------------------------------------------------
// Rebalance decision round losing a member
// ---------------------------------------------------------------------

// Regression: a death during a rebalance round can leave the survivors
// with different verdicts.  Machines 0-2 contribute to boundary 4's
// round; machine 2's abort bundle cancels it; then machine 3 dies and
// machine 0's degraded release hands machines 0 and 1 a decision that
// machine 2 never sees.  Recovery must leave every survivor with the
// same rebalance state, so that the next round is entered everywhere and
// ends in one verdict.  Counting the stale decision on machines 0 and 1
// made them skip every later round, in which machine 2 then blocked.
TEST(RebalanceRoundTest, DeathMidRoundLeavesSurvivorsInStep) {
  constexpr size_t kMachines = 4;
  constexpr rpc::MachineId kVictim = 3;
  auto structure = gen::PowerLawWeb(600, 5, 0.8, 7);
  auto atom_of = RandomPartition(600, 16, 3);
  AtomIndex meta =
      BuildMetaIndex(structure, atom_of, GreedyColoring(structure), 16);
  fault::FtOptions ft;
  ft.rebalance_every_boundaries = 2;
  ft.rebalance_min_boundary = 4;
  ft.rebalance_skew_threshold = 1.0;
  const std::vector<rpc::MachineId> all = {0, 1, 2, 3};
  const std::vector<rpc::MachineId> survivors = {0, 1, 2};

  // One fabric per machine: each machine's rebalancer owns its round.
  rpc::Runtime runtime(
      testutil::ClusterFor(rpc::TransportKind::kTcp, kMachines));
  std::vector<std::unique_ptr<fault::LoadRebalancer>> rebalancers(kMachines);
  std::vector<uint64_t> migrations(kMachines, 0);
  std::vector<std::vector<rpc::MachineId>> adopted(kMachines);

  runtime.Run([&](rpc::MachineContext& ctx) {
    const rpc::MachineId me = ctx.id;
    rebalancers[me] = std::make_unique<fault::LoadRebalancer>(ctx, &meta, ft);
    fault::LoadRebalancer& rebalancer = *rebalancers[me];
    rebalancer.BeginAttempt(all, PlaceAtomsOnMachines(meta, all));
    ctx.comm().registry(me).counter("engine.updates")->Inc(1000 * (me + 1));
    ctx.barrier().Wait(me);

    bool migrate = false;
    if (me == kVictim) {
      // Once machines 0-2 are in boundary 4's round (past the membership
      // check; entering sends the contribution), cancel machine 2's wait
      // — its abort bundle won the race — and die without contributing.
      Timer timer;
      for (rpc::MachineId m = 0; m < kVictim; ++m) {
        while (rebalancers[m]->round() < 1) {
          ASSERT_LT(timer.Seconds(), 10.0) << "machine " << m;
          std::this_thread::yield();
        }
      }
      rebalancers[2]->Cancel();
      ctx.comm().InjectKill(kVictim);
      return;
    }
    const Status st = rebalancer.AtBoundary(4, &migrate);
    if (me == 2) {
      EXPECT_FALSE(st.ok());
    } else {
      EXPECT_TRUE(st.ok()) << st.ToString();
      EXPECT_TRUE(migrate) << "machine " << me;
    }

    // Recovery: adopt the death (the rendezvous does this for machines
    // that never talked to the victim), drain, take the pending placement
    // over the survivors, and rebuild on fresh placement.
    ctx.comm().InjectKill(kVictim);
    ctx.barrier().Wait(me);
    EXPECT_TRUE(ctx.flush().Run(me));
    EXPECT_TRUE(rebalancer.TakePendingPlacement(survivors).empty())
        << "machine " << me << " adopted a placement decided mid-death";
    migrations[me] = rebalancer.migrations();
    rebalancer.BeginAttempt(survivors,
                            PlaceAtomsOnMachines(meta, survivors));
    ctx.barrier().Wait(me);
    if (migrations[0] != migrations[1] || migrations[1] != migrations[2]) {
      return;  // out of step: the next round would block; reported below
    }

    ctx.comm().registry(me).counter("engine.updates")->Inc(1000 * (3 - me));
    const Status next = rebalancer.AtBoundary(6, &migrate);
    EXPECT_TRUE(next.ok()) << next.ToString();
    EXPECT_TRUE(migrate) << "machine " << me;
    adopted[me] = rebalancer.TakePendingPlacement(survivors);
    migrations[me] = rebalancer.migrations();
  });

  EXPECT_EQ(migrations[0], migrations[1]);
  EXPECT_EQ(migrations[0], migrations[2]);
  ASSERT_FALSE(adopted[0].empty());
  EXPECT_EQ(adopted[0], adopted[1]);
  EXPECT_EQ(adopted[0], adopted[2]);
  EXPECT_EQ(migrations[0], 1u);
}

// ---------------------------------------------------------------------
// End-to-end: kill a machine mid-run, recover, match the unfailed run
// ---------------------------------------------------------------------

struct FtScenario {
  size_t machines = 4;
  size_t vertices = 1200;
  AtomId atoms = 16;
  double tolerance = 1e-13;
  rpc::MachineId victim = 3;
  uint64_t kill_at_boundary = 3;  // 0 = never kill
  double mtbf = 0;                // > 0: Young's-rule cadence, not fixed
  std::string snapshot_dir;
  // Bit-rot the newest committed journal right before the kill: the
  // recovery ladder must reject that epoch and fall back.
  bool corrupt_newest_journal = false;
  // The victim lingers this long at the kill boundary before dying, so
  // the others reach the checkpoint round (and send DONE) first.
  uint32_t kill_delay_ms = 0;
  // > 0: a rebalance check every this many boundaries from boundary 4,
  // at any skew.
  uint64_t rebalance_every = 0;
  // Fixed checkpoint cadence; 1e-9 checkpoints at every boundary, so a
  // first attempt's epoch e is its boundary e.
  double checkpoint_interval = 0.001;
  // Called on every machine at every boundary, before the kill check.
  std::function<void(rpc::MachineId, uint64_t)> observe;
};

/// Flips a bit in the middle of machine 0's journal for the newest
/// committed epoch (the trailing delta when the chain has one).
void CorruptNewestCommittedJournal(const std::string& dir) {
  auto manifest = ReadSnapshotManifest(dir);
  if (!manifest.ok()) return;  // nothing committed yet
  const std::string path =
      manifest->delta_epochs.empty()
          ? SnapshotJournalPath(dir, manifest->base_epoch, 0)
          : SnapshotDeltaPath(dir, manifest->delta_epochs.back(), 0);
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  if (ec || size == 0) return;
  GL_CHECK_OK(fault::FaultInjection::FlipBit(path, (size / 2) * 8));
}

/// Reference ranks from an unfailed run (simulated interconnect, same
/// deterministic inputs, same tolerance).
std::vector<double> ReferenceRanks(const FtScenario& s) {
  auto structure = gen::PowerLawWeb(s.vertices, 5, 0.8, 7);
  auto global = BuildPageRankGraph(structure);
  auto colors = GreedyColoring(structure);
  auto atom_of = RandomPartition(s.vertices, s.atoms, 3);
  AtomIndex meta = BuildMetaIndex(structure, atom_of, colors, s.atoms);
  auto placement = PlaceAtoms(meta, s.machines);

  rpc::Runtime runtime(
      testutil::ClusterFor(rpc::TransportKind::kInProcess, s.machines));
  testutil::ClusterAllreduce allreduce(&runtime, 1);
  std::vector<DGraph> graphs(s.machines);
  std::vector<double> ranks(s.vertices, 0.0);
  std::mutex ranks_mutex;

  runtime.Run([&](rpc::MachineContext& ctx) {
    DGraph& graph = graphs[ctx.id];
    GL_CHECK_OK(graph.InitFromGlobal(global, atom_of, colors, placement,
                                     ctx.id, &ctx.comm()));
    ctx.barrier().Wait(ctx.id);
    EngineOptions eo;
    eo.num_threads = 1;
    DistributedEngineDeps<PageRankVertex, PageRankEdge> deps;
    deps.allreduce = &allreduce.at(ctx.id);
    auto engine =
        std::move(CreateEngine("chromatic", ctx, &graph, eo, deps).value());
    engine->SetUpdateFn(
        MakePageRankUpdateFn<DGraph>(0.85, s.tolerance));
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

/// Runs the fault-tolerant cluster over loopback TCP; the victim kills
/// itself at the configured sweep boundary.  Returns machine 0's report
/// and the survivor-gathered ranks.
std::pair<fault::FtReport, std::vector<double>> RunFtCluster(
    const FtScenario& s) {
  auto structure = gen::PowerLawWeb(s.vertices, 5, 0.8, 7);
  auto global = BuildPageRankGraph(structure);
  auto colors = GreedyColoring(structure);
  auto atom_of = RandomPartition(s.vertices, s.atoms, 3);
  AtomIndex meta = BuildMetaIndex(structure, atom_of, colors, s.atoms);

  rpc::ClusterOptions copts =
      testutil::ClusterFor(rpc::TransportKind::kTcp, s.machines);
  rpc::Runtime runtime(copts);

  fault::FtOptions ft;
  ft.heartbeat_interval_ms = 20;
  ft.heartbeat_timeout_ms = 500;
  ft.snapshot_dir = s.snapshot_dir;
  if (s.mtbf > 0) {
    // Young's rule: sqrt(2 * t_cp * mtbf); tiny values keep the derived
    // interval below a sweep so the cadence fires under test.
    ft.mtbf_seconds = s.mtbf;
    ft.t_checkpoint_estimate_seconds = 0.0005;
  } else {
    ft.checkpoint_interval_seconds = s.checkpoint_interval;
  }
  ft.rebalance_every_boundaries = s.rebalance_every;
  ft.rebalance_min_boundary = 4;
  ft.rebalance_skew_threshold = 1.0;

  std::vector<DGraph> graphs(s.machines);
  fault::FtReport report0;
  std::vector<double> ranks(s.vertices, 0.0);
  std::mutex ranks_mutex;

  runtime.Run([&](rpc::MachineContext& ctx) {
    const rpc::MachineId me = ctx.id;
    fault::FaultTolerantRunner<PageRankVertex, PageRankEdge> runner(ctx, ft);

    typename fault::FaultTolerantRunner<PageRankVertex,
                                        PageRankEdge>::Problem problem;
    problem.meta = meta;
    problem.build = [&, me](DGraph* graph,
                            const std::vector<rpc::MachineId>& placement) {
      return graph->InitFromGlobal(global, atom_of, colors, placement, me,
                                   &ctx.comm());
    };
    problem.update_fn = MakePageRankUpdateFn<DGraph>(0.85, s.tolerance);
    problem.engine_options.num_threads = 1;
    if (s.observe || (s.kill_at_boundary != 0 && me == s.victim)) {
      problem.on_boundary = [&ctx, &s, me](uint64_t boundary) -> Status {
        if (s.observe) s.observe(me, boundary);
        if (me == s.victim && boundary == s.kill_at_boundary) {
          if (s.corrupt_newest_journal) {
            CorruptNewestCommittedJournal(s.snapshot_dir);
          }
          std::this_thread::sleep_for(
              std::chrono::milliseconds(s.kill_delay_ms));
          ctx.comm().InjectKill(ctx.id);
          return Status::Aborted("injected kill");
        }
        return Status::OK();
      };
    }

    auto result = runner.Run(problem, &graphs[me]);
    if (me == s.victim && s.kill_at_boundary != 0) {
      EXPECT_FALSE(result.ok());  // the dead machine knows it died
      return;
    }
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    if (me == 0) report0 = *result;

    // Survivors gather their (post-recovery) owned partitions; together
    // they cover every vertex.
    std::lock_guard<std::mutex> lock(ranks_mutex);
    for (LocalVid l : graphs[me].owned_vertices()) {
      ranks[graphs[me].Gvid(l)] = graphs[me].vertex_data(l).rank;
    }
  });
  return {report0, ranks};
}

class FaultRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string name =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    dir_ = (std::filesystem::temp_directory_path() /
            ("glft_" + std::to_string(::getpid()) + "_" + name))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string dir_;
};

TEST_F(FaultRecoveryTest, UnfailedFtRunMatchesReference) {
  FtScenario s;
  s.kill_at_boundary = 0;  // no failure: the FT machinery must be inert
  s.snapshot_dir = dir_;
  s.mtbf = 0.01;  // cadence from Young's Eq. 3, not a fixed interval
  auto reference = ReferenceRanks(s);
  auto [report, ranks] = RunFtCluster(s);
  EXPECT_EQ(report.attempts, 1u);
  EXPECT_EQ(report.recoveries, 0u);
  EXPECT_GE(report.checkpoints_written, 1u);  // Young cadence fired mid-run
  EXPECT_GT(report.checkpoint_interval_seconds, 0.0);
  double l1 = 0;
  for (size_t v = 0; v < ranks.size(); ++v) {
    l1 += std::fabs(ranks[v] - reference[v]);
  }
  EXPECT_LT(l1, 1e-8) << "unfailed FT run diverged from reference";
}

TEST_F(FaultRecoveryTest, KilledWorkerRecoversAndMatchesReference) {
  FtScenario s;
  s.snapshot_dir = dir_;
  auto reference = ReferenceRanks(s);
  auto [report, ranks] = RunFtCluster(s);

  // The cluster survived the kill and recovered (at least once).
  EXPECT_GE(report.attempts, 2u);
  EXPECT_GE(report.recoveries, 1u);
  // Checkpoint every boundary + kill at boundary 3: the recovery replayed
  // a committed epoch rather than recomputing from scratch.
  EXPECT_GE(report.restored_epoch, 1u);
  EXPECT_GT(report.checkpoints_written, 0u);

  // And converged to the same fixed point as the unfailed reference.
  double l1 = 0;
  for (size_t v = 0; v < ranks.size(); ++v) {
    l1 += std::fabs(ranks[v] - reference[v]);
  }
  EXPECT_LT(l1, 1e-8) << "recovered run diverged from unfailed reference";
}

// Regression: a death while machine 1 waits in the runner's startup fence
// must not cut the fence short.  Machine 1 enters its fence, machine 2
// dies, and only once machine 1 has seen the death does machine 0
// construct its runner, which registers the rendezvous handler.  A fence
// cancelled by the death sent machine 1's rendezvous ENTER to a machine 0
// with no handler for it yet, and both survivors then waited forever.
// The watchdog kills the survivors instead, so the failure is bounded.
TEST_F(FaultRecoveryTest, DeathDuringStartupFenceRecovers) {
  FtScenario s;
  s.machines = 3;
  s.snapshot_dir = dir_;
  const auto reference = ReferenceRanks(s);
  auto structure = gen::PowerLawWeb(s.vertices, 5, 0.8, 7);
  auto global = BuildPageRankGraph(structure);
  auto colors = GreedyColoring(structure);
  auto atom_of = RandomPartition(s.vertices, s.atoms, 3);
  AtomIndex meta = BuildMetaIndex(structure, atom_of, colors, s.atoms);

  rpc::Runtime runtime(
      testutil::ClusterFor(rpc::TransportKind::kTcp, s.machines));
  fault::FtOptions ft;
  ft.snapshot_dir = s.snapshot_dir;
  ft.checkpoint_interval_seconds = 0.001;
  // Machine 1 listens for machine 0's heartbeats before machine 0 sends
  // any; only the kill may end a machine here.
  ft.heartbeat_timeout_ms = 10000;
  std::vector<DGraph> graphs(s.machines);
  std::vector<Status> statuses(s.machines);
  std::vector<double> ranks(s.vertices, 0.0);
  std::mutex ranks_mutex;
  std::atomic<int> finished{0};
  std::atomic<int> warmed{0};
  std::atomic<bool> timed_out{false};

  std::thread watchdog([&] {
    if (testutil::WaitUntil([&] { return finished.load() == 2; },
                            std::chrono::seconds(30))) {
      return;
    }
    timed_out.store(true);
    runtime.comm(0).InjectKill(0);
    runtime.comm(1).InjectKill(1);
  });
  runtime.Run([&](rpc::MachineContext& ctx) {
    const rpc::MachineId me = ctx.id;
    // Every pair of machines exchanges a frame, so every connection is up
    // and the kill reaches the survivors as a closed socket.
    ASSERT_TRUE(ctx.flush().Run(me));
    warmed.fetch_add(1);
    if (me == 2) {
      // Die once machine 1 is in its fence (its first barrier round) and
      // every machine is through the warm-up round: a slow machine 0
      // still waiting for machine 1's frame would see the death cut its
      // round short.
      EXPECT_TRUE(testutil::WaitUntil([&] {
        return warmed.load() == 3 &&
               runtime.barrier(1).entered_generation(1) >= 1;
      }));
      ctx.comm().InjectKill(me);
      return;
    }
    if (me == 0) {
      EXPECT_TRUE(testutil::WaitUntil(
          [&] { return !runtime.comm(1).membership().alive(2); }));
      // Room for machine 1 to act on the death before this runner exists.
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
    }
    fault::FaultTolerantRunner<PageRankVertex, PageRankEdge> runner(ctx, ft);
    typename fault::FaultTolerantRunner<PageRankVertex,
                                        PageRankEdge>::Problem problem;
    problem.meta = meta;
    problem.build = [&, me](DGraph* graph,
                            const std::vector<rpc::MachineId>& placement) {
      return graph->InitFromGlobal(global, atom_of, colors, placement, me,
                                   &ctx.comm());
    };
    problem.update_fn = MakePageRankUpdateFn<DGraph>(0.85, s.tolerance);
    problem.engine_options.num_threads = 1;
    statuses[me] = runner.Run(problem, &graphs[me]).status();
    if (statuses[me].ok()) {
      std::lock_guard<std::mutex> lock(ranks_mutex);
      for (LocalVid l : graphs[me].owned_vertices()) {
        ranks[graphs[me].Gvid(l)] = graphs[me].vertex_data(l).rank;
      }
    }
    finished.fetch_add(1);
  });
  watchdog.join();

  EXPECT_FALSE(timed_out.load()) << "the survivors hung after the death";
  for (rpc::MachineId m : {0u, 1u}) {
    EXPECT_TRUE(statuses[m].ok()) << "machine " << m << ": "
                                  << statuses[m].ToString();
  }
  double l1 = 0;
  for (size_t v = 0; v < ranks.size(); ++v) {
    l1 += std::fabs(ranks[v] - reference[v]);
  }
  EXPECT_LT(l1, 1e-8);
}

/// Runs a 3-machine TCP fault-tolerant PageRank whose every boundary
/// first calls `on_boundary(machine, boundary)`; returns each machine's
/// Run() status.
std::vector<Status> RunThreeMachineFtCluster(
    const fault::FtOptions& ft,
    std::function<Status(rpc::MachineId, uint64_t)> on_boundary) {
  constexpr size_t kMachines = 3;
  auto structure = gen::PowerLawWeb(600, 5, 0.8, 7);
  auto global = BuildPageRankGraph(structure);
  auto colors = GreedyColoring(structure);
  auto atom_of = RandomPartition(600, 12, 3);
  AtomIndex meta = BuildMetaIndex(structure, atom_of, colors, 12);

  rpc::Runtime runtime(
      testutil::ClusterFor(rpc::TransportKind::kTcp, kMachines));
  std::vector<DGraph> graphs(kMachines);
  std::vector<Status> statuses(kMachines);
  runtime.Run([&](rpc::MachineContext& ctx) {
    const rpc::MachineId me = ctx.id;
    fault::FaultTolerantRunner<PageRankVertex, PageRankEdge> runner(ctx, ft);
    typename fault::FaultTolerantRunner<PageRankVertex,
                                        PageRankEdge>::Problem problem;
    problem.meta = meta;
    problem.build = [&, me](DGraph* graph,
                            const std::vector<rpc::MachineId>& placement) {
      return graph->InitFromGlobal(global, atom_of, colors, placement, me,
                                   &ctx.comm());
    };
    problem.update_fn = MakePageRankUpdateFn<DGraph>(0.85, 1e-13);
    problem.engine_options.num_threads = 1;
    problem.on_boundary = [&on_boundary, me](uint64_t boundary) {
      return on_boundary(me, boundary);
    };
    statuses[me] = runner.Run(problem, &graphs[me]).status();
  });
  return statuses;
}

// A boundary hook that fails with nobody dead stops the run at that
// sweep's collective abort decision, with a partly converged graph.  The
// runner must then fail on every machine — with the hook's own error on
// the machine whose hook failed — rather than report that graph as the
// result, and no machine may wait at a rendezvous the others skip.
TEST_F(FaultRecoveryTest, FailingBoundaryHookFailsTheRunEverywhere) {
  constexpr rpc::MachineId kFailing = 1;
  fault::FtOptions ft;
  ft.snapshot_dir = dir_;
  ft.checkpoint_interval_seconds = 0.001;  // checkpoint every boundary
  const std::vector<Status> statuses = RunThreeMachineFtCluster(
      ft, [](rpc::MachineId me, uint64_t boundary) -> Status {
        return me == kFailing && boundary == 3
                   ? Status::IOError("hook failed at boundary 3")
                   : Status::OK();
      });
  for (rpc::MachineId m = 0; m < statuses.size(); ++m) {
    EXPECT_FALSE(statuses[m].ok()) << "machine " << m;
  }
  EXPECT_EQ(statuses[kFailing].code(), StatusCode::kIOError);
  EXPECT_EQ(statuses[kFailing].message(), "hook failed at boundary 3");
}

TEST_F(FaultRecoveryTest, CorruptedJournalFallsBackToEarlierEpoch) {
  FtScenario s;
  s.snapshot_dir = dir_;
  s.kill_at_boundary = 4;  // a couple of epochs commit before the kill
  s.corrupt_newest_journal = true;
  auto reference = ReferenceRanks(s);
  auto [report, ranks] = RunFtCluster(s);

  EXPECT_GE(report.recoveries, 1u);
  // Every survivor's ladder saw the bit-rotted journal and rejected its
  // epoch instead of replaying garbage.
  EXPECT_GE(report.corrupt_journals, 1u);

  // Recovery from the surviving rung (an earlier epoch, or a recompute
  // when only one epoch had committed) still reaches the fixed point.
  double l1 = 0;
  for (size_t v = 0; v < ranks.size(); ++v) {
    l1 += std::fabs(ranks[v] - reference[v]);
  }
  EXPECT_LT(l1, 1e-8) << "corrupted-journal recovery diverged";
}

TEST_F(FaultRecoveryTest, RecoversWithoutCheckpointsByRecomputing) {
  FtScenario s;
  s.snapshot_dir = "";  // no checkpointing: recovery restarts from inputs
  auto reference = ReferenceRanks(s);
  auto [report, ranks] = RunFtCluster(s);
  EXPECT_GE(report.recoveries, 1u);
  EXPECT_EQ(report.restored_epoch, 0u);
  EXPECT_EQ(report.checkpoints_written, 0u);
  double l1 = 0;
  for (size_t v = 0; v < ranks.size(); ++v) {
    l1 += std::fabs(ranks[v] - reference[v]);
  }
  EXPECT_LT(l1, 1e-8);
}

// Regression: the victim dies at the start of boundary 3's checkpoint
// round, after the survivors have written their journals and sent DONE.
// The round must abort instead of committing an epoch that lacks the dead
// machine's journal, so the epoch recovery restores lists every machine.
TEST_F(FaultRecoveryTest, CheckpointRoundLosingAMemberNeverCommits) {
  FtScenario s;
  s.snapshot_dir = dir_;
  s.kill_delay_ms = 300;
  auto reference = ReferenceRanks(s);
  auto [report, ranks] = RunFtCluster(s);
  EXPECT_GE(report.recoveries, 1u);
  ASSERT_GE(report.restored_epoch, 1u);
  auto restored =
      ReadManifestFile(ManifestPathFor(dir_, report.restored_epoch));
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->machines.size(), s.machines)
      << "epoch " << report.restored_epoch
      << " committed without the dead machine";
  double l1 = 0;
  for (size_t v = 0; v < ranks.size(); ++v) {
    l1 += std::fabs(ranks[v] - reference[v]);
  }
  EXPECT_LT(l1, 1e-8);
}

// Regression: once a kill was recovered from, later rebalance checks run
// over the survivors.  Judging them against the membership the run
// started with aborted every later check, and so every later attempt.
TEST_F(FaultRecoveryTest, RebalancesOverSurvivorsAfterRecovery) {
  FtScenario s;
  s.snapshot_dir = dir_;
  s.rebalance_every = 2;
  auto reference = ReferenceRanks(s);
  auto [report, ranks] = RunFtCluster(s);
  EXPECT_GE(report.recoveries, 1u);
  EXPECT_EQ(report.rebalances, 1u);
  double l1 = 0;
  for (size_t v = 0; v < ranks.size(); ++v) {
    l1 += std::fabs(ranks[v] - reference[v]);
  }
  EXPECT_LT(l1, 1e-8);
}

// Regression: the victim dies at a rebalance boundary, so the survivors'
// decision round races the death — some may finish it, some are
// cancelled, some never enter.  Whatever each saw, the survivors must
// leave recovery with the same rebalance state: a survivor that counted
// a migration the others did not would skip a later round they block in.
TEST_F(FaultRecoveryTest, KillAtRebalanceBoundaryKeepsSurvivorsInStep) {
  for (uint32_t delay_ms : {0u, 300u}) {
    FtScenario s;
    s.snapshot_dir = dir_ + "_" + std::to_string(delay_ms);
    s.kill_at_boundary = 4;
    s.kill_delay_ms = delay_ms;
    s.rebalance_every = 2;
    auto reference = ReferenceRanks(s);
    auto [report, ranks] = RunFtCluster(s);
    std::filesystem::remove_all(s.snapshot_dir);
    EXPECT_GE(report.recoveries, 1u) << "delay " << delay_ms;
    // The interrupted round's verdict is discarded uncounted, so the
    // survivors' later check still migrates once.
    EXPECT_EQ(report.rebalances, 1u) << "delay " << delay_ms;
    double l1 = 0;
    for (size_t v = 0; v < ranks.size(); ++v) {
      l1 += std::fabs(ranks[v] - reference[v]);
    }
    EXPECT_LT(l1, 1e-8) << "delay " << delay_ms;
  }
}

// The victim's journal write for epoch 3 stalls on a slow store, and the
// victim dies at boundary 4 while that background write is still in
// flight.  Machine 0's writer never gets the victim's DONE, so epoch 3
// must never commit, and recovery restores epoch 2, which lists every
// machine.
TEST_F(FaultRecoveryTest, KillDuringBackgroundJournalWriteNeverCommits) {
  FtScenario s;
  s.snapshot_dir = dir_;
  s.checkpoint_interval = 1e-9;
  s.kill_at_boundary = 4;
  auto reference = ReferenceRanks(s);
  fault::FaultInjection::Instance().Reset();
  // "_3_m3.gl" names machine 3's full or delta journal of epoch 3 only.
  fault::FaultInjection::Instance().ArmStallWrite("_3_m3.gl", 500);
  auto [report, ranks] = RunFtCluster(s);
  fault::FaultInjection::Instance().Reset();

  EXPECT_EQ(report.recoveries, 1u);
  EXPECT_EQ(report.restored_epoch, 2u);
  EXPECT_FALSE(std::filesystem::exists(ManifestPathFor(dir_, 3)))
      << "epoch 3 committed without the dead machine's DONE";
  auto restored =
      ReadManifestFile(ManifestPathFor(dir_, report.restored_epoch));
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->machines.size(), s.machines);
  double l1 = 0;
  for (size_t v = 0; v < ranks.size(); ++v) {
    l1 += std::fabs(ranks[v] - reference[v]);
  }
  EXPECT_LT(l1, 1e-8);
}

// A torn write inside machine 2's background journal write for epoch 3
// is not lost on the writer thread: machine 0 abandons the epoch, and
// every machine's boundary 4 returns the failure, so the run stops there
// and fails everywhere — machine 2 with its own write error.
TEST_F(FaultRecoveryTest, TornBackgroundWriteFailsTheRunAtTheNextBoundary) {
  constexpr rpc::MachineId kTorn = 2;
  fault::FtOptions ft;
  ft.snapshot_dir = dir_;
  ft.checkpoint_interval_seconds = 1e-9;  // epoch e at boundary e
  fault::FaultInjection::Instance().Reset();
  fault::FaultInjection::Instance().ArmTornWrite("_3_m2.gl",
                                                 /*byte_offset=*/10);
  std::vector<uint64_t> last_boundary(3, 0);
  const std::vector<Status> statuses = RunThreeMachineFtCluster(
      ft, [&](rpc::MachineId me, uint64_t boundary) {
        last_boundary[me] = boundary;
        return Status::OK();
      });
  fault::FaultInjection::Instance().Reset();

  for (rpc::MachineId m = 0; m < statuses.size(); ++m) {
    EXPECT_FALSE(statuses[m].ok()) << "machine " << m;
    EXPECT_EQ(statuses[m].code(), StatusCode::kIOError)
        << "machine " << m << ": " << statuses[m].ToString();
    EXPECT_EQ(last_boundary[m], 4u) << "machine " << m;
  }
  EXPECT_NE(statuses[kTorn].message().find("torn write"), std::string::npos)
      << statuses[kTorn].ToString();
  EXPECT_TRUE(std::filesystem::exists(ManifestPathFor(dir_, 2)));
  EXPECT_FALSE(std::filesystem::exists(ManifestPathFor(dir_, 3)));
}

// When Run() returns, the last round is committed: the newest manifest
// is the last attempt's last_complete_epoch().  Epochs number from 1
// with none abandoned here, and a new attempt numbers on from the last
// epoch on disk, so that epoch is checkpoints_written.  And a live
// migration's forced-full epoch, written in the background at the
// attempt's last boundary, is committed before the next attempt
// resolves its restore chain, so that attempt restores exactly it.
TEST_F(FaultRecoveryTest, RunReturnsWithItsLastRoundCommitted) {
  {
    FtScenario s;
    s.snapshot_dir = dir_ + "_plain";
    s.kill_at_boundary = 0;
    s.checkpoint_interval = 1e-9;
    auto [report, ranks] = RunFtCluster(s);
    auto newest = ReadSnapshotManifest(s.snapshot_dir);
    std::filesystem::remove_all(s.snapshot_dir);
    ASSERT_TRUE(newest.ok()) << newest.status().ToString();
    EXPECT_GT(report.checkpoints_written, 0u);
    EXPECT_EQ(newest->epoch, report.checkpoints_written);
  }

  FtScenario s;
  s.snapshot_dir = dir_;
  s.kill_at_boundary = 0;
  s.checkpoint_interval = 1e-9;
  s.rebalance_every = 2;
  std::vector<uint64_t> attempt_boundaries;  // machine 0: last per attempt
  s.observe = [&](rpc::MachineId me, uint64_t boundary) {
    if (me != 0) return;
    if (boundary == 1) attempt_boundaries.push_back(0);
    attempt_boundaries.back() = boundary;
  };
  auto reference = ReferenceRanks(s);
  auto [report, ranks] = RunFtCluster(s);
  ASSERT_EQ(report.rebalances, 1u);
  ASSERT_EQ(attempt_boundaries.size(), 2u);
  // The first attempt took epoch e at boundary e; its last boundary's
  // epoch is the forced-full migration epoch.
  const uint32_t migration_epoch =
      static_cast<uint32_t>(attempt_boundaries[0]);
  EXPECT_EQ(report.restored_epoch, migration_epoch);
  auto forced = ReadManifestFile(ManifestPathFor(dir_, migration_epoch));
  ASSERT_TRUE(forced.ok()) << forced.status().ToString();
  EXPECT_EQ(forced->base_epoch, migration_epoch);
  EXPECT_TRUE(forced->delta_epochs.empty());
  auto newest = ReadSnapshotManifest(dir_);
  ASSERT_TRUE(newest.ok());
  EXPECT_EQ(newest->epoch, report.checkpoints_written);
  double l1 = 0;
  for (size_t v = 0; v < ranks.size(); ++v) {
    l1 += std::fabs(ranks[v] - reference[v]);
  }
  EXPECT_LT(l1, 1e-8);
}

}  // namespace
}  // namespace graphlab
