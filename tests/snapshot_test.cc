// Fault tolerance tests: synchronous and asynchronous (Chandy-Lamport)
// snapshots on the locking engine, journal recovery, and the Young
// optimal-interval formula — parameterized over both interconnect
// backends, so the quiescence protocol under the synchronous snapshot
// ("flush all communication channels") is exercised on a real wire too.

#include <gtest/gtest.h>

#include <filesystem>

#include "graphlab/apps/pagerank.h"
#include "graphlab/engine/allreduce.h"
#include "graphlab/engine/engine_factory.h"
#include "graphlab/engine/snapshot.h"
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
using DPRGraph = DistributedGraph<PageRankVertex, PageRankEdge>;

class SnapshotTest : public ::testing::TestWithParam<rpc::TransportKind> {
 protected:
  void SetUp() override {
    std::string name =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    // Parameterized test names carry a '/'-separated suffix.
    for (char& c : name) {
      if (c == '/') c = '_';
    }
    dir_ = std::filesystem::temp_directory_path() /
           ("glsnap_" + std::to_string(::getpid()) + "_" + name);
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string dir_;
};

TEST(SnapshotFormulaTest, YoungOptimalInterval) {
  // Paper example: 64 machines, 1-year per-machine MTBF, 2-min checkpoint.
  double mtbf_cluster = 365.0 * 24 * 3600 / 64.0;  // seconds
  double interval = OptimalCheckpointIntervalSeconds(120.0, mtbf_cluster);
  // "leads to optimal checkpoint intervals of 3 hrs" (Sec. 4.3).
  EXPECT_NEAR(interval / 3600.0, 3.0, 0.35);
}

/// Runs distributed PageRank with the given snapshot mode; returns the
/// gathered post-run ranks and keeps journals in `dir`.
struct SnapRun {
  std::vector<double> ranks;
  uint64_t updates = 0;
};

SnapRun RunWithSnapshot(const std::string& dir, SnapshotMode mode,
                        size_t machines, rpc::TransportKind kind) {
  auto structure = gen::PowerLawWeb(600, 5, 0.8, 33);
  auto global = BuildPageRankGraph(structure);
  auto colors = GreedyColoring(structure);
  auto atom_of = RandomPartition(structure.num_vertices, machines, 5);
  std::vector<rpc::MachineId> placement(machines);
  for (size_t i = 0; i < machines; ++i) placement[i] = i;

  rpc::Runtime runtime(testutil::ClusterFor(kind, machines));
  testutil::ClusterAllreduce allreduce(&runtime, 1);
  std::vector<DPRGraph> graphs(machines);
  std::atomic<uint64_t> updates{0};

  runtime.Run([&](rpc::MachineContext& ctx) {
    DPRGraph& graph = graphs[ctx.id];
    ASSERT_TRUE(graph
                    .InitFromGlobal(global, atom_of, colors, placement,
                                    ctx.id, &ctx.comm())
                    .ok());
    SnapshotManager<PageRankVertex, PageRankEdge> snapshot(ctx, &graph, dir);
    ctx.barrier().Wait(ctx.id);
    EngineOptions opts;
    opts.num_threads = 2;
    opts.scheduler = "fifo";
    opts.max_pipeline_length = 32;
    opts.snapshot_mode = mode;
    opts.snapshot_trigger_updates = mode == SnapshotMode::kNone ? 0 : 200;
    DistributedEngineDeps<PageRankVertex, PageRankEdge> deps;
    deps.allreduce = &allreduce.at(ctx.id);
    deps.snapshot = &snapshot;
    auto engine =
        std::move(CreateEngine("locking", ctx, &graph, opts, deps).value());
    engine->SetUpdateFn(MakePageRankUpdateFn<DPRGraph>(0.85, 1e-7));
    engine->ScheduleAll();
    RunResult r = engine->Start();
    if (ctx.id == 0) updates.store(r.updates);
  });

  SnapRun out;
  out.updates = updates.load();
  out.ranks.assign(structure.num_vertices, 0.0);
  for (auto& graph : graphs) {
    for (LocalVid l : graph.owned_vertices()) {
      out.ranks[graph.Gvid(l)] = graph.vertex_data(l).rank;
    }
  }
  return out;
}

TEST_P(SnapshotTest, SynchronousSnapshotWritesAllMachines) {
  SnapRun run =
      RunWithSnapshot(dir_, SnapshotMode::kSynchronous, 3, GetParam());
  EXPECT_GT(run.updates, 600u);
  for (int m = 0; m < 3; ++m) {
    EXPECT_TRUE(std::filesystem::exists(
        dir_ + "/snap_1_m" + std::to_string(m) + ".glsnap"))
        << "machine " << m << " journal missing";
  }
}

/// Decodes the owned-vertex section of a full journal: gvid -> rank.
std::map<VertexId, double> JournalRanks(const std::string& path) {
  std::map<VertexId, double> ranks;
  auto bytes = ReadFileBytes(path);
  EXPECT_TRUE(bytes.ok()) << path;
  if (!bytes.ok()) return ranks;
  uint32_t crc = 0;
  std::vector<char> body;
  EXPECT_TRUE(ParseV3Envelope(*bytes, &crc, &body)) << path;
  InArchive ia(body.data(), body.size());
  std::string col;
  ia >> col;
  std::vector<VertexId> gvids;
  EXPECT_TRUE(ia.ok() && DecodeColumn<VertexId>(col, &gvids)) << path;
  for (VertexId gvid : gvids) {
    PageRankVertex data;
    ia >> data;
    EXPECT_TRUE(ranks.emplace(gvid, data.rank).second)
        << "vertex " << gvid << " journaled twice in " << path;
  }
  EXPECT_TRUE(ia.ok()) << path;
  return ranks;
}

TEST_P(SnapshotTest, AsynchronousSnapshotCoversEveryVertex) {
  SnapRun run =
      RunWithSnapshot(dir_, SnapshotMode::kAsynchronous, 3, GetParam());
  EXPECT_GT(run.updates, 600u);
  // Every journal is a v3 full journal and, combined, the journals
  // contain every vertex exactly once.
  std::set<VertexId> seen;
  for (rpc::MachineId m = 0; m < 3; ++m) {
    const std::string path = SnapshotJournalPath(dir_, 1, m);
    ASSERT_TRUE(std::filesystem::exists(path));
    auto bytes = ReadFileBytes(path);
    ASSERT_TRUE(bytes.ok());
    EXPECT_TRUE(VerifyFullJournalBytes(*bytes, path).ok());
    for (const auto& [gvid, rank] : JournalRanks(path)) {
      EXPECT_TRUE(seen.insert(gvid).second)
          << "vertex " << gvid << " journaled twice";
    }
  }
  EXPECT_EQ(seen.size(), 600u);
}

/// Snapshots a 2-machine run in `mode`, then restores the journals onto a
/// freshly loaded, clobbered partition: every owned vertex must hold its
/// journaled value and every ghost must agree with its owner.
void ExpectRestoreRoundTrip(const std::string& dir, SnapshotMode mode,
                            rpc::TransportKind kind) {
  RunWithSnapshot(dir, mode, 2, kind);
  std::vector<std::map<VertexId, double>> journaled = {
      JournalRanks(SnapshotJournalPath(dir, 1, 0)),
      JournalRanks(SnapshotJournalPath(dir, 1, 1))};

  // The run's graphs hold a pointer to the old runtime's comm layer,
  // which is destroyed; rebuild distributed state in a fresh runtime.
  auto structure = gen::PowerLawWeb(600, 5, 0.8, 33);
  auto global = BuildPageRankGraph(structure);
  auto colors = GreedyColoring(structure);
  auto atom_of = RandomPartition(structure.num_vertices, 2, 5);
  std::vector<rpc::MachineId> placement = {0, 1};
  rpc::Runtime runtime(testutil::ClusterFor(kind, 2));
  std::vector<DPRGraph> fresh(2);
  std::vector<std::map<VertexId, double>> restored(2);
  runtime.Run([&](rpc::MachineContext& ctx) {
    DPRGraph& graph = fresh[ctx.id];
    ASSERT_TRUE(graph
                    .InitFromGlobal(global, atom_of, colors, placement,
                                    ctx.id, &ctx.comm())
                    .ok());
    SnapshotManager<PageRankVertex, PageRankEdge> snapshot(ctx, &graph, dir);
    for (LocalVid l : graph.owned_vertices()) {
      graph.vertex_data(l).rank = -7.0;
      graph.MarkVertexModified(l);
    }
    ctx.barrier().Wait(ctx.id);
    ASSERT_TRUE(snapshot.Restore(1).ok());
    ctx.flush().Run(ctx.id);
    for (LocalVid l : graph.owned_vertices()) {
      restored[ctx.id][graph.Gvid(l)] = graph.vertex_data(l).rank;
    }
  });

  // Owned data equals the journal, which holds mid-run progress.
  size_t moved = 0;
  for (int m = 0; m < 2; ++m) {
    EXPECT_EQ(restored[m], journaled[m]) << "machine " << m;
    for (const auto& [gvid, rank] : restored[m]) {
      if (std::fabs(rank - 1.0) > 1e-12) moved++;
    }
  }
  EXPECT_EQ(restored[0].size() + restored[1].size(), 600u);
  EXPECT_GT(moved, 100u) << "snapshot appears to hold pre-run state only";
  // Ghost coherence after restore.
  for (int m = 0; m < 2; ++m) {
    for (LocalVid l = 0; l < fresh[m].num_local_vertices(); ++l) {
      if (fresh[m].is_owned(l)) continue;
      VertexId gvid = fresh[m].Gvid(l);
      rpc::MachineId owner = fresh[m].owner(l);
      EXPECT_DOUBLE_EQ(fresh[m].vertex_data(l).rank, restored[owner][gvid]);
    }
  }
}

TEST_P(SnapshotTest, RestoreRecoversJournaledState) {
  ExpectRestoreRoundTrip(dir_, SnapshotMode::kSynchronous, GetParam());
}

TEST_P(SnapshotTest, RestoreRecoversAsynchronousJournal) {
  ExpectRestoreRoundTrip(dir_, SnapshotMode::kAsynchronous, GetParam());
}

TEST_P(SnapshotTest, RestoreRejectsForeignJournal) {
  // Hand machine 0 machine 1's journal under its own name: the records
  // belong to vertices machine 0 does not own, so the same-placement
  // Restore must refuse with Corruption rather than abort.
  RunWithSnapshot(dir_, SnapshotMode::kSynchronous, 2, GetParam());
  std::filesystem::copy_file(
      SnapshotJournalPath(dir_, 1, 1), SnapshotJournalPath(dir_, 1, 0),
      std::filesystem::copy_options::overwrite_existing);

  auto structure = gen::PowerLawWeb(600, 5, 0.8, 33);
  auto global = BuildPageRankGraph(structure);
  auto colors = GreedyColoring(structure);
  auto atom_of = RandomPartition(structure.num_vertices, 2, 5);
  std::vector<rpc::MachineId> placement = {0, 1};
  rpc::Runtime runtime(testutil::ClusterFor(GetParam(), 2));
  std::vector<DPRGraph> fresh(2);
  std::vector<Status> status(2);
  runtime.Run([&](rpc::MachineContext& ctx) {
    DPRGraph& graph = fresh[ctx.id];
    ASSERT_TRUE(graph
                    .InitFromGlobal(global, atom_of, colors, placement,
                                    ctx.id, &ctx.comm())
                    .ok());
    SnapshotManager<PageRankVertex, PageRankEdge> snapshot(ctx, &graph, dir_);
    // One machine at a time: the foreign journal writes machine 1's rows
    // on machine 0, the very rows machine 1's re-push writes there, so
    // Restore's disjoint-rows precondition does not hold concurrently.
    ctx.barrier().Wait(ctx.id);
    if (ctx.id == 0) status[0] = snapshot.Restore(1);
    ctx.barrier().Wait(ctx.id);
    if (ctx.id == 1) status[1] = snapshot.Restore(1);
    ctx.flush().Run(ctx.id);
  });
  EXPECT_EQ(status[0].code(), StatusCode::kCorruption) << status[0].message();
  EXPECT_TRUE(status[1].ok()) << status[1].message();
}

TEST_P(SnapshotTest, RestoreOntoShrunkMembershipWithCoalescedSync) {
  // Snapshot a 3-machine run, then restore the SAME atoms onto only 2
  // survivors (machine 2 "died"): every machine replays all three
  // journals — including the dead machine's — keeping the records it now
  // owns, and re-syncs ghosts through coalesced delta batches.  This is
  // exactly the fault runner's restore path.
  SnapRun run =
      RunWithSnapshot(dir_, SnapshotMode::kSynchronous, 3, GetParam());
  (void)run;

  auto structure = gen::PowerLawWeb(600, 5, 0.8, 33);
  auto global = BuildPageRankGraph(structure);
  auto colors = GreedyColoring(structure);
  auto atom_of = RandomPartition(structure.num_vertices, 3, 5);
  AtomIndex meta = BuildMetaIndex(structure, atom_of, colors, 3);
  // The dead machine's atoms re-place across the survivors.
  std::vector<rpc::MachineId> placement =
      PlaceAtomsOnMachines(meta, {0, 1});
  for (rpc::MachineId m : placement) EXPECT_NE(m, 2u);

  rpc::Runtime runtime(testutil::ClusterFor(GetParam(), 2));
  std::vector<DPRGraph> fresh(2);
  std::vector<std::map<VertexId, double>> restored(2);
  std::vector<uint64_t> batches(2, 0);
  runtime.Run([&](rpc::MachineContext& ctx) {
    DPRGraph& graph = fresh[ctx.id];
    ASSERT_TRUE(graph
                    .InitFromGlobal(global, atom_of, colors, placement,
                                    ctx.id, &ctx.comm())
                    .ok());
    graph.SetGhostSyncMode(GhostSyncMode::kCoalesced);
    SnapshotManager<PageRankVertex, PageRankEdge> snapshot(ctx, &graph,
                                                           dir_);
    ctx.barrier().Wait(ctx.id);
    ASSERT_TRUE(snapshot.RestoreFrom(1, {0, 1, 2}).ok());
    // Every replay finishes before any survivor's push lands.
    ctx.barrier().Wait(ctx.id);
    snapshot.RepushOwnedScopes();
    ctx.flush().Run(ctx.id);
    batches[ctx.id] = graph.delta_batches_sent();
    for (LocalVid l : graph.owned_vertices()) {
      restored[ctx.id][graph.Gvid(l)] = graph.vertex_data(l).rank;
    }
  });

  // The survivors own everything, the restored data shows mid-run
  // progress, and the pushes actually traveled as coalesced batches.
  EXPECT_EQ(restored[0].size() + restored[1].size(), 600u);
  EXPECT_GT(batches[0] + batches[1], 0u);
  size_t moved = 0;
  for (const auto& m : restored) {
    for (const auto& [gvid, rank] : m) {
      if (std::fabs(rank - 1.0) > 1e-12) moved++;
    }
  }
  EXPECT_GT(moved, 100u) << "snapshot appears to hold pre-run state only";
  // Ghost coherence across the shrunk membership.
  for (int m = 0; m < 2; ++m) {
    for (LocalVid l = 0; l < fresh[m].num_local_vertices(); ++l) {
      if (fresh[m].is_owned(l)) continue;
      VertexId gvid = fresh[m].Gvid(l);
      rpc::MachineId owner = fresh[m].owner(l);
      EXPECT_DOUBLE_EQ(fresh[m].vertex_data(l).rank, restored[owner][gvid]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Transports, SnapshotTest,
                         ::testing::ValuesIn(testutil::kAllTransports),
                         testutil::KindParamName);

}  // namespace
}  // namespace graphlab
