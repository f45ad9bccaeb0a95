// Durability-layer tests above the WAL: atomic file commits under fault
// injection, the CRC-trailed snapshot manifest, O(dirty) delta
// checkpoints (bytes written scale with the dirty set, restore replays
// base + deltas exactly), and the recovery ladder's fallback to the
// newest fully verifiable manifest chain when committed journals rot.

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <string>
#include <vector>

#include "graphlab/apps/pagerank.h"
#include "graphlab/engine/snapshot.h"
#include "graphlab/fault/ft_runner.h"
#include "graphlab/fault/injection.h"
#include "graphlab/graph/coloring.h"
#include "graphlab/graph/generators.h"
#include "graphlab/graph/partition.h"
#include "graphlab/rpc/runtime.h"
#include "graphlab/util/file_io.h"
#include "tests/transport_param.h"

namespace graphlab {
namespace {

using apps::BuildPageRankGraph;
using apps::PageRankEdge;
using apps::PageRankVertex;
using DPRGraph = DistributedGraph<PageRankVertex, PageRankEdge>;
using Snapshots = SnapshotManager<PageRankVertex, PageRankEdge>;

class DurabilityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::FaultInjection::Instance().Reset();
    std::string name =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    dir_ = (std::filesystem::temp_directory_path() /
            ("gldur_" + std::to_string(::getpid()) + "_" + name))
               .string();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    fault::FaultInjection::Instance().Reset();
    std::filesystem::remove_all(dir_);
  }
  std::string dir_;
};

// ---------------------------------------------------------------------
// File IO primitives
// ---------------------------------------------------------------------

TEST_F(DurabilityTest, ReadFileBytesRejectsDirectoriesAndMissingFiles) {
  // A directory path used to read tellg() == -1 and attempt a
  // near-SIZE_MAX allocation; now it is a plain error.
  auto dir_read = ReadFileBytes(dir_);
  EXPECT_FALSE(dir_read.ok());
  auto missing = ReadFileBytes(dir_ + "/no_such_file");
  EXPECT_FALSE(missing.ok());
}

TEST_F(DurabilityTest, WriteFileAtomicCommitsAndLeavesNoTemp) {
  const std::string path = dir_ + "/data";
  ASSERT_TRUE(WriteFileAtomic(path, std::string("version-1")).ok());
  ASSERT_TRUE(WriteFileAtomic(path, std::string("version-2")).ok());
  auto bytes = ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(std::string(bytes->data(), bytes->size()), "version-2");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST_F(DurabilityTest, TornWriteNeverDamagesTheCommittedFile) {
  const std::string path = dir_ + "/data";
  ASSERT_TRUE(WriteFileAtomic(path, std::string("committed")).ok());

  fault::FaultInjection::Instance().ArmTornWrite("data", /*byte_offset=*/3);
  Status s = WriteFileAtomic(path, std::string("replacement-payload"));
  EXPECT_FALSE(s.ok());

  auto bytes = ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(std::string(bytes->data(), bytes->size()), "committed");
}

TEST_F(DurabilityTest, CrashBeforeCommitKeepsThePreviousVersion) {
  const std::string path = dir_ + "/data";
  ASSERT_TRUE(WriteFileAtomic(path, std::string("committed")).ok());

  fault::FaultInjection::Instance().ArmCrashBeforeCommit("data");
  EXPECT_FALSE(WriteFileAtomic(path, std::string("next")).ok());

  // The payload is durable under the temp name but the commit point —
  // the rename — never happened.
  auto bytes = ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(std::string(bytes->data(), bytes->size()), "committed");

  // Disarmed again: the next commit goes through.
  ASSERT_TRUE(WriteFileAtomic(path, std::string("next")).ok());
  bytes = ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(std::string(bytes->data(), bytes->size()), "next");
}

TEST_F(DurabilityTest, MissingFileArmDeletesTheCommittedFile) {
  const std::string path = dir_ + "/data";
  fault::FaultInjection::Instance().ArmMissingFile("data");
  WriteFileAtomic(path, std::string("gone"));
  EXPECT_FALSE(std::filesystem::exists(path));
}

// ---------------------------------------------------------------------
// Manifest encode / decode
// ---------------------------------------------------------------------

TEST_F(DurabilityTest, ManifestRoundTripsThroughDiskAndChain) {
  SnapshotManifest m;
  m.epoch = 7;
  m.machines = {0, 1, 2};
  m.base_epoch = 5;
  m.delta_epochs = {6, 7};
  ASSERT_TRUE(WriteSnapshotManifest(dir_, m).ok());

  for (const auto* path : {"LATEST", "MANIFEST_7"}) {
    auto got = ReadManifestFile(dir_ + "/" + path);
    ASSERT_TRUE(got.ok()) << path;
    EXPECT_EQ(got->epoch, 7u);
    EXPECT_EQ(got->machines, m.machines);
    EXPECT_EQ(got->base_epoch, 5u);
    EXPECT_EQ(got->delta_epochs, m.delta_epochs);
  }
}

TEST_F(DurabilityTest, ManifestDetectsEveryOneByteCorruption) {
  SnapshotManifest m;
  m.epoch = 3;
  m.machines = {0, 1};
  m.base_epoch = 1;
  m.delta_epochs = {2, 3};
  const std::vector<char> clean = EncodeSnapshotManifest(m);
  ASSERT_TRUE(DecodeSnapshotManifest(clean, "clean").ok());

  // The CRC trailer covers the whole payload and the payload check
  // covers the trailer: no single-byte flip may decode.
  for (size_t offset = 0; offset < clean.size(); ++offset) {
    std::vector<char> bytes = clean;
    bytes[offset] = static_cast<char>(bytes[offset] ^ 0x10);
    EXPECT_FALSE(DecodeSnapshotManifest(bytes, "flipped").ok())
        << "flip at " << offset;
  }
  for (size_t len = 0; len < clean.size(); ++len) {
    std::vector<char> bytes(clean.begin(), clean.begin() + len);
    EXPECT_FALSE(DecodeSnapshotManifest(bytes, "truncated").ok())
        << "truncated to " << len;
  }
}

// ---------------------------------------------------------------------
// Delta checkpoints + the recovery ladder
// ---------------------------------------------------------------------

/// Single-machine in-process cluster: full snapshot (epoch 1), dirty a
/// few vertices, delta snapshot (epoch 2), full snapshot (epoch 3) —
/// then exercise byte ratios, chain restore, and ladder fallbacks.
TEST_F(DurabilityTest, DeltaChainRestoreAndCorruptionLadder) {
  auto structure = gen::PowerLawWeb(600, 5, 0.8, 33);
  auto global = BuildPageRankGraph(structure);
  auto colors = GreedyColoring(structure);
  auto atom_of = RandomPartition(structure.num_vertices, 4, 5);
  std::vector<rpc::MachineId> placement(4, 0);

  rpc::Runtime runtime(
      testutil::ClusterFor(rpc::TransportKind::kInProcess, 1));
  runtime.Run([&](rpc::MachineContext& ctx) {
    DPRGraph graph;
    ASSERT_TRUE(graph
                    .InitFromGlobal(global, atom_of, colors, placement,
                                    ctx.id, &ctx.comm())
                    .ok());
    Snapshots snapshots(ctx, &graph, dir_);

    // --- Epoch 1: full snapshot establishes the dirty baseline.
    EXPECT_FALSE(snapshots.WriteDeltaSnapshot(1).ok())
        << "delta without a baseline must be refused";
    ASSERT_TRUE(snapshots.WriteSyncSnapshot(1).ok());
    ASSERT_TRUE(snapshots.has_baseline());
    const uint64_t full_bytes = snapshots.last_checkpoint_bytes();
    ASSERT_GT(full_bytes, 0u);
    EXPECT_DOUBLE_EQ(snapshots.DirtyFraction(), 0.0);
    // No baseline existed when the full wrote: its piggybacked dirtiness
    // measurement is "unknown", not "everything dirty".
    EXPECT_EQ(snapshots.last_total_entities(), 0u);

    // --- Dirty ~8% of the vertices, then delta at epoch 2.
    for (LocalVid l : graph.owned_vertices()) {
      if (graph.Gvid(l) % 13 != 0) continue;
      graph.vertex_data(l).rank += 0.5;
      graph.MarkVertexModified(l);
    }
    const double dirty = snapshots.DirtyFraction();
    EXPECT_GT(dirty, 0.0);
    EXPECT_LT(dirty, 0.10);  // vertices and edges both count
    ASSERT_TRUE(snapshots.WriteDeltaSnapshot(2).ok());
    const uint64_t delta_bytes = snapshots.last_checkpoint_bytes();
    ASSERT_GT(delta_bytes, 0u);
    // The delta's scan measured the same dirtiness DirtyFraction saw —
    // these counts are what the coordinator aggregates cluster-wide.
    ASSERT_GT(snapshots.last_total_entities(), 0u);
    EXPECT_DOUBLE_EQ(
        static_cast<double>(snapshots.last_dirty_entities()) /
            static_cast<double>(snapshots.last_total_entities()),
        dirty);
    // The O(dirty) claim, as CI asserts it from BENCH_recovery.json.
    EXPECT_LT(delta_bytes, full_bytes / 4)
        << "delta of a <10%-dirty graph must be <25% of a full snapshot";

    SnapshotManifest m1;
    m1.epoch = 1;
    m1.machines = {0};
    m1.base_epoch = 1;
    ASSERT_TRUE(WriteSnapshotManifest(dir_, m1).ok());
    SnapshotManifest m2 = m1;
    m2.epoch = 2;
    m2.delta_epochs = {2};
    ASSERT_TRUE(WriteSnapshotManifest(dir_, m2).ok());

    std::vector<double> expected(structure.num_vertices, 0.0);
    for (LocalVid l : graph.owned_vertices()) {
      expected[graph.Gvid(l)] = graph.vertex_data(l).rank;
    }

    // --- Scribble everything, then replay base + delta.
    for (LocalVid l : graph.owned_vertices()) {
      graph.vertex_data(l).rank = -1.0;
      graph.MarkVertexModified(l);
    }
    ASSERT_TRUE(snapshots.RestoreChain(m2).ok());
    for (LocalVid l : graph.owned_vertices()) {
      EXPECT_DOUBLE_EQ(graph.vertex_data(l).rank, expected[graph.Gvid(l)])
          << "gvid " << graph.Gvid(l);
    }
    EXPECT_FALSE(snapshots.has_baseline())
        << "restore must invalidate the delta baseline";

    // --- Ladder, uncorrupted: resolves the newest chain.
    fault::VerifiedChain chain = fault::ResolveVerifiedChain(dir_);
    ASSERT_TRUE(chain.found);
    EXPECT_EQ(chain.manifest.epoch, 2u);
    EXPECT_EQ(chain.corrupt_journals, 0u);

    // --- Corrupt the newest delta: the chain truncates to its base.
    ASSERT_TRUE(fault::FaultInjection::FlipBit(
                    SnapshotDeltaPath(dir_, 2, 0), /*bit_index=*/8 * 20)
                    .ok());
    chain = fault::ResolveVerifiedChain(dir_);
    ASSERT_TRUE(chain.found);
    EXPECT_EQ(chain.manifest.epoch, 1u);
    EXPECT_TRUE(chain.manifest.delta_epochs.empty());
    EXPECT_GE(chain.corrupt_journals, 1u);

    // --- Epoch 3: a fresh full snapshot on top (state after restore).
    ASSERT_TRUE(snapshots.WriteSyncSnapshot(3).ok());
    SnapshotManifest m3;
    m3.epoch = 3;
    m3.machines = {0};
    m3.base_epoch = 3;
    ASSERT_TRUE(WriteSnapshotManifest(dir_, m3).ok());
    chain = fault::ResolveVerifiedChain(dir_);
    ASSERT_TRUE(chain.found);
    EXPECT_EQ(chain.manifest.epoch, 3u);

    // --- Corrupt epoch 3's base journal: LATEST and MANIFEST_3 are
    // rejected and the ladder falls back to MANIFEST_1 (epoch 2's chain
    // still references the delta corrupted above).
    ASSERT_TRUE(fault::FaultInjection::FlipBit(
                    SnapshotJournalPath(dir_, 3, 0), /*bit_index=*/8 * 40)
                    .ok());
    chain = fault::ResolveVerifiedChain(dir_);
    ASSERT_TRUE(chain.found);
    EXPECT_EQ(chain.manifest.epoch, 1u);
    EXPECT_GE(chain.corrupt_journals, 2u);

    // The surviving rung still restores cleanly: epoch 1's values.
    ASSERT_TRUE(snapshots.RestoreChain(chain.manifest).ok());
    for (LocalVid l : graph.owned_vertices()) {
      const double want = graph.Gvid(l) % 13 == 0
                              ? expected[graph.Gvid(l)] - 0.5
                              : expected[graph.Gvid(l)];
      EXPECT_DOUBLE_EQ(graph.vertex_data(l).rank, want)
          << "gvid " << graph.Gvid(l);
    }

    // --- Missing journal counts as corrupt: remove epoch 1's journal
    // and no rung survives.  Each distinct corrupt file counts once:
    // snap_3 and the missing snap_1 (delta_2 is never probed — every
    // chain referencing it already died at its base).
    ASSERT_TRUE(std::filesystem::remove(SnapshotJournalPath(dir_, 1, 0)));
    chain = fault::ResolveVerifiedChain(dir_);
    EXPECT_FALSE(chain.found);
    EXPECT_EQ(chain.corrupt_journals, 2u);
  });
}

/// Journal verifiers: v3 full journals carry a CRC over the columnar
/// body; delta journals verify through the WAL reader.
TEST_F(DurabilityTest, JournalVerifiersCatchBitRot) {
  auto structure = gen::PowerLawWeb(200, 4, 0.8, 11);
  auto global = BuildPageRankGraph(structure);
  auto colors = GreedyColoring(structure);
  auto atom_of = RandomPartition(structure.num_vertices, 2, 5);
  std::vector<rpc::MachineId> placement(2, 0);

  rpc::Runtime runtime(
      testutil::ClusterFor(rpc::TransportKind::kInProcess, 1));
  runtime.Run([&](rpc::MachineContext& ctx) {
    DPRGraph graph;
    ASSERT_TRUE(graph
                    .InitFromGlobal(global, atom_of, colors, placement,
                                    ctx.id, &ctx.comm())
                    .ok());
    Snapshots snapshots(ctx, &graph, dir_);
    ASSERT_TRUE(snapshots.WriteSyncSnapshot(1).ok());
    graph.vertex_data(graph.owned_vertices()[0]).rank = 9.0;
    graph.MarkVertexModified(graph.owned_vertices()[0]);
    ASSERT_TRUE(snapshots.WriteDeltaSnapshot(2).ok());

    const std::string full_path = SnapshotJournalPath(dir_, 1, 0);
    const std::string delta_path = SnapshotDeltaPath(dir_, 2, 0);
    for (const auto& path : {full_path, delta_path}) {
      auto clean = ReadFileBytes(path);
      ASSERT_TRUE(clean.ok());
      const bool is_delta = path == delta_path;
      auto verify = [&](const std::vector<char>& bytes) {
        return is_delta ? VerifyDeltaJournalBytes(bytes, path)
                        : VerifyFullJournalBytes(bytes, path);
      };
      ASSERT_TRUE(verify(*clean).ok()) << path;

      // Sampled flips across every byte, header included (sampling
      // keeps the test fast on the larger journal).
      for (size_t offset = 0; offset < clean->size();
           offset += 1 + clean->size() / 64) {
        std::vector<char> bytes = *clean;
        bytes[offset] = static_cast<char>(bytes[offset] ^ 0x04);
        EXPECT_FALSE(verify(bytes).ok())
            << path << " flip at " << offset;
      }
    }
  });
}

/// The ladder must resolve the newest VERIFIED epoch across all
/// candidate manifests — not the first candidate whose base happens to
/// verify — and a recovery must retire the epoch numbers and manifests
/// of a rejected timeline so no later resolve can splice two histories.
TEST_F(DurabilityTest, LadderPicksNewestVerifiedEpochAndRetiresStaleTimelines) {
  auto structure = gen::PowerLawWeb(300, 4, 0.8, 17);
  auto global = BuildPageRankGraph(structure);
  auto colors = GreedyColoring(structure);
  auto atom_of = RandomPartition(structure.num_vertices, 2, 5);
  std::vector<rpc::MachineId> placement(2, 0);

  rpc::Runtime runtime(
      testutil::ClusterFor(rpc::TransportKind::kInProcess, 1));
  runtime.Run([&](rpc::MachineContext& ctx) {
    DPRGraph graph;
    ASSERT_TRUE(graph
                    .InitFromGlobal(global, atom_of, colors, placement,
                                    ctx.id, &ctx.comm())
                    .ok());
    Snapshots snapshots(ctx, &graph, dir_);

    // Commit a healthy chain: full epoch 1, delta epoch 2.
    ASSERT_TRUE(snapshots.WriteSyncSnapshot(1).ok());
    SnapshotManifest m1;
    m1.epoch = 1;
    m1.machines = {0};
    m1.base_epoch = 1;
    ASSERT_TRUE(WriteSnapshotManifest(dir_, m1).ok());
    graph.vertex_data(graph.owned_vertices()[0]).rank = 2.0;
    graph.MarkVertexModified(graph.owned_vertices()[0]);
    ASSERT_TRUE(snapshots.WriteDeltaSnapshot(2).ok());
    SnapshotManifest m2 = m1;
    m2.epoch = 2;
    m2.delta_epochs = {2};
    ASSERT_TRUE(WriteSnapshotManifest(dir_, m2).ok());

    // Plant a stale higher-epoch manifest from an abandoned timeline:
    // base 1 verifies, but its delta_9 journal does not exist, so its
    // chain truncates to epoch 1.  A first-valid-base ladder would stop
    // here and roll back past committed epoch 2.
    SnapshotManifest stale;
    stale.epoch = 9;
    stale.machines = {0};
    stale.base_epoch = 1;
    stale.delta_epochs = {9};
    ASSERT_TRUE(WriteFileAtomic(ManifestPathFor(dir_, 9),
                                EncodeSnapshotManifest(stale))
                    .ok());

    fault::VerifiedChain chain = fault::ResolveVerifiedChain(dir_);
    ASSERT_TRUE(chain.found);
    EXPECT_EQ(chain.manifest.epoch, 2u)
        << "a stale candidate's truncated chain must not shadow a "
           "fully-verified newer epoch";
    EXPECT_EQ(chain.manifest.delta_epochs, std::vector<uint32_t>{2});
    EXPECT_GE(chain.corrupt_journals, 1u);  // the missing delta_9

    // Invalidation retires the rejected timeline's manifest; the
    // verified chain's manifests (and LATEST) survive untouched.
    fault::InvalidateStaleManifests(dir_, chain);
    EXPECT_FALSE(std::filesystem::exists(ManifestPathFor(dir_, 9)));
    EXPECT_TRUE(std::filesystem::exists(ManifestPathFor(dir_, 1)));
    EXPECT_TRUE(std::filesystem::exists(ManifestPathFor(dir_, 2)));
    auto latest = ReadSnapshotManifest(dir_);
    ASSERT_TRUE(latest.ok());
    EXPECT_EQ(latest->epoch, 2u);
    EXPECT_EQ(fault::MaxEpochOnDisk(dir_), 2u);

    // Now force a step-down: corrupt delta 2.  The resolve truncates to
    // epoch 1; invalidation must delete MANIFEST_2, re-point LATEST at
    // the verified epoch, and epoch numbering must resume ABOVE the
    // corrupt epoch (its journal file stays on disk precisely so the
    // number stays retired), never at restored_epoch + 1 == 2.
    ASSERT_TRUE(fault::FaultInjection::FlipBit(
                    SnapshotDeltaPath(dir_, 2, 0), /*bit_index=*/8 * 16)
                    .ok());
    chain = fault::ResolveVerifiedChain(dir_);
    ASSERT_TRUE(chain.found);
    EXPECT_EQ(chain.manifest.epoch, 1u);
    fault::InvalidateStaleManifests(dir_, chain);
    EXPECT_FALSE(std::filesystem::exists(ManifestPathFor(dir_, 2)));
    latest = ReadSnapshotManifest(dir_);
    ASSERT_TRUE(latest.ok());
    EXPECT_EQ(latest->epoch, 1u);
    EXPECT_TRUE(latest->delta_epochs.empty());
    EXPECT_EQ(fault::MaxEpochOnDisk(dir_), 2u)
        << "the corrupt epoch's journal must keep its number retired";
    const uint32_t next_epoch = fault::MaxEpochOnDisk(dir_) + 1;
    EXPECT_EQ(next_epoch, 3u);

    // The new timeline writes epoch 3 without colliding with anything;
    // the ladder then prefers it and the step-down never resurfaces.
    ASSERT_TRUE(snapshots.WriteSyncSnapshot(next_epoch).ok());
    SnapshotManifest m3;
    m3.epoch = next_epoch;
    m3.machines = {0};
    m3.base_epoch = next_epoch;
    ASSERT_TRUE(WriteSnapshotManifest(dir_, m3).ok());
    chain = fault::ResolveVerifiedChain(dir_);
    ASSERT_TRUE(chain.found);
    EXPECT_EQ(chain.manifest.epoch, 3u);
  });
}

/// A full journal verifies only as a whole, well-formed v3 envelope:
/// every truncation, an empty file, and a damaged magic, version or
/// length field are Corruption — never a vacuous pass.
TEST_F(DurabilityTest, FullJournalVerifierRejectsMalformedEnvelopes) {
  auto structure = gen::PowerLawWeb(200, 4, 0.8, 23);
  auto global = BuildPageRankGraph(structure);
  auto colors = GreedyColoring(structure);
  auto atom_of = RandomPartition(structure.num_vertices, 2, 5);
  std::vector<rpc::MachineId> placement(2, 0);

  rpc::Runtime runtime(
      testutil::ClusterFor(rpc::TransportKind::kInProcess, 1));
  runtime.Run([&](rpc::MachineContext& ctx) {
    DPRGraph graph;
    ASSERT_TRUE(graph
                    .InitFromGlobal(global, atom_of, colors, placement,
                                    ctx.id, &ctx.comm())
                    .ok());
    Snapshots snapshots(ctx, &graph, dir_);
    ASSERT_TRUE(snapshots.WriteSyncSnapshot(1).ok());
    const std::string path = SnapshotJournalPath(dir_, 1, 0);
    auto clean = ReadFileBytes(path);
    ASSERT_TRUE(clean.ok());
    ASSERT_GT(clean->size(), kJournalHeaderBytes);
    ASSERT_TRUE(VerifyFullJournalBytes(*clean, path).ok());

    EXPECT_FALSE(VerifyFullJournalBytes({}, path).ok()) << "empty file";
    for (size_t len = 0; len < clean->size(); ++len) {
      std::vector<char> truncated(clean->begin(), clean->begin() + len);
      EXPECT_FALSE(VerifyFullJournalBytes(truncated, path).ok())
          << "truncated to " << len << " bytes";
    }
    for (size_t offset : {0, 1, 6, 7, 8, 9, 10, 11, 12, 13}) {
      std::vector<char> bytes = *clean;
      bytes[offset] = static_cast<char>(bytes[offset] ^ 0x01);
      EXPECT_FALSE(VerifyFullJournalBytes(bytes, path).ok())
          << "flip at " << offset;
    }
  });
}

/// A truncated base journal makes its chain unusable: the ladder steps
/// down to the older epoch, whose chain RestoreChain then accepts.
TEST_F(DurabilityTest, LadderStepsDownPastTruncatedBaseJournal) {
  auto structure = gen::PowerLawWeb(200, 4, 0.8, 29);
  auto global = BuildPageRankGraph(structure);
  auto colors = GreedyColoring(structure);
  auto atom_of = RandomPartition(structure.num_vertices, 2, 5);
  std::vector<rpc::MachineId> placement(2, 0);

  rpc::Runtime runtime(
      testutil::ClusterFor(rpc::TransportKind::kInProcess, 1));
  runtime.Run([&](rpc::MachineContext& ctx) {
    DPRGraph graph;
    ASSERT_TRUE(graph
                    .InitFromGlobal(global, atom_of, colors, placement,
                                    ctx.id, &ctx.comm())
                    .ok());
    Snapshots snapshots(ctx, &graph, dir_);
    for (uint32_t epoch : {1u, 2u}) {
      ASSERT_TRUE(snapshots.WriteSyncSnapshot(epoch).ok());
      SnapshotManifest m;
      m.epoch = epoch;
      m.machines = {0};
      m.base_epoch = epoch;
      ASSERT_TRUE(WriteSnapshotManifest(dir_, m).ok());
    }
    const std::string path = SnapshotJournalPath(dir_, 2, 0);
    auto bytes = ReadFileBytes(path);
    ASSERT_TRUE(bytes.ok());
    bytes->resize(bytes->size() / 2);
    ASSERT_TRUE(WriteFileAtomic(path, *bytes).ok());

    fault::VerifiedChain chain = fault::ResolveVerifiedChain(dir_);
    ASSERT_TRUE(chain.found);
    EXPECT_EQ(chain.manifest.epoch, 1u);
    EXPECT_EQ(chain.corrupt_journals, 1u);
    EXPECT_TRUE(snapshots.RestoreChain(chain.manifest).ok());
  });
}

}  // namespace
}  // namespace graphlab
