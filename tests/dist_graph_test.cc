// Tests for DistributedGraph: ingress (direct and via atom files), ghost
// placement, versioned coherence pushes, coalesced delta batches, bulk
// flush, and ownership maps — parameterized over both interconnect
// backends (simulated in-process and real TCP loopback sockets), so the
// serialization discipline is proven against a real process-boundary-
// shaped wire, not just the simulator.

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <mutex>
#include <string>
#include <string_view>

#include "graphlab/graph/atom.h"
#include "graphlab/graph/coloring.h"
#include "graphlab/graph/column_codec.h"
#include "graphlab/graph/distributed_graph.h"
#include "graphlab/graph/generators.h"
#include "graphlab/graph/partition.h"
#include "graphlab/rpc/runtime.h"
#include "graphlab/util/random.h"
#include "tests/transport_param.h"

namespace graphlab {
namespace {

struct TV {
  double x = 0;
  uint32_t snapshot_epoch = 0;
  void Save(OutArchive* oa) const { *oa << x << snapshot_epoch; }
  void Load(InArchive* ia) { *ia >> x >> snapshot_epoch; }
};
struct TE {
  double w = 0;
  void Save(OutArchive* oa) const { *oa << w; }
  void Load(InArchive* ia) { *ia >> w; }
};

using DGraph = DistributedGraph<TV, TE>;
using LGraph = LocalGraph<TV, TE>;

/// Builds a path graph 0-1-2-...-(n-1) with x = vid, w = eid.
LGraph PathGraph(size_t n) {
  LGraph g;
  for (size_t i = 0; i < n; ++i) g.AddVertex({static_cast<double>(i), 0});
  for (size_t i = 0; i + 1 < n; ++i) {
    g.AddEdge(static_cast<VertexId>(i), static_cast<VertexId>(i + 1),
              {static_cast<double>(i)});
  }
  g.Finalize();
  return g;
}

/// One entity of a hand-built ghost frame.
struct VertexPush {
  VertexId gvid;
  uint64_t version;
  TV data;
};
struct EdgePush {
  VertexId src, dst;
  uint64_t version;
  TE data;
};

/// Hand-builds a ghost frame in the documented v3 wire layout: the format
/// byte, then per section the coded key and version columns and the
/// blobs, with the entities in the order given.
std::string MakeFrame(const std::vector<VertexPush>& vertices,
                      const std::vector<EdgePush>& edges = {}) {
  std::string frame(1, static_cast<char>(kGhostFrameVersion));
  std::vector<VertexId> ids, dsts;
  std::vector<uint64_t> versions;
  OutArchive blobs;
  for (const auto& v : vertices) {
    ids.push_back(v.gvid);
    versions.push_back(v.version);
    blobs << v.data;
  }
  EncodeColumn<VertexId>(ids, &frame);
  EncodeColumn<uint64_t>(versions, &frame);
  frame.append(blobs.buffer().data(), blobs.size());
  ids.clear();
  versions.clear();
  blobs.Clear();
  for (const auto& e : edges) {
    ids.push_back(e.src);
    dsts.push_back(e.dst);
    versions.push_back(e.version);
    blobs << e.data;
  }
  EncodeColumn<VertexId>(ids, &frame);
  EncodeColumn<VertexId>(dsts, &frame);
  EncodeColumn<uint64_t>(versions, &frame);
  frame.append(blobs.buffer().data(), blobs.size());
  return frame;
}

void Apply(DGraph& graph, std::string_view frame) {
  InArchive ia(frame.data(), frame.size());
  graph.ApplyDataPush(ia);
}

class DistributedGraphTest
    : public ::testing::TestWithParam<rpc::TransportKind> {
 protected:
  rpc::ClusterOptions TestCluster(size_t machines) {
    return testutil::ClusterFor(GetParam(), machines);
  }
};

TEST_P(DistributedGraphTest, PartitionsAndGhosts) {
  LGraph g = PathGraph(12);
  auto structure = g.Structure();
  auto atom_of = BlockPartition(12, 3);  // 0-3 | 4-7 | 8-11
  auto colors = GreedyColoring(structure);
  std::vector<rpc::MachineId> placement = {0, 1, 2};

  rpc::Runtime runtime(TestCluster(3));
  std::vector<DGraph> graphs(3);
  runtime.Run([&](rpc::MachineContext& ctx) {
    ASSERT_TRUE(graphs[ctx.id]
                    .InitFromGlobal(g, atom_of, colors, placement, ctx.id,
                                    &ctx.comm())
                    .ok());
  });

  // Machine 1 owns 4..7, has ghosts 3 and 8, and edges 3-4..7-8 (5 edges).
  DGraph& m1 = graphs[1];
  EXPECT_EQ(m1.num_owned_vertices(), 4u);
  EXPECT_EQ(m1.num_local_vertices(), 6u);
  EXPECT_EQ(m1.num_local_edges(), 5u);
  EXPECT_FALSE(m1.is_owned(m1.Lvid(3)));
  EXPECT_TRUE(m1.is_owned(m1.Lvid(4)));
  EXPECT_EQ(m1.owner(m1.Lvid(3)), 0u);
  EXPECT_EQ(m1.OwnerOfGlobal(11), 2u);
  // Ghost data was loaded.
  EXPECT_EQ(m1.vertex_data(m1.Lvid(3)).x, 3.0);

  // Scope machines of boundary vertex 4: {0, 1}.
  auto sm = m1.scope_machines(m1.Lvid(4));
  ASSERT_EQ(sm.size(), 2u);
  EXPECT_EQ(sm[0], 0u);
  EXPECT_EQ(sm[1], 1u);
  // Interior vertex 6: {1} only... 6 neighbors 5 and 7, both owned by 1.
  EXPECT_EQ(m1.scope_machines(m1.Lvid(6)).size(), 1u);
}

TEST_P(DistributedGraphTest, GhostPushPropagates) {
  LGraph g = PathGraph(8);
  auto structure = g.Structure();
  auto atom_of = BlockPartition(8, 2);
  auto colors = GreedyColoring(structure);
  std::vector<rpc::MachineId> placement = {0, 1};

  rpc::Runtime runtime(TestCluster(2));
  std::vector<DGraph> graphs(2);
  runtime.Run([&](rpc::MachineContext& ctx) {
    ASSERT_TRUE(graphs[ctx.id]
                    .InitFromGlobal(g, atom_of, colors, placement, ctx.id,
                                    &ctx.comm())
                    .ok());
    ctx.barrier().Wait(ctx.id);
    if (ctx.id == 0) {
      // Modify boundary vertex 3 (ghosted on machine 1) and its edge 3-4.
      LocalVid l = graphs[0].Lvid(3);
      graphs[0].vertex_data(l).x = 333.0;
      graphs[0].MarkVertexModified(l);
      LocalEid e = graphs[0].LeidOf(3, 4);
      graphs[0].edge_data(e).w = 34.0;
      graphs[0].MarkEdgeModified(e);
      graphs[0].FlushVertexScope(l);
    }
    ctx.flush().Run(ctx.id);
    if (ctx.id == 1) {
      EXPECT_EQ(graphs[1].vertex_data(graphs[1].Lvid(3)).x, 333.0);
      EXPECT_EQ(graphs[1].edge_data(graphs[1].LeidOf(3, 4)).w, 34.0);
    }
  });
}

TEST_P(DistributedGraphTest, VersioningSkipsUnchangedData) {
  LGraph g = PathGraph(8);
  auto structure = g.Structure();
  auto atom_of = BlockPartition(8, 2);
  auto colors = GreedyColoring(structure);
  std::vector<rpc::MachineId> placement = {0, 1};

  rpc::Runtime runtime(TestCluster(2));
  std::vector<DGraph> graphs(2);
  runtime.Run([&](rpc::MachineContext& ctx) {
    ASSERT_TRUE(graphs[ctx.id]
                    .InitFromGlobal(g, atom_of, colors, placement, ctx.id,
                                    &ctx.comm())
                    .ok());
    ctx.barrier().Wait(ctx.id);
    if (ctx.id == 0) {
      LocalVid l = graphs[0].Lvid(3);
      graphs[0].MarkVertexModified(l);
      graphs[0].FlushVertexScope(l);
      uint64_t sent_after_first = graphs[0].pushes_sent();
      EXPECT_GT(sent_after_first, 0u);
      // Second flush with no modification: nothing to send.
      graphs[0].FlushVertexScope(l);
      EXPECT_EQ(graphs[0].pushes_sent(), sent_after_first);
      EXPECT_GT(graphs[0].pushes_skipped(), 0u);
    }
    ctx.barrier().Wait(ctx.id);
  });
}

// Regression for the per-scope flush inefficiency: flushing a scope in
// which nothing changed must not put ANY message on the wire — no empty
// archives per destination, no frames at all.
TEST_P(DistributedGraphTest, FlushUnmodifiedScopeSendsNoMessages) {
  LGraph g = PathGraph(8);
  auto atom_of = BlockPartition(8, 2);
  auto colors = GreedyColoring(g.Structure());
  std::vector<rpc::MachineId> placement = {0, 1};

  rpc::Runtime runtime(TestCluster(2));
  std::vector<DGraph> graphs(2);
  runtime.Run([&](rpc::MachineContext& ctx) {
    ASSERT_TRUE(graphs[ctx.id]
                    .InitFromGlobal(g, atom_of, colors, placement, ctx.id,
                                    &ctx.comm())
                    .ok());
    ctx.barrier().Wait(ctx.id);
    if (ctx.id == 0) {
      // Ship the boundary scope once so versions are settled.
      LocalVid l = graphs[0].Lvid(3);
      graphs[0].MarkVertexModified(l);
      graphs[0].FlushVertexScope(l);
      const uint64_t msgs_after_first =
          ctx.comm().GetStats(ctx.id).messages_sent;
      EXPECT_GT(msgs_after_first, 0u);
      // Unmodified flushes — boundary and interior scopes alike — must
      // add zero messages to CommStats.
      for (int i = 0; i < 5; ++i) {
        for (LocalVid owned : graphs[0].owned_vertices()) {
          graphs[0].FlushVertexScope(owned);
        }
      }
      EXPECT_EQ(ctx.comm().GetStats(ctx.id).messages_sent, msgs_after_first)
          << "unmodified scope flushes put frames on the wire";
    }
    ctx.barrier().Wait(ctx.id);
  });
}

// Coalesced mode: repeated writes to the same ghosted entity within one
// flush window must merge into a single framed delta batch per peer
// carrying the final value.
TEST_P(DistributedGraphTest, CoalescedWindowMergesRepeatedWrites) {
  LGraph g = PathGraph(8);
  auto atom_of = BlockPartition(8, 2);
  auto colors = GreedyColoring(g.Structure());
  std::vector<rpc::MachineId> placement = {0, 1};

  rpc::Runtime runtime(TestCluster(2));
  std::vector<DGraph> graphs(2);
  runtime.Run([&](rpc::MachineContext& ctx) {
    ASSERT_TRUE(graphs[ctx.id]
                    .InitFromGlobal(g, atom_of, colors, placement, ctx.id,
                                    &ctx.comm())
                    .ok());
    ctx.barrier().Wait(ctx.id);
    if (ctx.id == 0) {
      graphs[0].SetGhostSyncMode(GhostSyncMode::kCoalesced);
      const uint64_t msgs_before = ctx.comm().GetStats(ctx.id).messages_sent;
      LocalVid l = graphs[0].Lvid(3);
      // Three writes to the same boundary vertex within one window.
      for (double v : {10.0, 20.0, 30.0}) {
        graphs[0].vertex_data(l).x = v;
        graphs[0].MarkVertexModified(l);
        graphs[0].FlushVertexScope(l);
      }
      EXPECT_EQ(ctx.comm().GetStats(ctx.id).messages_sent, msgs_before)
          << "staged writes left before the window closed";
      EXPECT_EQ(graphs[0].coalesced_merges(), 2u);
      graphs[0].FlushDeltas();
      EXPECT_EQ(ctx.comm().GetStats(ctx.id).messages_sent, msgs_before + 1)
          << "one window must ship exactly one frame to the one peer";
      graphs[0].SetGhostSyncMode(GhostSyncMode::kPerScope);
    }
    ctx.flush().Run(ctx.id);
    if (ctx.id == 1) {
      // The peer observes only the final merged value.
      EXPECT_EQ(graphs[1].vertex_data(graphs[1].Lvid(3)).x, 30.0);
    }
  });
}

TEST_P(DistributedGraphTest, StaleVersionNotApplied) {
  // A push with an older version must not clobber fresher ghost data.
  LGraph g = PathGraph(4);
  auto atom_of = BlockPartition(4, 2);
  auto colors = GreedyColoring(g.Structure());
  std::vector<rpc::MachineId> placement = {0, 1};
  rpc::Runtime runtime(TestCluster(2));
  std::vector<DGraph> graphs(2);

  runtime.Run([&](rpc::MachineContext& ctx) {
    ASSERT_TRUE(graphs[ctx.id]
                    .InitFromGlobal(g, atom_of, colors, placement, ctx.id,
                                    &ctx.comm())
                    .ok());
    ctx.barrier().Wait(ctx.id);
    if (ctx.id == 1) {
      // Craft a stale push (version 0 == initial) for ghosted vertex 1.
      LocalVid l = graphs[1].Lvid(1);
      const std::string stale = MakeFrame({{1, 0, TV{999.0, 0}}});
      InArchive ia(stale.data(), stale.size());
      graphs[1].ApplyDataPush(ia);
      EXPECT_TRUE(ia.ok());
      EXPECT_TRUE(ia.AtEnd());
      EXPECT_EQ(graphs[1].vertex_data(l).x, 1.0) << "stale push applied";
      // A fresh one (version 5) applies.
      Apply(graphs[1], MakeFrame({{1, 5, TV{555.0, 0}}}));
      EXPECT_EQ(graphs[1].vertex_data(l).x, 555.0);
    }
    ctx.barrier().Wait(ctx.id);
  });
}

TEST_P(DistributedGraphTest, TruncatedOrAlienPushDroppedCleanly) {
  // A corrupt ghost frame must not crash or corrupt state: unknown
  // format bytes and truncated frames are logged and dropped.
  LGraph g = PathGraph(4);
  auto atom_of = BlockPartition(4, 2);
  auto colors = GreedyColoring(g.Structure());
  std::vector<rpc::MachineId> placement = {0, 1};
  rpc::Runtime runtime(TestCluster(2));
  std::vector<DGraph> graphs(2);
  runtime.Run([&](rpc::MachineContext& ctx) {
    ASSERT_TRUE(graphs[ctx.id]
                    .InitFromGlobal(g, atom_of, colors, placement, ctx.id,
                                    &ctx.comm())
                    .ok());
    ctx.barrier().Wait(ctx.id);
    if (ctx.id == 1) {
      LocalVid l = graphs[1].Lvid(1);
      const double before = graphs[1].vertex_data(l).x;
      // Old (pre-frame) tag format: leading byte 0 is not a valid format.
      OutArchive alien;
      alien << uint8_t{0} << VertexId{1} << uint64_t{9} << TV{777.0, 0};
      InArchive ia(alien.buffer());
      graphs[1].ApplyDataPush(ia);
      EXPECT_EQ(graphs[1].vertex_data(l).x, before);

      // A v2 frame (raw u32 gvid and u64 version columns behind a u32
      // count) is dropped whole, with the format on the log line.
      OutArchive v2;
      v2 << uint8_t{2} << uint32_t{1} << VertexId{1} << uint64_t{9}
         << TV{777.0, 0} << uint32_t{0};
      ::testing::internal::CaptureStderr();
      InArchive v2_in(v2.buffer());
      graphs[1].ApplyDataPush(v2_in);
      const std::string log = ::testing::internal::GetCapturedStderr();
      EXPECT_NE(log.find("dropping ghost frame with format 2 (want 3)"),
                std::string::npos)
          << log;
      EXPECT_EQ(graphs[1].vertex_data(l).x, before);

      // Valid frame truncated at every prefix: never crashes, never
      // applies a half-read blob.  Prefixes long enough to carry the
      // key and version columns and the whole blob legitimately apply
      // it, so the value is either untouched or final — anything else
      // means a torn read.
      const std::string full = MakeFrame({{1, 9, TV{777.0, 0}}});
      for (size_t cut = 0; cut + 1 < full.size(); ++cut) {
        Apply(graphs[1], std::string_view(full).substr(0, cut));
        double x = graphs[1].vertex_data(l).x;
        ASSERT_TRUE(x == before || x == 777.0)
            << "torn value " << x << " applied at cut " << cut;
      }
      // The intact frame (re)applies cleanly.
      Apply(graphs[1], full);
      EXPECT_EQ(graphs[1].vertex_data(l).x, 777.0);
    }
    ctx.barrier().Wait(ctx.id);
  });
}

// Entities staged in descending gvid order reach the peer intact: the
// encoder sorts each section by key, and the blobs must travel with
// their keys.
TEST_P(DistributedGraphTest, DescendingStagingAppliesInKeyOrder) {
  constexpr size_t kN = 16;
  LGraph g = PathGraph(kN);
  PartitionAssignment atom_of(kN);
  for (VertexId v = 0; v < kN; ++v) atom_of[v] = v % 2;  // all boundary
  auto colors = GreedyColoring(g.Structure());
  std::vector<rpc::MachineId> placement = {0, 1};
  rpc::Runtime runtime(TestCluster(2));
  std::vector<DGraph> graphs(2);
  runtime.Run([&](rpc::MachineContext& ctx) {
    DGraph& graph = graphs[ctx.id];
    ASSERT_TRUE(graph
                    .InitFromGlobal(g, atom_of, colors, placement, ctx.id,
                                    &ctx.comm())
                    .ok());
    ctx.barrier().Wait(ctx.id);
    if (ctx.id == 0) {
      graph.SetGhostSyncMode(GhostSyncMode::kCoalesced);
      const auto& owned = graph.owned_vertices();
      for (auto it = owned.rbegin(); it != owned.rend(); ++it) {
        const LocalVid l = *it;
        graph.vertex_data(l).x = 100.0 + graph.Gvid(l);
        graph.MarkVertexModified(l);
        for (LocalEid e : graph.out_edges(l)) {
          graph.edge_data(e).w = 1000.0 + graph.Gvid(l);
          graph.MarkEdgeModified(e);
        }
        graph.FlushVertexScope(l);
      }
      graph.FlushDeltas();
      EXPECT_EQ(graph.delta_batches_sent(), 1u);
      graph.SetGhostSyncMode(GhostSyncMode::kPerScope);
    }
    ctx.flush().Run(ctx.id);
    if (ctx.id == 1) {
      for (VertexId v = 0; v < kN; v += 2) {
        EXPECT_EQ(graph.vertex_data(graph.Lvid(v)).x, 100.0 + v) << v;
        if (v + 1 < kN) {
          EXPECT_EQ(graph.edge_data(graph.LeidOf(v, v + 1)).w, 1000.0 + v)
              << v;
        }
      }
    }
  });
}

TEST_P(DistributedGraphTest, LoadFromAtomFilesMatchesDirectIngress) {
  std::string dir = std::filesystem::temp_directory_path() /
                    ("glatoms_" + std::to_string(::getpid()) + "_" +
                     rpc::TransportKindName(GetParam()));
  std::filesystem::remove_all(dir);

  auto structure = gen::Mesh3D(4, 4, 4, 6);
  LGraph g = LGraph::FromStructure(structure);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    g.vertex_data(v).x = static_cast<double>(v) * 0.5;
  }
  auto colors = GreedyColoring(structure);
  auto atom_of = BfsPartition(structure, 8, 1);  // 8 atoms, 2 machines
  AtomIndex index;
  ASSERT_TRUE(WriteAtoms(g, atom_of, colors, 8, dir, &index).ok());
  auto placement = PlaceAtoms(index, 2);

  rpc::Runtime runtime(TestCluster(2));
  std::vector<DGraph> from_files(2), direct(2);
  runtime.Run([&](rpc::MachineContext& ctx) {
    ASSERT_TRUE(from_files[ctx.id]
                    .LoadAtoms(index, placement, ctx.id, &ctx.comm())
                    .ok());
    ASSERT_TRUE(direct[ctx.id]
                    .InitFromGlobal(g, atom_of, colors, placement, ctx.id,
                                    &ctx.comm())
                    .ok());
  });

  uint64_t total_owned = 0;
  for (int m = 0; m < 2; ++m) {
    EXPECT_EQ(from_files[m].num_owned_vertices(),
              direct[m].num_owned_vertices());
    EXPECT_EQ(from_files[m].num_local_vertices(),
              direct[m].num_local_vertices());
    EXPECT_EQ(from_files[m].num_local_edges(), direct[m].num_local_edges());
    total_owned += from_files[m].num_owned_vertices();
    // Data made it through the journal.
    for (LocalVid l : from_files[m].owned_vertices()) {
      VertexId gv = from_files[m].Gvid(l);
      EXPECT_EQ(from_files[m].vertex_data(l).x, static_cast<double>(gv) * 0.5);
      EXPECT_EQ(from_files[m].color(l), colors[gv]);
    }
  }
  EXPECT_EQ(total_owned, structure.num_vertices);
  std::filesystem::remove_all(dir);
}

TEST_P(DistributedGraphTest, EveryEdgeIncidentToOwnedVertexPresent) {
  auto structure = gen::PowerLawWeb(300, 5, 0.8, 9);
  LGraph g = LGraph::FromStructure(structure);
  auto colors = GreedyColoring(structure);
  auto atom_of = RandomPartition(300, 4, 2);
  std::vector<rpc::MachineId> placement = {0, 1, 2, 3};

  rpc::Runtime runtime(TestCluster(4));
  std::vector<DGraph> graphs(4);
  runtime.Run([&](rpc::MachineContext& ctx) {
    ASSERT_TRUE(graphs[ctx.id]
                    .InitFromGlobal(g, atom_of, colors, placement, ctx.id,
                                    &ctx.comm())
                    .ok());
  });
  // Count each edge on the owner(s): edges with endpoints on two machines
  // appear twice, intra-machine edges once.
  uint64_t expected = 0;
  for (auto [u, v] : structure.edges) {
    expected += (atom_of[u] == atom_of[v]) ? 1 : 2;
  }
  uint64_t actual = 0;
  for (auto& dg : graphs) actual += dg.num_local_edges();
  EXPECT_EQ(actual, expected);
}

TEST_P(DistributedGraphTest, BulkFlushSynchronizesAllBoundaries) {
  LGraph g = PathGraph(16);
  auto atom_of = BlockPartition(16, 4);
  auto colors = GreedyColoring(g.Structure());
  std::vector<rpc::MachineId> placement = {0, 1, 2, 3};
  rpc::Runtime runtime(TestCluster(4));
  std::vector<DGraph> graphs(4);
  runtime.Run([&](rpc::MachineContext& ctx) {
    ASSERT_TRUE(graphs[ctx.id]
                    .InitFromGlobal(g, atom_of, colors, placement, ctx.id,
                                    &ctx.comm())
                    .ok());
    ctx.barrier().Wait(ctx.id);
    // Everyone rewrites all owned vertices, then bulk-flushes.
    for (LocalVid l : graphs[ctx.id].owned_vertices()) {
      graphs[ctx.id].vertex_data(l).x += 100.0;
      graphs[ctx.id].MarkVertexModified(l);
    }
    graphs[ctx.id].FlushAllOwnedBulk();
    ctx.flush().Run(ctx.id);
    // All ghosts must now show +100.
    for (LocalVid l = 0; l < graphs[ctx.id].num_local_vertices(); ++l) {
      VertexId gv = graphs[ctx.id].Gvid(l);
      EXPECT_EQ(graphs[ctx.id].vertex_data(l).x,
                static_cast<double>(gv) + 100.0);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Transports, DistributedGraphTest,
                         ::testing::ValuesIn(testutil::kAllTransports),
                         testutil::KindParamName);

// The encoder's bytes for one small frame, pinned: two vertices staged in
// descending gvid order and one edge, as the v3 layout in the
// distributed_graph.h header describes them.
TEST(GhostFrameV3, GoldenBytes) {
  LGraph g = PathGraph(4);
  const PartitionAssignment atom_of = {0, 1, 0, 1};
  auto colors = GreedyColoring(g.Structure());
  std::vector<rpc::MachineId> placement = {0, 1};
  rpc::Runtime runtime(
      testutil::ClusterFor(rpc::TransportKind::kInProcess, 2));
  std::vector<DGraph> graphs(2);
  std::mutex mu;
  std::vector<std::string> frames;
  runtime.Run([&](rpc::MachineContext& ctx) {
    DGraph& graph = graphs[ctx.id];
    ASSERT_TRUE(graph
                    .InitFromGlobal(g, atom_of, colors, placement, ctx.id,
                                    &ctx.comm())
                    .ok());
    rpc::HandlerScope capture;
    if (ctx.id == 1) {
      capture = ctx.comm().RegisterHandler(
          1, DGraph::kDataPushHandler, [&](rpc::MachineId, InArchive& ia) {
            std::lock_guard<std::mutex> lock(mu);
            frames.emplace_back(ia.Rest());
          });
    }
    ctx.barrier().Wait(ctx.id);
    if (ctx.id == 0) {
      graph.SetGhostSyncMode(GhostSyncMode::kCoalesced);
      const LocalVid l0 = graph.Lvid(0), l2 = graph.Lvid(2);
      graph.vertex_data(l0).x = 0.5;
      graph.vertex_data(l2).x = 2.5;
      graph.MarkVertexModified(l0);
      graph.MarkVertexModified(l2);
      const LocalEid e = graph.LeidOf(0, 1);
      graph.edge_data(e).w = 1.5;
      graph.MarkEdgeModified(e);
      const std::vector<LocalVid> vertices = {l2, l0};
      const std::vector<LocalEid> edges = {e};
      graph.PushEntities(vertices, edges);
      graph.SetGhostSyncMode(GhostSyncMode::kPerScope);
    }
    ctx.flush().Run(ctx.id);
  });

  ASSERT_EQ(frames.size(), 1u);
  const uint8_t golden[] = {
      0x03,                                // format = kGhostFrameVersion
      0x02, 0x02, 0x00, 0x00, 0x00,        // gvid column: delta, count 2
      0x00, 0x04,                          //   zigzag(0), zigzag(2 - 0)
      0x02, 0x02, 0x00, 0x00, 0x00,        // version column: delta
      0x02, 0x00,                          //   zigzag(1), zigzag(0)
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xE0, 0x3F,  // vertex 0: x = 0.5
      0x00, 0x00, 0x00, 0x00,                          //   snapshot_epoch
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x40,  // vertex 2: x = 2.5
      0x00, 0x00, 0x00, 0x00,                          //   snapshot_epoch
      0x02, 0x01, 0x00, 0x00, 0x00, 0x00,  // source column: 0
      0x02, 0x01, 0x00, 0x00, 0x00, 0x02,  // target column: 1
      0x02, 0x01, 0x00, 0x00, 0x00, 0x02,  // version column: 1
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xF8, 0x3F,  // edge 0->1: w = 1.5
  };
  const std::string& frame = frames[0];
  ASSERT_EQ(frame.size(), sizeof(golden));
  EXPECT_EQ(std::memcmp(frame.data(), golden, sizeof(golden)), 0);

  // The pinned bytes decode to what was staged.
  DGraph& peer = graphs[1];
  Apply(peer, frame);
  EXPECT_EQ(peer.vertex_data(peer.Lvid(0)).x, 0.5);
  EXPECT_EQ(peer.vertex_data(peer.Lvid(2)).x, 2.5);
  EXPECT_EQ(peer.edge_data(peer.LeidOf(0, 1)).w, 1.5);
}

/// Decodes `bytes` as one column of T.  Whatever the outcome, the decoder
/// must not have allocated more values than the input has bytes.
template <typename T>
bool DecodeBounded(std::string_view bytes) {
  std::vector<T> back;
  const bool ok = DecodeColumn<T>(bytes, &back);
  EXPECT_LE(back.capacity(), bytes.size());
  return ok;
}

std::string FlipBit(std::string bytes, Rng* rng) {
  const uint64_t bit = rng->UniformInt(bytes.size() * 8);
  bytes[bit / 8] = static_cast<char>(bytes[bit / 8] ^ (1 << (bit % 8)));
  return bytes;
}

std::string WithCount(std::string column, uint32_t count) {
  std::memcpy(column.data() + 1, &count, 4);
  return column;
}

// Seeded structured mutations of coded columns and of a v3 ghost frame:
// truncation at every byte, bit flips, huge and mismatched column counts
// and over-long varints.  Every decoder must answer with a clean false
// or a dropped frame: no abort, and no allocation sized by a corrupt
// count.
TEST(GhostFrameFuzz, StructuredMutationsFailCleanly) {
  Rng rng(0x6F57);
  constexpr int kFlips = 300;

  // --- DecodeColumn ---
  std::vector<uint64_t> raw_col, version_col;
  std::vector<uint32_t> dict_col, id_col;
  for (uint32_t i = 0; i < 24; ++i) {
    raw_col.push_back(rng.Next());
    version_col.push_back(40 + rng.UniformInt(8));
    dict_col.push_back(static_cast<uint32_t>(rng.UniformInt(3)) * 1000003u);
    id_col.push_back(i * 3 + static_cast<uint32_t>(rng.UniformInt(3)));
  }
  std::vector<std::string> u64_cols(2), u32_cols(2);
  EXPECT_EQ(EncodeColumn<uint64_t>(raw_col, &u64_cols[0]).codec,
            ColumnCodec::kRaw);
  EXPECT_EQ(EncodeColumn<uint64_t>(version_col, &u64_cols[1]).codec,
            ColumnCodec::kDeltaVarint);
  EXPECT_EQ(EncodeColumn<uint32_t>(dict_col, &u32_cols[0]).codec,
            ColumnCodec::kDict);
  EXPECT_EQ(EncodeColumn<uint32_t>(id_col, &u32_cols[1]).codec,
            ColumnCodec::kDeltaVarint);

  auto mutate_column = [&](const std::string& col, auto decode) {
    ASSERT_TRUE(decode(col));
    for (size_t cut = 0; cut < col.size(); ++cut) {
      EXPECT_FALSE(decode(std::string_view(col).substr(0, cut))) << cut;
    }
    for (int i = 0; i < kFlips / 4; ++i) decode(FlipBit(col, &rng));
    for (uint32_t count :
         {0xFFFFFFFFu, 0x80000000u, static_cast<uint32_t>(col.size())}) {
      EXPECT_FALSE(decode(WithCount(col, count))) << count;
    }
  };
  for (const auto& col : u64_cols) mutate_column(col, DecodeBounded<uint64_t>);
  for (const auto& col : u32_cols) mutate_column(col, DecodeBounded<uint32_t>);
  // Over-long varints: eleven continuation bytes, and a ten-byte varint
  // still asking for more.
  const std::string overlong = std::string("\x02\x01\x00\x00\x00", 5) +
                               std::string(11, '\x80') + '\x01';
  EXPECT_FALSE(DecodeBounded<uint64_t>(overlong));
  EXPECT_FALSE(DecodeBounded<uint64_t>(overlong.substr(0, 15)));

  // --- v3 ghost frame ---
  constexpr size_t kN = 8;
  LGraph g = PathGraph(kN);
  PartitionAssignment atom_of(kN);
  for (VertexId v = 0; v < kN; ++v) atom_of[v] = v % 2;
  auto colors = GreedyColoring(g.Structure());
  std::vector<rpc::MachineId> placement = {0, 1};
  rpc::Runtime runtime(
      testutil::ClusterFor(rpc::TransportKind::kInProcess, 2));
  std::vector<DGraph> graphs(2);
  runtime.Run([&](rpc::MachineContext& ctx) {
    ASSERT_TRUE(graphs[ctx.id]
                    .InitFromGlobal(g, atom_of, colors, placement, ctx.id,
                                    &ctx.comm())
                    .ok());
  });
  DGraph& peer = graphs[1];  // holds ghosts of the even vertices
  auto ghost_x = [&](VertexId v) { return peer.vertex_data(peer.Lvid(v)).x; };
  auto edge_w = [&]() { return peer.edge_data(peer.LeidOf(0, 1)).w; };
  auto untouched = [&]() {
    return ghost_x(0) == 0.0 && ghost_x(2) == 2.0 && ghost_x(4) == 4.0 &&
           edge_w() == 0.0;
  };
  const LogLevel saved_level = GetLogLevel();
  SetLogLevel(LogLevel::kFatal);  // every mutation logs a drop

  std::string ids, versions, blobs, empty_ids, empty_versions;
  EncodeColumn<VertexId>(std::vector<VertexId>{0, 2, 4}, &ids);
  EncodeColumn<uint64_t>(std::vector<uint64_t>{5, 5, 5}, &versions);
  EncodeColumn<VertexId>(std::vector<VertexId>{}, &empty_ids);
  EncodeColumn<uint64_t>(std::vector<uint64_t>{}, &empty_versions);
  {
    OutArchive oa;
    oa << TV{50.0, 0} << TV{52.0, 0} << TV{54.0, 0};
    blobs.assign(oa.buffer().data(), oa.size());
  }
  const std::string format(1, static_cast<char>(kGhostFrameVersion));
  const std::string no_edges = empty_ids + empty_ids + empty_versions;
  // Mismatched counts within a section, huge counts and an over-long
  // varint key: each frame is dropped before any entity applies.
  std::string short_versions;
  EncodeColumn<uint64_t>(std::vector<uint64_t>{5, 5}, &short_versions);
  std::string one_id, two_ids, one_version;
  EncodeColumn<VertexId>(std::vector<VertexId>{0}, &one_id);
  EncodeColumn<VertexId>(std::vector<VertexId>{1, 3}, &two_ids);
  EncodeColumn<uint64_t>(std::vector<uint64_t>{5}, &one_version);
  const std::vector<std::string> dropped = {
      format + ids + short_versions + blobs + no_edges,
      format + empty_ids + empty_versions + one_id + two_ids + one_version +
          std::string(8, '\0'),
      format + WithCount(ids, 0xFFFFFFFFu) + versions + blobs + no_edges,
      format + ids + WithCount(versions, 0x7FFFFFFFu) + blobs + no_edges,
      format + overlong + versions + blobs + no_edges,
  };
  for (const auto& frame : dropped) {
    Apply(peer, frame);
    ASSERT_TRUE(untouched());
  }

  // Truncation at every byte: each entity is untouched or final.
  const std::string frame = MakeFrame({{0, 5, TV{50.0, 0}},
                                       {2, 5, TV{52.0, 0}},
                                       {4, 5, TV{54.0, 0}}},
                                      {{0, 1, 5, TE{7.0}}});
  for (size_t cut = 0; cut < frame.size(); ++cut) {
    Apply(peer, std::string_view(frame).substr(0, cut));
    for (VertexId v : {0u, 2u, 4u}) {
      ASSERT_TRUE(ghost_x(v) == v || ghost_x(v) == 50.0 + v) << cut;
    }
    ASSERT_TRUE(edge_w() == 0.0 || edge_w() == 7.0) << cut;
  }
  Apply(peer, frame);
  EXPECT_EQ(ghost_x(4), 54.0);
  EXPECT_EQ(edge_w(), 7.0);

  // Bit flips anywhere: no crash, and owned rows are never written.
  for (int i = 0; i < kFlips; ++i) Apply(peer, FlipBit(frame, &rng));
  SetLogLevel(saved_level);
  for (LocalVid l : peer.owned_vertices()) {
    EXPECT_EQ(peer.vertex_data(l).x, static_cast<double>(peer.Gvid(l)));
  }
}

}  // namespace
}  // namespace graphlab
