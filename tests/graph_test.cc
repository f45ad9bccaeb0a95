// Tests for the graph substrate: LocalGraph storage/adjacency, workload
// generators, coloring heuristics, partitioners, and the atom store.

#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "graphlab/graph/atom.h"
#include "graphlab/graph/coloring.h"
#include "graphlab/graph/generators.h"
#include "graphlab/graph/local_graph.h"
#include "graphlab/graph/partition.h"

namespace graphlab {
namespace {

using TestGraph = LocalGraph<int, double>;

// ---------------------------------------------------------------------
// LocalGraph
// ---------------------------------------------------------------------

TEST(LocalGraphTest, BuildAndQuery) {
  TestGraph g;
  VertexId a = g.AddVertex(10);
  VertexId b = g.AddVertex(20);
  VertexId c = g.AddVertex(30);
  EdgeId e1 = g.AddEdge(a, b, 1.5);
  EdgeId e2 = g.AddEdge(b, c, 2.5);
  g.AddEdge(a, c, 3.5);
  g.Finalize();

  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.vertex_data(a), 10);
  EXPECT_EQ(g.edge_data(e1), 1.5);
  EXPECT_EQ(g.source(e2), b);
  EXPECT_EQ(g.target(e2), c);
  EXPECT_EQ(g.out_degree(a), 2u);
  EXPECT_EQ(g.in_degree(c), 2u);
  EXPECT_EQ(g.in_degree(a), 0u);

  auto nbrs = g.neighbors(b);  // CSR span since Finalize()
  EXPECT_EQ(std::vector<VertexId>(nbrs.begin(), nbrs.end()),
            (std::vector<VertexId>{a, c}));
}

TEST(LocalGraphTest, DataMutableAfterFinalize) {
  TestGraph g(2);
  EdgeId e = g.AddEdge(0, 1, 1.0);
  g.Finalize();
  g.vertex_data(0) = 99;
  g.edge_data(e) = 7.0;
  EXPECT_EQ(g.vertex_data(0), 99);
  EXPECT_EQ(g.edge_data(e), 7.0);
}

TEST(LocalGraphTest, StructureRoundTrip) {
  GraphStructure s;
  s.num_vertices = 4;
  s.edges = {{0, 1}, {1, 2}, {2, 3}, {3, 0}};
  TestGraph g = TestGraph::FromStructure(s);
  GraphStructure s2 = g.Structure();
  EXPECT_EQ(s2.num_vertices, 4u);
  EXPECT_EQ(s2.edges, s.edges);
}

TEST(LocalGraphTest, NeighborsDeduplicatesParallelEdges) {
  TestGraph g(2);
  g.AddEdge(0, 1);
  g.AddEdge(1, 0);
  g.Finalize();
  EXPECT_EQ(g.neighbors(0).size(), 1u);
}

// ---------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------

TEST(GeneratorsTest, PowerLawWebBasic) {
  auto s = gen::PowerLawWeb(1000, 8, 0.9, 1);
  EXPECT_EQ(s.num_vertices, 1000u);
  EXPECT_EQ(s.num_edges(), 8000u);
  // No self edges, all endpoints in range.
  for (auto [u, v] : s.edges) {
    EXPECT_NE(u, v);
    EXPECT_LT(u, 1000u);
    EXPECT_LT(v, 1000u);
  }
}

TEST(GeneratorsTest, PowerLawWebHasSkewedInDegree) {
  auto s = gen::PowerLawWeb(2000, 10, 0.9, 2);
  std::vector<uint32_t> indeg(s.num_vertices, 0);
  for (auto [u, v] : s.edges) indeg[v]++;
  uint32_t max_deg = *std::max_element(indeg.begin(), indeg.end());
  double mean = static_cast<double>(s.num_edges()) / s.num_vertices;
  EXPECT_GT(max_deg, mean * 8) << "expected heavy-tailed in-degrees";
}

TEST(GeneratorsTest, PowerLawDeterministicBySeed) {
  auto a = gen::PowerLawWeb(100, 4, 0.8, 3);
  auto b = gen::PowerLawWeb(100, 4, 0.8, 3);
  EXPECT_EQ(a.edges, b.edges);
}

TEST(GeneratorsTest, Mesh3D6Connectivity) {
  auto s = gen::Mesh3D(4, 4, 4, 6);
  EXPECT_EQ(s.num_vertices, 64u);
  // Undirected axis adjacencies of a 4x4x4 lattice: 3 * 4*4*3 = 144.
  EXPECT_EQ(s.num_edges(), 144u);
}

TEST(GeneratorsTest, Mesh3D26Connectivity) {
  auto s = gen::Mesh3D(3, 3, 3, 26);
  EXPECT_EQ(s.num_vertices, 27u);
  // Interior vertex must see 26 neighbors.
  std::vector<uint32_t> deg(27, 0);
  for (auto [u, v] : s.edges) {
    deg[u]++;
    deg[v]++;
  }
  // Center of a 3x3x3 mesh is vertex (1,1,1) = 1*9 + 1*3 + 1 = 13.
  EXPECT_EQ(deg[13], 26u);
  // Corner sees 7.
  EXPECT_EQ(deg[0], 7u);
}

TEST(GeneratorsTest, Grid2D) {
  auto s = gen::Grid2D(3, 5);
  EXPECT_EQ(s.num_vertices, 15u);
  // 3*4 horizontal + 2*5 vertical = 22.
  EXPECT_EQ(s.num_edges(), 22u);
}

TEST(GeneratorsTest, BipartiteZipfRespectsSides) {
  auto s = gen::BipartiteZipf(100, 50, 10, 0.8, 4);
  EXPECT_EQ(s.num_vertices, 150u);
  EXPECT_EQ(s.num_edges(), 1000u);
  for (auto [u, m] : s.edges) {
    EXPECT_LT(u, 100u);    // user side
    EXPECT_GE(m, 100u);    // item side
    EXPECT_LT(m, 150u);
  }
}

TEST(GeneratorsTest, BipartiteNoDuplicateRatings) {
  auto s = gen::BipartiteZipf(50, 30, 10, 0.8, 5);
  std::set<std::pair<VertexId, VertexId>> seen(s.edges.begin(),
                                               s.edges.end());
  EXPECT_EQ(seen.size(), s.edges.size());
}

TEST(GeneratorsTest, VideoGridConnectsFrames) {
  auto s = gen::VideoGrid(3, 2, 2);
  EXPECT_EQ(s.num_vertices, 12u);
  // Per frame: 2 horizontal + 2 vertical = 4; temporal: 4 per frame pair.
  EXPECT_EQ(s.num_edges(), 3u * 4 + 2u * 4);
}

// ---------------------------------------------------------------------
// Coloring
// ---------------------------------------------------------------------

TEST(ColoringTest, GreedyIsValidOnMesh) {
  auto s = gen::Mesh3D(5, 5, 5, 6);
  auto colors = GreedyColoring(s);
  EXPECT_TRUE(ValidateColoring(s, colors));
  EXPECT_LE(NumColors(colors), 7u);  // greedy <= maxdeg+1
}

TEST(ColoringTest, BipartiteIsTwoColorable) {
  auto s = gen::BipartiteZipf(200, 100, 5, 0.8, 6);
  auto colors = GreedyColoring(s);
  EXPECT_TRUE(ValidateColoring(s, colors));
  EXPECT_EQ(NumColors(colors), 2u);
}

TEST(ColoringTest, SecondOrderValid) {
  auto s = gen::Grid2D(8, 8);
  auto colors = SecondOrderColoring(s);
  EXPECT_TRUE(ValidateSecondOrderColoring(s, colors));
  EXPECT_TRUE(ValidateColoring(s, colors));
}

TEST(ColoringTest, ColoringForModels) {
  auto s = gen::Grid2D(6, 6);
  auto vertex = ColoringFor(s, ConsistencyModel::kVertexConsistency);
  EXPECT_EQ(NumColors(vertex), 1u);
  auto edge = ColoringFor(s, ConsistencyModel::kEdgeConsistency);
  EXPECT_TRUE(ValidateColoring(s, edge));
  auto full = ColoringFor(s, ConsistencyModel::kFullConsistency);
  EXPECT_TRUE(ValidateSecondOrderColoring(s, full));
}

TEST(ColoringTest, PowerLawColoringValid) {
  auto s = gen::PowerLawWeb(500, 6, 0.9, 7);
  EXPECT_TRUE(ValidateColoring(s, GreedyColoring(s)));
}

// First-fit in vertex-id order: the reference GreedyColoring must never
// need more colors than.
ColorId IdOrderGreedyColors(const GraphStructure& s) {
  std::vector<std::vector<VertexId>> adj(s.num_vertices);
  for (const auto& [u, v] : s.edges) {
    adj[u].push_back(v);
    adj[v].push_back(u);
  }
  ColorAssignment colors(s.num_vertices, 0);
  for (VertexId v = 0; v < s.num_vertices; ++v) {
    std::set<ColorId> taken;
    for (VertexId n : adj[v]) {
      if (n < v) taken.insert(colors[n]);
    }
    while (taken.count(colors[v]) != 0) ++colors[v];
  }
  return NumColors(colors);
}

TEST(ColoringTest, NeverMoreColorsThanIdOrder) {
  std::vector<std::pair<std::string, GraphStructure>> graphs;
  for (uint64_t seed = 4; seed <= 11; ++seed) {
    graphs.emplace_back("web seed " + std::to_string(seed),
                        gen::PowerLawWeb(2000, 5, 0.8, seed));
  }
  graphs.emplace_back("grid 30x40", gen::Grid2D(30, 40));
  graphs.emplace_back("grid 1x9", gen::Grid2D(1, 9));
  graphs.emplace_back("mesh", gen::Mesh3D(6, 6, 6, 26));
  for (const auto& [name, s] : graphs) {
    SCOPED_TRACE(name);
    ColorAssignment colors = GreedyColoring(s);
    EXPECT_TRUE(ValidateColoring(s, colors));
    EXPECT_LE(NumColors(colors), IdOrderGreedyColors(s));
  }
  // A bipartite graph keeps exactly 2 colors, users first.
  auto bipartite = gen::BipartiteZipf(500, 80, 7, 0.7, 3);
  ColorAssignment colors = GreedyColoring(bipartite);
  EXPECT_TRUE(ValidateColoring(bipartite, colors));
  EXPECT_EQ(NumColors(colors), 2u);
  EXPECT_EQ(colors[0], 0u);
}

// The e2e PageRank inputs: largest-degree-first needs fewer colors (and
// so fewer chromatic steps per sweep) than the 9 of id order.
TEST(ColoringTest, DegreeOrderColorCountsOnPageRankInputs) {
  const std::vector<std::pair<uint64_t, ColorId>> expected = {
      {4, 7}, {5, 7}, {6, 6}, {7, 6}};
  for (const auto& [seed, count] : expected) {
    auto s = gen::PowerLawWeb(2000, 5, 0.8, seed);
    EXPECT_EQ(IdOrderGreedyColors(s), 9u) << "seed " << seed;
    EXPECT_EQ(NumColors(GreedyColoring(s)), count) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------
// Partitioning
// ---------------------------------------------------------------------

TEST(PartitionTest, RandomPartitionBalanced) {
  auto p = RandomPartition(10000, 8, 1);
  std::vector<uint64_t> sizes(8, 0);
  for (AtomId a : p) sizes[a]++;
  for (uint64_t sz : sizes) {
    EXPECT_GT(sz, 1000u);
    EXPECT_LT(sz, 1500u);
  }
}

TEST(PartitionTest, BlockPartitionContiguous) {
  auto p = BlockPartition(100, 4);
  EXPECT_EQ(p[0], 0u);
  EXPECT_EQ(p[24], 0u);
  EXPECT_EQ(p[25], 1u);
  EXPECT_EQ(p[99], 3u);
}

TEST(PartitionTest, StripedPartitionCycles) {
  auto p = StripedPartition(10, 3);
  EXPECT_EQ(p[0], 0u);
  EXPECT_EQ(p[1], 1u);
  EXPECT_EQ(p[2], 2u);
  EXPECT_EQ(p[3], 0u);
}

TEST(PartitionTest, BfsPartitionCoversAndBalances) {
  auto s = gen::Mesh3D(8, 8, 8, 6);
  auto p = BfsPartition(s, 8, 2);
  auto q = EvaluatePartition(s, p, 8);
  EXPECT_LE(q.balance, 1.35);
  EXPECT_GT(q.cut_edges, 0u);
}

TEST(PartitionTest, BfsBeatsRandomOnMeshCut) {
  auto s = gen::Mesh3D(10, 10, 10, 6);
  auto bfs = EvaluatePartition(s, BfsPartition(s, 8, 3), 8);
  auto rnd = EvaluatePartition(s, RandomPartition(s.num_vertices, 8, 3), 8);
  EXPECT_LT(bfs.cut_fraction, rnd.cut_fraction * 0.5)
      << "BFS grow should cut far fewer mesh edges than random";
}

TEST(PartitionTest, BlockBeatsStripedOnVideoGrid) {
  auto s = gen::VideoGrid(16, 6, 10);
  auto block = EvaluatePartition(s, BlockPartition(s.num_vertices, 4), 4);
  auto striped =
      EvaluatePartition(s, StripedPartition(s.num_vertices, 4), 4);
  EXPECT_LT(block.cut_fraction, striped.cut_fraction * 0.3)
      << "frame blocks are the paper's optimal CoSeg partition";
}

// ---------------------------------------------------------------------
// Atoms
// ---------------------------------------------------------------------

struct AtomTestVertex {
  int value = 0;
  void Save(OutArchive* oa) const { *oa << value; }
  void Load(InArchive* ia) { *ia >> value; }
};
struct AtomTestEdge {
  double weight = 0;
  void Save(OutArchive* oa) const { *oa << weight; }
  void Load(InArchive* ia) { *ia >> weight; }
};

class AtomTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("glatom_test_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string dir_;
};

TEST_F(AtomTest, WriteLoadRoundTrip) {
  LocalGraph<AtomTestVertex, AtomTestEdge> g;
  for (int i = 0; i < 20; ++i) g.AddVertex({i * 10});
  for (int i = 0; i < 19; ++i) {
    g.AddEdge(i, i + 1, {static_cast<double>(i)});
  }
  g.Finalize();
  auto structure = g.Structure();
  auto atom_of = BlockPartition(20, 4);
  auto colors = GreedyColoring(structure);

  AtomIndex index;
  ASSERT_TRUE(
      WriteAtoms(g, atom_of, colors, 4, dir_, &index).ok());
  EXPECT_EQ(index.num_atoms(), 4u);
  EXPECT_EQ(index.num_vertices, 20u);

  // Reload the index from disk.
  auto loaded = AtomIndex::ReadFromFile(dir_ + "/atom_index.glidx");
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_atoms(), 4u);
  EXPECT_EQ(loaded->atom_of_vertex, atom_of);

  // Play back atom 1: owns vertices 5..9, ghosts 4 and 10.
  auto content = LoadAtom<AtomTestVertex, AtomTestEdge>(loaded->atoms[1]);
  ASSERT_TRUE(content.ok());
  size_t owned = 0, ghosts = 0;
  for (const auto& vc : content->vertices) {
    if (vc.ghost) {
      ghosts++;
      EXPECT_TRUE(vc.gvid == 4 || vc.gvid == 10);
    } else {
      owned++;
      EXPECT_GE(vc.gvid, 5u);
      EXPECT_LE(vc.gvid, 9u);
      EXPECT_EQ(vc.data.value, static_cast<int>(vc.gvid) * 10);
    }
  }
  EXPECT_EQ(owned, 5u);
  EXPECT_EQ(ghosts, 2u);
  // Edges incident to atom 1: 4-5,5-6,...,9-10 = 6 edges.
  EXPECT_EQ(content->edges.size(), 6u);
}

TEST_F(AtomTest, MetaGraphRecordsCrossEdges) {
  LocalGraph<AtomTestVertex, AtomTestEdge> g(10);
  for (int i = 0; i < 9; ++i) g.AddEdge(i, i + 1);
  g.Finalize();
  auto atom_of = BlockPartition(10, 2);
  ColorAssignment colors(10, 0);
  for (VertexId v = 0; v < 10; ++v) colors[v] = v % 2;

  AtomIndex index;
  ASSERT_TRUE(WriteAtoms(g, atom_of, colors, 2, dir_, &index).ok());
  // Exactly one cross edge (4-5) between atoms 0 and 1.
  ASSERT_EQ(index.atoms[0].neighbors.size(), 1u);
  EXPECT_EQ(index.atoms[0].neighbors[0].first, 1u);
  EXPECT_EQ(index.atoms[0].neighbors[0].second, 1u);
}

TEST_F(AtomTest, PlacementBalancesLoad) {
  LocalGraph<AtomTestVertex, AtomTestEdge> g(64);
  for (int i = 0; i < 63; ++i) g.AddEdge(i, i + 1);
  g.Finalize();
  auto atom_of = BlockPartition(64, 16);
  ColorAssignment colors(64, 0);
  AtomIndex index;
  ASSERT_TRUE(WriteAtoms(g, atom_of, colors, 16, dir_, &index).ok());

  auto placement = PlaceAtoms(index, 4);
  std::vector<uint64_t> load(4, 0);
  for (AtomId a = 0; a < 16; ++a) {
    ASSERT_LT(placement[a], 4u);
    load[placement[a]] += index.atoms[a].num_owned_vertices;
  }
  for (uint64_t l : load) {
    EXPECT_GE(l, 8u);
    EXPECT_LE(l, 24u);
  }
}

TEST_F(AtomTest, PlacementPrefersConnectedAtoms) {
  // A path graph's atoms form a path meta-graph; affinity placement should
  // produce contiguous runs, i.e. fewer cross-machine meta edges than the
  // worst case.
  LocalGraph<AtomTestVertex, AtomTestEdge> g(80);
  for (int i = 0; i < 79; ++i) g.AddEdge(i, i + 1);
  g.Finalize();
  auto atom_of = BlockPartition(80, 16);
  ColorAssignment colors(80, 0);
  AtomIndex index;
  ASSERT_TRUE(WriteAtoms(g, atom_of, colors, 16, dir_, &index).ok());
  auto placement = PlaceAtoms(index, 4);
  uint64_t cross = 0;
  for (const auto& info : index.atoms) {
    for (const auto& [nbr, w] : info.neighbors) {
      if (nbr > info.id && placement[nbr] != placement[info.id]) cross += w;
    }
  }
  // 15 meta edges; random placement would cut ~11; affinity should cut < 9.
  EXPECT_LT(cross, 9u);
}

TEST_F(AtomTest, CorruptIndexRejected) {
  ASSERT_TRUE(
      WriteFileBytes(dir_ + "/bad.glidx", {'x', 'y'}).ok() ||
      !std::filesystem::exists(dir_));
  EnsureDirectory(dir_).ok();
  WriteFileBytes(dir_ + "/bad.glidx", std::vector<char>{'x'}).ok();
  // Too-short file must not crash; Load CHECKs are for programmer errors,
  // so here we only verify the missing-file path returns an error.
  auto missing = AtomIndex::ReadFromFile(dir_ + "/nope.glidx");
  EXPECT_FALSE(missing.ok());
}

}  // namespace
}  // namespace graphlab
