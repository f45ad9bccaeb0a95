// Property-style tests: parameterized sweeps asserting the invariants the
// abstraction promises across engines, consistency models, cluster sizes,
// partitioners and random inputs.
//
//  * Engine equivalence: chromatic and locking engines, any machine count,
//    any partitioner, must converge PageRank to the same fixed point.
//  * Serialization: random nested structures round-trip bit-exactly.
//  * Lock table: random acquire/release interleavings never violate the
//    readers-writer invariant and never lose a callback.
//  * Coloring/partitioning: valid on random graphs of many shapes.
//  * Atom store: WriteAtoms -> LoadAtoms is lossless for random data.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <random>
#include <string_view>

#include "graphlab/apps/pagerank.h"
#include "graphlab/engine/allreduce.h"
#include "graphlab/engine/engine_factory.h"
#include "graphlab/engine/locking/lock_table.h"
#include "graphlab/engine/snapshot.h"
#include "graphlab/graph/atom.h"
#include "graphlab/graph/coloring.h"
#include "graphlab/graph/column_codec.h"
#include "graphlab/graph/generators.h"
#include "graphlab/util/random.h"
#include "graphlab/graph/partition.h"
#include "graphlab/rpc/runtime.h"
#include "tests/transport_param.h"

namespace graphlab {
namespace {

using apps::PageRankEdge;
using apps::PageRankVertex;
using DGraph = DistributedGraph<PageRankVertex, PageRankEdge>;

// ---------------------------------------------------------------------
// Engine x machines x partition equivalence
// ---------------------------------------------------------------------

struct EngineCase {
  const char* engine;
  size_t machines;
  const char* partition;
};

class EngineEquivalence : public ::testing::TestWithParam<EngineCase> {};

TEST_P(EngineEquivalence, PageRankFixedPointIndependentOfDeployment) {
  const EngineCase& c = GetParam();
  auto structure = gen::PowerLawWeb(800, 5, 0.9, 77);
  auto global = apps::BuildPageRankGraph(structure);
  auto exact = apps::ExactPageRank(global);
  auto colors = GreedyColoring(structure);

  PartitionAssignment atom_of;
  if (std::string(c.partition) == "block") {
    atom_of = BlockPartition(structure.num_vertices, c.machines);
  } else if (std::string(c.partition) == "striped") {
    atom_of = StripedPartition(structure.num_vertices, c.machines);
  } else {
    atom_of = RandomPartition(structure.num_vertices, c.machines, 5);
  }
  std::vector<rpc::MachineId> placement(c.machines);
  for (size_t m = 0; m < c.machines; ++m) placement[m] = m;

  rpc::ClusterOptions copts;
  copts.num_machines = c.machines;
  copts.comm.latency = std::chrono::microseconds(20);
  rpc::Runtime runtime(copts);
  SumAllReduce allreduce(&runtime.comm(), 1);
  std::vector<DGraph> graphs(c.machines);
  runtime.Run([&](rpc::MachineContext& ctx) {
    DGraph& graph = graphs[ctx.id];
    ASSERT_TRUE(graph
                    .InitFromGlobal(global, atom_of, colors, placement,
                                    ctx.id, &ctx.comm())
                    .ok());
    ctx.barrier().Wait(ctx.id);
    auto update = apps::MakePageRankUpdateFn<DGraph>(0.85, 1e-7);
    EngineOptions eo;
    eo.num_threads = 2;
    eo.max_pipeline_length = 64;
    eo.scheduler = "fifo";
    DistributedEngineDeps<PageRankVertex, PageRankEdge> deps;
    deps.allreduce = &allreduce;
    auto engine =
        std::move(CreateEngine(c.engine, ctx, &graph, eo, deps).value());
    engine->SetUpdateFn(update);
    engine->ScheduleAll();
    engine->Start();
  });

  double err = 0;
  uint64_t owned_total = 0;
  for (auto& graph : graphs) {
    owned_total += graph.num_owned_vertices();
    for (LocalVid l : graph.owned_vertices()) {
      err += std::fabs(graph.vertex_data(l).rank - exact[graph.Gvid(l)]);
    }
  }
  EXPECT_EQ(owned_total, structure.num_vertices);
  EXPECT_LT(err, 5e-2) << "engine=" << c.engine
                       << " machines=" << c.machines
                       << " partition=" << c.partition;
}

INSTANTIATE_TEST_SUITE_P(
    Deployments, EngineEquivalence,
    ::testing::Values(EngineCase{"chromatic", 1, "random"},
                      EngineCase{"chromatic", 2, "block"},
                      EngineCase{"chromatic", 3, "striped"},
                      EngineCase{"chromatic", 5, "random"},
                      EngineCase{"locking", 1, "random"},
                      EngineCase{"locking", 2, "striped"},
                      EngineCase{"locking", 3, "block"},
                      EngineCase{"locking", 5, "random"}));

// ---------------------------------------------------------------------
// Serialization fuzz round-trip
// ---------------------------------------------------------------------

struct FuzzRecord {
  uint32_t a = 0;
  double b = 0;
  std::string s;
  std::vector<float> v;
  std::map<uint32_t, std::string> m;

  bool operator==(const FuzzRecord& o) const {
    return a == o.a && b == o.b && s == o.s && v == o.v && m == o.m;
  }
  void Save(OutArchive* oa) const { *oa << a << b << s << v << m; }
  void Load(InArchive* ia) { *ia >> a >> b >> s >> v >> m; }
};

class SerializationFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SerializationFuzz, RandomStructuresRoundTrip) {
  Rng rng(GetParam());
  std::vector<FuzzRecord> records(1 + rng.UniformInt(20));
  for (auto& r : records) {
    r.a = static_cast<uint32_t>(rng.Next());
    r.b = rng.Gaussian() * 1e10;
    r.s.resize(rng.UniformInt(64));
    for (char& ch : r.s) ch = static_cast<char>(rng.UniformInt(256));
    r.v.resize(rng.UniformInt(32));
    for (float& f : r.v) f = static_cast<float>(rng.Gaussian());
    size_t entries = rng.UniformInt(8);
    for (size_t i = 0; i < entries; ++i) {
      r.m[static_cast<uint32_t>(rng.Next())] =
          std::to_string(rng.Next());
    }
  }
  OutArchive oa;
  oa << records;
  InArchive ia(oa.buffer());
  std::vector<FuzzRecord> decoded;
  ia >> decoded;
  EXPECT_EQ(records, decoded);
  EXPECT_TRUE(ia.AtEnd());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerializationFuzz,
                         ::testing::Range<uint64_t>(1, 17));

// ---------------------------------------------------------------------
// Lock table invariants under random interleavings
// ---------------------------------------------------------------------

class LockTableFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LockTableFuzz, ReaderWriterInvariantHolds) {
  CallbackLockTable locks(16);
  Rng rng(GetParam());
  // Track held locks; every granted callback must observe the invariant:
  // a writer excludes everyone, readers exclude writers.
  struct Held {
    int readers = 0;
    int writers = 0;
  };
  std::vector<Held> held(16);
  std::vector<std::pair<LocalVid, bool>> to_release;
  int granted = 0, requested = 0;
  for (int step = 0; step < 2000; ++step) {
    if (!to_release.empty() && rng.Bernoulli(0.5)) {
      size_t i = rng.UniformInt(to_release.size());
      auto [v, write] = to_release[i];
      to_release.erase(to_release.begin() + i);
      if (write) {
        held[v].writers--;
      } else {
        held[v].readers--;
      }
      locks.Release(v, write);
    } else {
      LocalVid v = static_cast<LocalVid>(rng.UniformInt(16));
      bool write = rng.Bernoulli(0.3);
      requested++;
      locks.Acquire(v, write, [&, v, write] {
        if (write) {
          EXPECT_EQ(held[v].readers, 0);
          EXPECT_EQ(held[v].writers, 0);
          held[v].writers++;
        } else {
          EXPECT_EQ(held[v].writers, 0);
          held[v].readers++;
        }
        to_release.emplace_back(v, write);
        granted++;
      });
    }
  }
  // Drain: release everything; every queued request must eventually fire.
  while (!to_release.empty()) {
    auto [v, write] = to_release.back();
    to_release.pop_back();
    if (write) {
      held[v].writers--;
    } else {
      held[v].readers--;
    }
    locks.Release(v, write);
  }
  EXPECT_EQ(granted, requested) << "lost callbacks";
}

INSTANTIATE_TEST_SUITE_P(Seeds, LockTableFuzz,
                         ::testing::Range<uint64_t>(1, 9));

// ---------------------------------------------------------------------
// Coloring / partitioning on random shapes
// ---------------------------------------------------------------------

class RandomGraphSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomGraphSweep, ColoringAlwaysValid) {
  Rng rng(GetParam());
  uint64_t n = 50 + rng.UniformInt(500);
  uint32_t deg = 2 + static_cast<uint32_t>(rng.UniformInt(6));
  auto s = gen::PowerLawWeb(n, deg, 0.7 + rng.UniformDouble() * 0.8,
                            GetParam());
  EXPECT_TRUE(ValidateColoring(s, GreedyColoring(s)));
  EXPECT_TRUE(ValidateSecondOrderColoring(s, SecondOrderColoring(s)));
}

TEST_P(RandomGraphSweep, PartitionersCoverAllVertices) {
  Rng rng(GetParam());
  uint64_t n = 50 + rng.UniformInt(500);
  auto s = gen::PowerLawWeb(n, 3, 0.9, GetParam());
  AtomId k = 2 + static_cast<AtomId>(rng.UniformInt(7));
  for (auto part : {RandomPartition(n, k, GetParam()),
                    BlockPartition(n, k), StripedPartition(n, k),
                    BfsPartition(s, k, GetParam())}) {
    ASSERT_EQ(part.size(), n);
    for (AtomId a : part) EXPECT_LT(a, k);
    auto q = EvaluatePartition(s, part, k);
    EXPECT_LE(q.cut_edges, s.num_edges());
  }
}

TEST_P(RandomGraphSweep, AtomRoundTripPreservesData) {
  Rng rng(GetParam() ^ 0xA70A);
  uint64_t n = 30 + rng.UniformInt(100);
  auto s = gen::PowerLawWeb(n, 3, 0.8, GetParam());
  auto g = apps::BuildPageRankGraph(s);
  for (VertexId v = 0; v < n; ++v) g.vertex_data(v).rank = rng.Gaussian();

  std::string dir = "/tmp/gl_prop_atoms_" + std::to_string(::getpid()) +
                    "_" + std::to_string(GetParam());
  AtomId k = 2 + static_cast<AtomId>(rng.UniformInt(5));
  auto atom_of = RandomPartition(n, k, GetParam());
  auto colors = GreedyColoring(s);
  AtomIndex index;
  ASSERT_TRUE(WriteAtoms(g, atom_of, colors, k, dir, &index).ok());

  // Load every atom and verify owned data matches the source graph.
  uint64_t owned_seen = 0;
  for (AtomId a = 0; a < k; ++a) {
    auto content =
        LoadAtom<PageRankVertex, PageRankEdge>(index.atoms[a]);
    ASSERT_TRUE(content.ok());
    for (const auto& vc : content->vertices) {
      if (!vc.ghost) {
        EXPECT_EQ(vc.data.rank, g.vertex_data(vc.gvid).rank);
        owned_seen++;
      }
    }
  }
  EXPECT_EQ(owned_seen, n);
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGraphSweep,
                         ::testing::Range<uint64_t>(1, 11));

// ---------------------------------------------------------------------
// Zipf sampler distribution property
// ---------------------------------------------------------------------

class ZipfSweep
    : public ::testing::TestWithParam<std::pair<uint64_t, double>> {};

TEST_P(ZipfSweep, RankFrequenciesMonotone) {
  auto [n, alpha] = GetParam();
  Rng rng(9);
  ZipfSampler zipf(n, alpha);
  std::vector<uint64_t> counts(n, 0);
  for (int i = 0; i < 200000; ++i) counts[zipf.Sample(&rng)]++;
  // Check coarse monotonicity over decades (individual adjacent ranks are
  // noisy; decades must be ordered).
  uint64_t last_bucket = ~uint64_t{0};
  for (uint64_t lo = 1; lo < n; lo *= 4) {
    uint64_t hi = std::min(n, lo * 4);
    uint64_t bucket = 0;
    for (uint64_t r = lo - 1; r < hi - 1; ++r) bucket += counts[r];
    bucket /= (hi - lo);
    EXPECT_LE(bucket, last_bucket) << "alpha=" << alpha << " lo=" << lo;
    last_bucket = bucket;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ZipfSweep,
    ::testing::Values(std::pair<uint64_t, double>{100, 0.7},
                      std::pair<uint64_t, double>{1000, 1.0},
                      std::pair<uint64_t, double>{1000, 1.5},
                      std::pair<uint64_t, double>{10000, 0.9}));

// ---------------------------------------------------------------------
// Cold-column codec: golden bytes pin the wire format
// ---------------------------------------------------------------------

TEST(ColumnCodec, DictGoldenBytes) {
  // Low-cardinality float column -> dictionary codec.  Layout:
  // [u8 codec=1][u32 count][u32 dict_size][dict values][u8 codes].
  const std::vector<float> col = {0.5f, 0.25f, 0.5f, 0.25f, 0.5f, 0.25f};
  std::string out;
  auto stats = EncodeColumn<float>({col.data(), col.size()}, &out);
  EXPECT_EQ(stats.codec, ColumnCodec::kDict);
  EXPECT_EQ(stats.raw_bytes, 24u);
  EXPECT_EQ(stats.encoded_bytes, out.size());
  const uint8_t golden[] = {
      0x01,                    // codec = kDict
      0x06, 0x00, 0x00, 0x00,  // count = 6
      0x02, 0x00, 0x00, 0x00,  // dict_size = 2
      0x00, 0x00, 0x00, 0x3F,  // 0.5f  (first occurrence)
      0x00, 0x00, 0x80, 0x3E,  // 0.25f
      0x00, 0x01, 0x00, 0x01, 0x00, 0x01,  // codes
  };
  ASSERT_EQ(out.size(), sizeof(golden));
  EXPECT_EQ(std::memcmp(out.data(), golden, sizeof(golden)), 0);

  std::vector<float> back;
  ASSERT_TRUE(DecodeColumn<float>(out, &back));
  EXPECT_EQ(back, col);
}

TEST(ColumnCodec, DeltaVarintGoldenBytes) {
  // Sorted id column -> zigzag delta varint, ~1 byte per element.
  const std::vector<uint32_t> col = {10, 11, 12, 13, 20};
  std::string out;
  auto stats = EncodeColumn<uint32_t>({col.data(), col.size()}, &out);
  EXPECT_EQ(stats.codec, ColumnCodec::kDeltaVarint);
  EXPECT_EQ(stats.raw_bytes, 20u);
  const uint8_t golden[] = {
      0x02,                    // codec = kDeltaVarint
      0x05, 0x00, 0x00, 0x00,  // count = 5
      0x14,                    // zigzag(10 - 0)  = 20
      0x02, 0x02, 0x02,        // zigzag(+1) x 3  = 2
      0x0E,                    // zigzag(20 - 13) = 14
  };
  ASSERT_EQ(out.size(), sizeof(golden));
  EXPECT_EQ(std::memcmp(out.data(), golden, sizeof(golden)), 0);
  EXPECT_LT(stats.ratio(), 0.51);  // 10/20 bytes, header included

  std::vector<uint32_t> back;
  ASSERT_TRUE(DecodeColumn<uint32_t>(out, &back));
  EXPECT_EQ(back, col);
}

TEST(ColumnCodec, RawGoldenBytes) {
  // All-distinct float column: neither dict nor delta wins -> verbatim.
  const std::vector<float> col = {1.0f, 2.0f, 3.0f, 4.0f};
  std::string out;
  auto stats = EncodeColumn<float>({col.data(), col.size()}, &out);
  EXPECT_EQ(stats.codec, ColumnCodec::kRaw);
  const uint8_t golden[] = {
      0x00,                    // codec = kRaw
      0x04, 0x00, 0x00, 0x00,  // count = 4
      0x00, 0x00, 0x80, 0x3F,  // 1.0f
      0x00, 0x00, 0x00, 0x40,  // 2.0f
      0x00, 0x00, 0x40, 0x40,  // 3.0f
      0x00, 0x00, 0x80, 0x40,  // 4.0f
  };
  ASSERT_EQ(out.size(), sizeof(golden));
  EXPECT_EQ(std::memcmp(out.data(), golden, sizeof(golden)), 0);

  std::vector<float> back;
  ASSERT_TRUE(DecodeColumn<float>(out, &back));
  EXPECT_EQ(back, col);
}

// Delta-varint arithmetic wraps modulo 2^64.  Stepping from INT64_MAX
// to INT64_MIN is a delta of +1, so both encode in one byte each after
// the first value; the bytes are the ones two's-complement wrap-around
// has always produced.
TEST(ColumnCodec, DeltaVarintWrapGoldenBytes) {
  const std::vector<int64_t> col = {INT64_MAX, INT64_MIN};
  std::string out;
  auto stats = EncodeColumn<int64_t>({col.data(), col.size()}, &out);
  EXPECT_EQ(stats.codec, ColumnCodec::kDeltaVarint);
  const uint8_t golden[] = {
      0x02,                    // codec = kDeltaVarint
      0x02, 0x00, 0x00, 0x00,  // count = 2
      0xFE, 0xFF, 0xFF, 0xFF, 0xFF,
      0xFF, 0xFF, 0xFF, 0xFF, 0x01,  // zigzag(INT64_MAX - 0)
      0x02,                          // zigzag(INT64_MIN - INT64_MAX) = +1
  };
  ASSERT_EQ(out.size(), sizeof(golden));
  EXPECT_EQ(std::memcmp(out.data(), golden, sizeof(golden)), 0);

  std::vector<int64_t> back;
  ASSERT_TRUE(DecodeColumn<int64_t>(out, &back));
  EXPECT_EQ(back, col);
}

// Columns holding INT64_MIN, INT64_MAX and unsigned values above
// INT64_MAX round-trip through every codec that can win, and a decoder
// fed deltas that overflow int64 returns wrapped values, not undefined
// behaviour.
TEST(ColumnCodec, ExtremeIntegerColumnsRoundTrip) {
  constexpr uint64_t kHalf = uint64_t{1} << 63;
  std::vector<int64_t> signed_runs;   // runs across the wrap: delta wins
  std::vector<uint64_t> unsigned_runs;
  for (int64_t i = -8; i < 8; ++i) {
    signed_runs.push_back(static_cast<int64_t>(
        static_cast<uint64_t>(INT64_MAX) + static_cast<uint64_t>(i)));
    unsigned_runs.push_back(kHalf + static_cast<uint64_t>(i));
  }
  const std::vector<std::vector<int64_t>> signed_cols = {
      signed_runs,
      {INT64_MIN, INT64_MAX, INT64_MIN, 0, INT64_MAX, -1, INT64_MIN + 1},
      {INT64_MIN},
      {INT64_MAX, INT64_MAX - 1, INT64_MIN, INT64_MIN + 1}};
  const std::vector<std::vector<uint64_t>> unsigned_cols = {
      unsigned_runs,
      {UINT64_MAX, 0, kHalf, kHalf + 1, kHalf - 1, UINT64_MAX - 5},
      {UINT64_MAX}};
  for (const auto& col : signed_cols) {
    std::string enc;
    EncodeColumn<int64_t>({col.data(), col.size()}, &enc);
    std::vector<int64_t> back;
    ASSERT_TRUE(DecodeColumn<int64_t>(enc, &back));
    EXPECT_EQ(back, col);
  }
  for (const auto& col : unsigned_cols) {
    std::string enc;
    EncodeColumn<uint64_t>({col.data(), col.size()}, &enc);
    std::vector<uint64_t> back;
    ASSERT_TRUE(DecodeColumn<uint64_t>(enc, &back));
    EXPECT_EQ(back, col);
  }
  std::string runs;
  EXPECT_EQ(EncodeColumn<int64_t>({signed_runs.data(), signed_runs.size()},
                                  &runs)
                .codec,
            ColumnCodec::kDeltaVarint);
  runs.clear();
  EXPECT_EQ(EncodeColumn<uint64_t>(
                {unsigned_runs.data(), unsigned_runs.size()}, &runs)
                .codec,
            ColumnCodec::kDeltaVarint);

  // Two deltas of zigzag(INT64_MAX): the running sum wraps to -2.
  const uint8_t crafted[] = {
      0x02, 0x02, 0x00, 0x00, 0x00,
      0xFE, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01,
      0xFE, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01,
  };
  std::vector<int64_t> wrapped;
  ASSERT_TRUE(DecodeColumn<int64_t>(
      std::string_view(reinterpret_cast<const char*>(crafted),
                       sizeof(crafted)),
      &wrapped));
  EXPECT_EQ(wrapped, (std::vector<int64_t>{INT64_MAX, -2}));
}

TEST(ColumnCodec, RandomColumnsRoundTrip) {
  Rng rng(0xC01);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<uint64_t> col(rng.UniformInt(200));
    const int shape = trial % 3;
    uint64_t acc = rng.UniformInt(1000);
    for (auto& v : col) {
      if (shape == 0) {
        v = rng.Next();                        // raw-ish
      } else if (shape == 1) {
        v = rng.UniformInt(4);                 // dict-ish
      } else {
        v = (acc += rng.UniformInt(16));       // delta-ish
      }
    }
    std::string enc;
    EncodeColumn<uint64_t>({col.data(), col.size()}, &enc);
    std::vector<uint64_t> back;
    ASSERT_TRUE(DecodeColumn<uint64_t>(enc, &back)) << "trial " << trial;
    EXPECT_EQ(back, col) << "trial " << trial;
  }
}

// Five bytes claiming 2^32-1 values: the decoder must reject the count
// against the bytes left before it allocates, for every codec (a reserve
// sized by the count threw std::bad_alloc and killed the process).
TEST(ColumnCodec, HugeCountRejectedBeforeAllocation) {
  using Wide = std::array<uint64_t, 4>;
  for (char codec : {'\x00', '\x01', '\x02'}) {
    const char bytes[] = {codec, '\xFF', '\xFF', '\xFF', '\xFF'};
    const std::string_view in(bytes, sizeof(bytes));
    std::vector<uint64_t> u64;
    EXPECT_FALSE(DecodeColumn<uint64_t>(in, &u64));
    EXPECT_EQ(u64.capacity(), 0u);
    std::vector<Wide> wide;
    EXPECT_FALSE(DecodeColumn<Wide>(in, &wide));
    EXPECT_EQ(wide.capacity(), 0u);
  }
}

// Empty columns (every ghost frame without edges carries three) decode
// without handing memcpy the null data() of an empty vector, and a
// dictionary with no entries holds only an empty column.
TEST(ColumnCodec, EmptyColumnAndEmptyDictionary) {
  std::string empty;
  EncodeColumn<uint32_t>({}, &empty);
  std::vector<uint32_t> back;
  ASSERT_TRUE(DecodeColumn<uint32_t>(empty, &back));
  EXPECT_TRUE(back.empty());

  const char no_dict[] = {1, 0, 0, 0, 0, 0, 0, 0, 0};
  EXPECT_TRUE(DecodeColumn<uint32_t>(
      std::string_view(no_dict, sizeof(no_dict)), &back));
  EXPECT_TRUE(back.empty());
  const char no_dict_one_code[] = {1, 1, 0, 0, 0, 0, 0, 0, 0, 0};
  EXPECT_FALSE(DecodeColumn<uint32_t>(
      std::string_view(no_dict_one_code, sizeof(no_dict_one_code)), &back));
}

// ---------------------------------------------------------------------
// Columnar snapshot journal: finalize -> mutate -> snapshot -> restore
// ---------------------------------------------------------------------

TEST(ColumnarStorage, SyncSnapshotColumnRoundTrip) {
  const size_t machines = 2;
  auto structure = gen::PowerLawWeb(200, 4, 0.8, 11);
  auto global = apps::BuildPageRankGraph(structure);
  auto colors = GreedyColoring(structure);
  auto atom_of = BlockPartition(structure.num_vertices, machines);
  std::vector<rpc::MachineId> placement = {0, 1};
  std::string dir = std::filesystem::temp_directory_path() /
                    ("gl_prop_colsnap_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);

  auto expected_rank = [](VertexId gvid) { return 0.25 * gvid + 1.0; };
  auto expected_weight = [](VertexId gvid) {
    return 0.5f * static_cast<float>(gvid % 16 + 1);
  };

  rpc::Runtime runtime(testutil::ClusterFor(rpc::TransportKind::kInProcess,
                                            machines));
  std::vector<DGraph> graphs(machines);
  runtime.Run([&](rpc::MachineContext& ctx) {
    DGraph& graph = graphs[ctx.id];
    ASSERT_TRUE(graph
                    .InitFromGlobal(global, atom_of, colors, placement,
                                    ctx.id, &ctx.comm())
                    .ok());
    SnapshotManager<PageRankVertex, PageRankEdge> snapshot(ctx, &graph, dir);
    ctx.barrier().Wait(ctx.id);

    // Mutate every owned vertex and its out-edges to values derived from
    // the global id, so both machines can verify without coordination.
    for (LocalVid l : graph.owned_vertices()) {
      graph.vertex_data(l).rank = expected_rank(graph.Gvid(l));
      graph.MarkVertexModified(l);
      for (LocalEid e : graph.out_edges(l)) {
        graph.edge_data(e).weight = expected_weight(graph.Gvid(l));
        graph.MarkEdgeModified(e);
      }
    }
    ASSERT_TRUE(snapshot.WriteSyncSnapshot(1).ok());
    ctx.barrier().Wait(ctx.id);

    // The journal must be a full journal in the v3 envelope.
    auto bytes = ReadFileBytes(snapshot.JournalPath(1));
    ASSERT_TRUE(bytes.ok());
    ASSERT_FALSE(bytes->empty());
    EXPECT_EQ(static_cast<uint8_t>((*bytes)[0]), kColumnarJournalMagic);
    EXPECT_EQ(static_cast<uint8_t>((*bytes)[1]), kJournalVersion);

    // Scribble over everything the journal covers, then restore.
    for (LocalVid l : graph.owned_vertices()) {
      graph.vertex_data(l).rank = -7.0;
      for (LocalEid e : graph.out_edges(l)) graph.edge_data(e).weight = -1.0f;
    }
    ASSERT_TRUE(snapshot.Restore(1).ok());
    ctx.flush().Run(ctx.id);

    for (LocalVid l : graph.owned_vertices()) {
      EXPECT_EQ(graph.vertex_data(l).rank, expected_rank(graph.Gvid(l)));
      for (LocalEid e : graph.out_edges(l)) {
        EXPECT_EQ(graph.edge_data(e).weight, expected_weight(graph.Gvid(l)));
      }
    }
  });
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace graphlab
