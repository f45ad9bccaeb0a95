// Copyright 2026 The Distributed GraphLab Reproduction Authors.
//
// Tests for the Chrome-trace event tracer: category filtering, buffer
// behavior, the emitted JSON schema, and golden span pairing from two
// real runs — a chromatic color-step and a kill-recover fault cycle.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "graphlab/apps/pagerank.h"
#include "graphlab/engine/engine_factory.h"
#include "graphlab/fault/ft_runner.h"
#include "graphlab/graph/atom.h"
#include "graphlab/graph/coloring.h"
#include "graphlab/graph/generators.h"
#include "graphlab/graph/partition.h"
#include "graphlab/metrics/trace_event.h"
#include "graphlab/rpc/runtime.h"
#include "graphlab/util/logging.h"
#include "tests/transport_param.h"

namespace graphlab {
namespace {

using apps::BuildPageRankGraph;
using apps::MakePageRankUpdateFn;
using apps::PageRankEdge;
using apps::PageRankVertex;
using DGraph = DistributedGraph<PageRankVertex, PageRankEdge>;

/// Counts events in the emitted JSON with the given name and phase.
/// The writer emits fields in a fixed order: {"name":"<n>","cat":"<c>",
/// "ph":"<p>",...}, so a string scan is an exact event count.
size_t CountEvents(const std::string& json, const std::string& name,
                   char phase) {
  const std::string needle = "{\"name\":\"" + name + "\",";
  const std::string ph = std::string("\"ph\":\"") + phase + "\"";
  size_t count = 0;
  for (size_t pos = json.find(needle); pos != std::string::npos;
       pos = json.find(needle, pos + 1)) {
    const size_t end = json.find('}', pos);
    const size_t ph_at = json.find(ph, pos);
    if (ph_at != std::string::npos && ph_at < end) ++count;
  }
  return count;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Structural JSON sanity: balanced braces/brackets outside strings.
/// (Not a full parser, but catches truncation and quoting bugs.)
bool JsonBalanced(const std::string& s) {
  int braces = 0, brackets = 0;
  bool in_string = false;
  for (size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    else if (c == '{') ++braces;
    else if (c == '}') --braces;
    else if (c == '[') ++brackets;
    else if (c == ']') --brackets;
    if (braces < 0 || brackets < 0) return false;
  }
  return braces == 0 && brackets == 0 && !in_string;
}

/// Every test starts from an empty buffer and a clean filter, and leaves
/// tracing off so suites sharing the binary don't bleed events.
class TraceEventTest : public ::testing::Test {
 protected:
  void SetUp() override {
    trace::Clear();
    trace::EnableCategories(0);
    path_ = (std::filesystem::temp_directory_path() /
             ("gltrace_" + std::to_string(::getpid()) + "_" +
              ::testing::UnitTest::GetInstance()->current_test_info()->name() +
              ".json"))
                .string();
  }
  void TearDown() override {
    trace::EnableCategories(0);
    trace::Clear();
    std::filesystem::remove(path_);
  }
  std::string path_;
};

// ---------------------------------------------------------------------
// Filtering and buffering
// ---------------------------------------------------------------------

TEST_F(TraceEventTest, ParseCategories) {
  EXPECT_EQ(trace::ParseCategories(""), 0u);
  EXPECT_EQ(trace::ParseCategories("engine"), trace::kEngine);
  EXPECT_EQ(trace::ParseCategories("engine,rpc"),
            trace::kEngine | trace::kRpc);
  EXPECT_EQ(trace::ParseCategories("sched,fault,snapshot"),
            trace::kSched | trace::kFault | trace::kSnapshot);
  EXPECT_EQ(trace::ParseCategories("all"), trace::kAll);
  EXPECT_EQ(trace::ParseCategories("*"), trace::kAll);
  EXPECT_EQ(trace::ParseCategories("bogus"), 0u);  // ignored with a warning
}

TEST_F(TraceEventTest, DisabledCategoriesDropEvents) {
  ASSERT_EQ(trace::BufferedEventCount(), 0u);
  // Off by default: nothing lands in the buffer.
  GL_TRACE_INSTANT(trace::kEngine, "test.dropped");
  { GL_TRACE_SCOPE(trace::kEngine, "test.dropped_span"); }
  EXPECT_EQ(trace::BufferedEventCount(), 0u);

  // Filtered: only the enabled category emits.
  trace::EnableCategories(trace::kRpc);
  GL_TRACE_INSTANT(trace::kEngine, "test.still_dropped");
  GL_TRACE_INSTANT(trace::kRpc, "test.kept");
  EXPECT_EQ(trace::BufferedEventCount(), 1u);

  trace::EnableCategories(trace::kAll);
  { GL_TRACE_SCOPE1(trace::kEngine, "test.span", "arg", 7); }
  EXPECT_EQ(trace::BufferedEventCount(), 3u);  // +B +E

  trace::Clear();
  EXPECT_EQ(trace::BufferedEventCount(), 0u);
}

// ---------------------------------------------------------------------
// JSON schema
// ---------------------------------------------------------------------

TEST_F(TraceEventTest, WriteChromeTraceSchema) {
  trace::EnableCategories(trace::kAll);
  {
    trace::MachineScope machine(3);
    GL_TRACE_SCOPE1(trace::kEngine, "test.outer", "step", 42);
    GL_TRACE_INSTANT1(trace::kFault, "test.marker", "machine", 1);
  }
  ASSERT_TRUE(trace::WriteChromeTrace(path_).ok());

  const std::string json = ReadFile(path_);
  ASSERT_FALSE(json.empty());
  EXPECT_TRUE(JsonBalanced(json)) << json;
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);

  // The span pairs B with E; the instant carries scope "t" and its arg.
  EXPECT_EQ(CountEvents(json, "test.outer", 'B'), 1u);
  EXPECT_EQ(CountEvents(json, "test.outer", 'E'), 1u);
  EXPECT_EQ(CountEvents(json, "test.marker", 'i'), 1u);
  EXPECT_NE(json.find("\"args\":{\"step\":42}"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"machine\":1}"), std::string::npos);
  EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos);
  // Events carry the MachineScope machine id as pid, and categories.
  EXPECT_NE(json.find("\"pid\":3"), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"engine\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"fault\""), std::string::npos);
}

TEST_F(TraceEventTest, ThreadNamesBecomeMetadataEvents) {
  trace::EnableCategories(trace::kAll);
  const std::string previous = CurrentThreadName();
  SetThreadName("tracer-test-thread");
  GL_TRACE_INSTANT(trace::kEngine, "test.named");
  SetThreadName(previous);
  ASSERT_TRUE(trace::WriteChromeTrace(path_).ok());
  const std::string json = ReadFile(path_);
  EXPECT_GE(CountEvents(json, "thread_name", 'M'), 1u);
  EXPECT_NE(json.find("tracer-test-thread"), std::string::npos);
}

// ---------------------------------------------------------------------
// Flow events and self-describing metadata
// ---------------------------------------------------------------------

TEST_F(TraceEventTest, FlowEventsEmitPairedSendFinishJson) {
  trace::EnableCategories(trace::kRpc);
  const uint64_t id = (uint64_t{7} << 44) | 123;  // (origin, seq) shape
  GL_TRACE_FLOW_SEND(trace::kRpc, "test.flow", id);
  GL_TRACE_FLOW_FINISH(trace::kRpc, "test.flow", id);
  ASSERT_TRUE(trace::WriteChromeTrace(path_).ok());
  const std::string json = ReadFile(path_);
  EXPECT_TRUE(JsonBalanced(json));
  EXPECT_EQ(CountEvents(json, "test.flow", 's'), 1u);
  EXPECT_EQ(CountEvents(json, "test.flow", 'f'), 1u);
  // Both phases carry the same hex flow id...
  char hex[32];
  std::snprintf(hex, sizeof(hex), "\"id\":\"0x%llx\"",
                static_cast<unsigned long long>(id));
  const size_t first = json.find(hex);
  ASSERT_NE(first, std::string::npos);
  EXPECT_NE(json.find(hex, first + 1), std::string::npos);
  // ...and the finish binds to the enclosing dispatch slice.
  EXPECT_NE(json.find("\"bp\":\"e\""), std::string::npos);
}

TEST_F(TraceEventTest, MetadataRecordsDropsAndClockOffsets) {
  // A fresh 16-slot ring (SetUp cleared the buffers, so the next
  // emission on this thread re-sizes it) overflowed by 84 events.
  trace::SetBufferCapacity(16);
  trace::EnableCategories(trace::kEngine);
  for (int i = 0; i < 100; ++i) {
    GL_TRACE_INSTANT(trace::kEngine, "test.spam");
  }
  EXPECT_EQ(trace::DroppedEventCount(), 84u);
  trace::SetPeerClockOffsetNs(1, 2500);
  trace::SetPeerClockOffsetNs(2, -1200);
  ASSERT_TRUE(trace::WriteChromeTrace(path_).ok());
  trace::SetBufferCapacity(1u << 16);
  const std::string json = ReadFile(path_);
  EXPECT_TRUE(JsonBalanced(json));
  // The ring truncation and the peer offsets are self-described in the
  // metadata block the cluster-merge step consumes.
  EXPECT_NE(json.find("\"dropped_events\":84"), std::string::npos);
  EXPECT_NE(json.find("\"clock_offsets_ns\":{"), std::string::npos);
  EXPECT_NE(json.find("\"1\":2500"), std::string::npos);
  EXPECT_NE(json.find("\"2\":-1200"), std::string::npos);
}

// ---------------------------------------------------------------------
// Golden spans from a real chromatic run
// ---------------------------------------------------------------------

TEST_F(TraceEventTest, ChromaticRunEmitsPairedColorSteps) {
  trace::EnableCategories(trace::kEngine | trace::kRpc);

  constexpr size_t kMachines = 2;
  constexpr size_t kVertices = 300;
  auto structure = gen::PowerLawWeb(kVertices, 4, 0.8, 5);
  auto global = BuildPageRankGraph(structure);
  auto colors = GreedyColoring(structure);
  auto atom_of = RandomPartition(kVertices, 8, 3);
  AtomIndex meta = BuildMetaIndex(structure, atom_of, colors, 8);
  auto placement = PlaceAtoms(meta, kMachines);

  rpc::Runtime runtime(
      testutil::ClusterFor(rpc::TransportKind::kInProcess, kMachines));
  testutil::ClusterAllreduce allreduce(&runtime, 1);
  std::vector<DGraph> graphs(kMachines);
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
    engine->SetUpdateFn(MakePageRankUpdateFn<DGraph>(0.85, 1e-10));
    engine->ScheduleAll();
    engine->Start();
    ctx.barrier().Wait(ctx.id);
  });

  ASSERT_TRUE(trace::WriteChromeTrace(path_).ok());
  const std::string json = ReadFile(path_);
  EXPECT_TRUE(JsonBalanced(json));

  // Each machine's sweep walks every color once; begins and ends pair.
  const size_t begins = CountEvents(json, "chromatic.color_step", 'B');
  const size_t ends = CountEvents(json, "chromatic.color_step", 'E');
  EXPECT_GT(begins, 0u);
  EXPECT_EQ(begins, ends);
  EXPECT_EQ(CountEvents(json, "chromatic.sweep", 'B'),
            CountEvents(json, "chromatic.sweep", 'E'));
  EXPECT_GT(CountEvents(json, "chromatic.sweep", 'B'), 0u);
  // Both machines appear as distinct pids (MachineScope in Runtime::Run).
  EXPECT_NE(json.find("\"pid\":0"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos);
}

// ---------------------------------------------------------------------
// Golden spans from a kill-and-recover fault cycle
// ---------------------------------------------------------------------

TEST_F(TraceEventTest, RecoveryCycleEmitsNestedPhaseSpans) {
  trace::EnableCategories(trace::kFault);

  const std::string snapshot_dir =
      (std::filesystem::temp_directory_path() /
       ("gltrace_snap_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(snapshot_dir);

  constexpr size_t kMachines = 4;
  constexpr size_t kVertices = 600;
  constexpr rpc::MachineId kVictim = 3;
  auto structure = gen::PowerLawWeb(kVertices, 5, 0.8, 7);
  auto global = BuildPageRankGraph(structure);
  auto colors = GreedyColoring(structure);
  auto atom_of = RandomPartition(kVertices, 8, 3);
  AtomIndex meta = BuildMetaIndex(structure, atom_of, colors, 8);

  rpc::Runtime runtime(
      testutil::ClusterFor(rpc::TransportKind::kTcp, kMachines));
  fault::FtOptions ft;
  ft.heartbeat_interval_ms = 20;
  ft.heartbeat_timeout_ms = 500;
  ft.snapshot_dir = snapshot_dir;
  ft.checkpoint_interval_seconds = 0.001;  // checkpoint every boundary

  std::vector<DGraph> graphs(kMachines);
  fault::FtReport report0;
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
    problem.update_fn = MakePageRankUpdateFn<DGraph>(0.85, 1e-10);
    problem.engine_options.num_threads = 1;
    if (me == kVictim) {
      problem.on_boundary = [&ctx](uint64_t boundary) -> Status {
        if (boundary == 3) {
          ctx.comm().InjectKill(ctx.id);
          return Status::Aborted("injected kill");
        }
        return Status::OK();
      };
    }
    auto result = runner.Run(problem, &graphs[me]);
    if (me == kVictim) return;  // the dead machine aborted, by design
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    if (me == 0) report0 = *result;
  });
  std::filesystem::remove_all(snapshot_dir);

  ASSERT_GE(report0.recoveries, 1u);
  ASSERT_TRUE(trace::WriteChromeTrace(path_).ok());
  const std::string json = ReadFile(path_);
  EXPECT_TRUE(JsonBalanced(json));

  // The survivors each traced a full recovery cycle: the outer
  // fault.recovery span with drain -> rebuild -> restore -> resume nested
  // inside, every phase's begin paired with its end.
  for (const char* span : {"fault.recovery", "fault.drain", "fault.rebuild",
                           "fault.restore", "fault.resume"}) {
    const size_t begins = CountEvents(json, span, 'B');
    EXPECT_GT(begins, 0u) << span;
    EXPECT_EQ(begins, CountEvents(json, span, 'E')) << span;
  }
  // The detector marked the death, and checkpoints were spanned too.
  EXPECT_GE(CountEvents(json, "fault.peer_down", 'i'), 1u);
  EXPECT_EQ(CountEvents(json, "fault.checkpoint", 'B'),
            CountEvents(json, "fault.checkpoint", 'E'));
  EXPECT_GT(CountEvents(json, "fault.checkpoint", 'B'), 0u);
  // Rendezvous rounds ran on every attempt.
  EXPECT_GT(CountEvents(json, "fault.rendezvous", 'B'), 0u);
}

}  // namespace
}  // namespace graphlab
