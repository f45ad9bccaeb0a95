// Micro-benchmarks (google-benchmark) for the substrate primitives and
// the DESIGN.md ablations: serialization, comm layer throughput,
// schedulers, callback locks, coloring/partitioning, and the ghost
// versioning ablation (bytes saved by not re-sending unchanged data).

#include <benchmark/benchmark.h>

#include <atomic>
#include <thread>

#include "bench/bench_json.h"
#include "graphlab/apps/pagerank.h"
#include "graphlab/engine/locking/lock_table.h"
#include "graphlab/graph/coloring.h"
#include "graphlab/graph/distributed_graph.h"
#include "graphlab/graph/generators.h"
#include "graphlab/graph/partition.h"
#include "graphlab/metrics/metrics.h"
#include "graphlab/rpc/comm_layer.h"
#include "graphlab/rpc/inproc_transport.h"
#include "graphlab/scheduler/scheduler.h"
#include "graphlab/util/random.h"
#include "graphlab/util/serialization.h"

namespace graphlab {
namespace {

constexpr rpc::HandlerId kMarkerHandler = 40;

void BM_SerializeVector(benchmark::State& state) {
  std::vector<double> v(state.range(0), 1.5);
  for (auto _ : state) {
    OutArchive oa;
    oa << v;
    benchmark::DoNotOptimize(oa.buffer().data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0) * 8);
}
BENCHMARK(BM_SerializeVector)->Arg(16)->Arg(256)->Arg(4096);

void BM_DeserializeVector(benchmark::State& state) {
  std::vector<double> v(state.range(0), 1.5);
  OutArchive oa;
  oa << v;
  for (auto _ : state) {
    InArchive ia(oa.buffer());
    std::vector<double> w;
    ia >> w;
    benchmark::DoNotOptimize(w.data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0) * 8);
}
BENCHMARK(BM_DeserializeVector)->Arg(16)->Arg(256)->Arg(4096);

void BM_CommLayerRoundtrip(benchmark::State& state) {
  rpc::CommOptions opts;
  opts.latency = std::chrono::microseconds(0);
  rpc::CommLayer comm(std::make_unique<rpc::InProcessTransport>(2, opts));
  std::atomic<uint64_t> received{0};
  rpc::HandlerScope sink =
      comm.RegisterHandler(1, 100, [&](rpc::MachineId, InArchive&) {
        received.fetch_add(1, std::memory_order_relaxed);
      });
  comm.Start();
  uint64_t sent = 0;
  for (auto _ : state) {
    OutArchive oa;
    oa << uint64_t{42};
    comm.Send(0, 1, 100, std::move(oa));
    ++sent;
  }
  while (received.load(std::memory_order_relaxed) < sent) {
    std::this_thread::yield();
  }
  state.SetItemsProcessed(static_cast<int64_t>(sent));
}
BENCHMARK(BM_CommLayerRoundtrip);

void BM_SchedulerScheduleGetNext(benchmark::State& state) {
  const char* names[] = {"fifo", "sweep", "priority"};
  auto sched =
      std::move(CreateScheduler(names[state.range(0)], 1 << 16).value());
  Rng rng(1);
  for (auto _ : state) {
    LocalVid v = static_cast<LocalVid>(rng.UniformInt(1 << 16));
    sched->Schedule(v, 1.0);
    LocalVid out;
    double priority;
    sched->GetNext(&out, &priority);
    benchmark::DoNotOptimize(out);
  }
  state.SetLabel(names[state.range(0)]);
}
BENCHMARK(BM_SchedulerScheduleGetNext)->Arg(0)->Arg(1)->Arg(2);

void BM_CallbackLockAcquireRelease(benchmark::State& state) {
  CallbackLockTable locks(1 << 12);
  Rng rng(2);
  for (auto _ : state) {
    LocalVid v = static_cast<LocalVid>(rng.UniformInt(1 << 12));
    int fired = 0;
    locks.Acquire(v, true, [&] { fired = 1; });
    benchmark::DoNotOptimize(fired);
    locks.Release(v, true);
  }
}
BENCHMARK(BM_CallbackLockAcquireRelease);

/// The contended lock word: 2-4 threads share 16 hot vertices, 90% of the
/// requests reads.  Most pairs of reads share a lock through the
/// compare-and-swap fast path; a write, or a read behind a queued write,
/// takes the slow path and its callback may fire on the releasing thread,
/// so each thread spins until its own grant has fired before releasing.
void BM_CallbackLockReadMostlyShared(benchmark::State& state) {
  constexpr uint64_t kHot = 16;
  static CallbackLockTable locks(kHot);  // every hold ends inside the loop
  Rng rng(3 + static_cast<uint64_t>(state.thread_index()));
  for (auto _ : state) {
    const LocalVid v = static_cast<LocalVid>(rng.UniformInt(kHot));
    const bool write = rng.UniformInt(10) == 0;
    std::atomic<bool> fired{false};
    locks.Acquire(v, write, [&fired] {
      fired.store(true, std::memory_order_release);
    });
    while (!fired.load(std::memory_order_acquire)) std::this_thread::yield();
    locks.Release(v, write);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CallbackLockReadMostlyShared)->Threads(2)->Threads(4)
    ->UseRealTime();

/// The per-update instrumentation cost in isolation: one relaxed add to
/// a per-thread counter stripe.  bench_metrics_overhead prices the same
/// increment against the full per-update work unit (the ≤2% CI bound);
/// this row tracks the raw primitive across PRs.
void BM_MetricsCounterInc(benchmark::State& state) {
  metrics::MetricsRegistry registry;
  metrics::Counter* c = registry.counter("engine.updates");
  for (auto _ : state) {
    c->Inc();
  }
  benchmark::DoNotOptimize(c->Value());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MetricsCounterInc);

void BM_MetricsHistogramRecord(benchmark::State& state) {
  metrics::MetricsRegistry registry;
  metrics::Histogram* h = registry.histogram("lock.stall_ns");
  uint64_t v = 1;
  for (auto _ : state) {
    h->Record(v);
    v = v * 2862933555777941757ull + 3037000493ull;  // cheap lcg spread
  }
  benchmark::DoNotOptimize(h->Count());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MetricsHistogramRecord);

void BM_GreedyColoring(benchmark::State& state) {
  auto structure =
      gen::Mesh3D(static_cast<uint32_t>(state.range(0)),
                  static_cast<uint32_t>(state.range(0)),
                  static_cast<uint32_t>(state.range(0)), 6);
  for (auto _ : state) {
    auto colors = GreedyColoring(structure);
    benchmark::DoNotOptimize(colors.data());
  }
  state.SetItemsProcessed(state.iterations() * structure.num_vertices);
}
BENCHMARK(BM_GreedyColoring)->Arg(8)->Arg(16);

void BM_BfsPartition(benchmark::State& state) {
  auto structure = gen::Mesh3D(12, 12, 12, 6);
  for (auto _ : state) {
    auto part = BfsPartition(structure, 8, 1);
    benchmark::DoNotOptimize(part.data());
  }
}
BENCHMARK(BM_BfsPartition);

/// Ablation: ghost versioning.  Flush the same unchanged scope twice; the
/// second flush must transmit nothing.  Reports bytes saved per re-flush.
void BM_GhostVersioningAblation(benchmark::State& state) {
  using G = DistributedGraph<apps::PageRankVertex, apps::PageRankEdge>;
  auto structure = gen::PowerLawWeb(2000, 6, 0.8, 3);
  auto global = apps::BuildPageRankGraph(structure);
  auto colors = GreedyColoring(structure);
  auto atom_of = RandomPartition(structure.num_vertices, 2, 3);
  rpc::CommOptions copts;
  copts.latency = std::chrono::microseconds(0);
  rpc::CommLayer comm(std::make_unique<rpc::InProcessTransport>(2, copts));
  // Machine 0's pushes to machine 1 are handled once a marker sent after
  // them on the same FIFO channel is.
  std::atomic<uint64_t> markers{0};
  rpc::HandlerScope marker = comm.RegisterHandler(
      1, kMarkerHandler, [&](rpc::MachineId, InArchive&) {
        markers.fetch_add(1, std::memory_order_release);
      });
  auto drain = [&] {
    const uint64_t want = markers.load(std::memory_order_acquire) + 1;
    comm.Send(0, 1, kMarkerHandler, OutArchive());
    while (markers.load(std::memory_order_acquire) < want) {
      std::this_thread::yield();
    }
  };
  comm.Start();
  std::vector<G> graphs(2);
  for (rpc::MachineId m = 0; m < 2; ++m) {
    GL_CHECK_OK(graphs[m].InitFromGlobal(global, atom_of, colors, {0, 1}, m,
                                         &comm));
  }
  // First flush after modifying everything (the expensive case).
  for (LocalVid l : graphs[0].owned_vertices()) {
    graphs[0].MarkVertexModified(l);
    graphs[0].FlushVertexScope(l);
  }
  drain();
  uint64_t skipped_before = graphs[0].pushes_skipped();
  for (auto _ : state) {
    for (LocalVid l : graphs[0].owned_vertices()) {
      graphs[0].FlushVertexScope(l);  // nothing changed: all skipped
    }
  }
  drain();
  state.counters["pushes_skipped_per_iter"] = benchmark::Counter(
      static_cast<double>(graphs[0].pushes_skipped() - skipped_before) /
      static_cast<double>(state.iterations()));
}
BENCHMARK(BM_GhostVersioningAblation);

}  // namespace
}  // namespace graphlab

namespace {

/// Console output as usual, plus one BENCH_micro_substrate.json row per
/// run (same shape as the other benches' emitters) so the perf
/// trajectory covers the micro level too.
class JsonTeeReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonTeeReporter(graphlab::bench::JsonWriter* json)
      : json_(json) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (RunFailed(run)) continue;
      auto& row = json_->AddRow();
      row.Set("name", run.benchmark_name())
          .Set("iterations", static_cast<long long>(run.iterations))
          .Set("real_time_ns", run.GetAdjustedRealTime())
          .Set("cpu_time_ns", run.GetAdjustedCPUTime());
      for (const auto& [key, counter] : run.counters) {
        row.Set(key, static_cast<double>(counter));
      }
    }
    benchmark::ConsoleReporter::ReportRuns(runs);
  }

 private:
  /// Failed/skipped runs: the field is `error_occurred` up to
  /// google-benchmark 1.7 and the `skipped` enum from 1.8.  Templated so
  /// `if constexpr` discards the branch the installed version lacks.
  template <typename RunT>
  static bool RunFailed(const RunT& run) {
    if constexpr (requires { run.error_occurred; }) {
      return run.error_occurred;
    } else {
      return static_cast<bool>(run.skipped);
    }
  }

  graphlab::bench::JsonWriter* json_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  graphlab::bench::JsonWriter json("micro_substrate");
  JsonTeeReporter reporter(&json);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  json.WriteFile();
  benchmark::Shutdown();
  return 0;
}
