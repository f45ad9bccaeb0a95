// Copyright 2026 The Distributed GraphLab Reproduction Authors.
//
// Measures what the metrics registry costs on the engine fast path.
//
// The observability contract is that counting an update is ONE relaxed
// add to a per-thread counter stripe — cheap enough to leave on in every
// build.  This bench prices that claim: it runs the substrate's
// per-update work unit (scheduler pop + scope lock acquire/release + a
// small gather fold) in two variants, uninstrumented and instrumented
// exactly like ExecutionSubstrate (one Counter::Inc per update), and
// reports the relative overhead.
//
// A third variant prices the telemetry plane: counters on PLUS a
// TimeSeriesSampler snapshotting the registry at an aggressive 10ms
// cadence on its own thread.  The sampler never touches the update
// path, so its cost shows up only as cache/memory interference — the
// gate covers the *combined* counter+sampler overhead.
//
// Two more variants price the engines' busy-time clock
// (Timer::ThreadCpuNanos, a clock_gettime syscall) on top of the
// counter: one read pair per kBusyBatchUpdates-update batch, the way the
// synchronous engines bracket each RunBatch chunk (about one PageRank
// colour step per machine), and one pair per update, the price of a
// per-task bracket (the asynchronous engines take one pair per worker
// per run instead).
//
// Interleaved best-of-N repetitions cancel frequency drift; the CI
// bench-smoke job asserts overhead_fraction <= 0.02 and prints the busy
// clock rows, ungated, from the emitted BENCH_metrics.json.
//
//   ./bench_metrics_overhead [--updates=N] [--reps=R] [--json=FILE]

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_json.h"
#include "graphlab/engine/locking/lock_table.h"
#include "graphlab/metrics/metrics.h"
#include "graphlab/metrics/timeseries.h"
#include "graphlab/scheduler/scheduler.h"
#include "graphlab/util/options.h"
#include "graphlab/util/random.h"
#include "graphlab/util/timer.h"

namespace graphlab {
namespace {

constexpr size_t kVertices = 1 << 14;

/// Updates per busy-clock read pair in Probe::kBusyBatch.
constexpr uint64_t kBusyBatchUpdates = 40;

/// What a variant adds to the work unit.
enum class Probe {
  kNone,        // uninstrumented
  kCounter,     // one Counter::Inc per update, like CountUpdate()
  kBusyBatch,   // counter + one ThreadCpuNanos pair per batch
  kBusyUpdate,  // counter + one ThreadCpuNanos pair per update
};

/// One engine-shaped work unit: pop a vertex, lock its scope, fold a few
/// neighbor values, release, reschedule.  Returns a sink value so the
/// compiler keeps the fold.
template <Probe kProbe>
double RunUpdates(uint64_t updates, IScheduler* sched,
                  CallbackLockTable* locks, metrics::Counter* update_count) {
  // The busy variants close one clock interval and open the next every
  // kClockEvery updates: one read pair per batch (or per update).
  constexpr bool kBusy =
      kProbe == Probe::kBusyBatch || kProbe == Probe::kBusyUpdate;
  constexpr uint64_t kClockEvery =
      kProbe == Probe::kBusyUpdate ? 1 : kBusyBatchUpdates;
  uint64_t busy_ns = 0;
  uint64_t cpu0 = 0;
  Rng rng(42);
  std::vector<double> neighbor_values(kVertices, 1.0 / kVertices);
  double sink = 0;
  for (uint64_t u = 0; u < updates; ++u) {
    if constexpr (kBusy) {
      if (u % kClockEvery == 0) {
        if (u > 0) busy_ns += Timer::ThreadCpuNanos() - cpu0;
        cpu0 = Timer::ThreadCpuNanos();
      }
    }
    LocalVid v;
    double priority;
    if (!sched->GetNext(&v, &priority)) {
      sched->Schedule(static_cast<LocalVid>(rng.UniformInt(kVertices)), 1.0);
      continue;
    }
    bool entered = false;
    locks->Acquire(v, true, [&] { entered = true; });
    double acc = 0;
    for (size_t e = 0; e < 16; ++e) {
      acc += neighbor_values[(v + e * 37) & (kVertices - 1)];
    }
    neighbor_values[v] = 0.15 / kVertices + 0.85 * acc;
    locks->Release(v, true);
    if constexpr (kProbe != Probe::kNone) update_count->Inc();
    sink += entered ? acc : 0;
    sched->Schedule(static_cast<LocalVid>(rng.UniformInt(kVertices)), 1.0);
  }
  if constexpr (kBusy) {
    busy_ns += Timer::ThreadCpuNanos() - cpu0;
    sink += static_cast<double>(busy_ns) * 1e-9;
  }
  return sink;
}

template <Probe kProbe>
double MeasureSeconds(uint64_t updates, metrics::Counter* update_count,
                      double* sink) {
  auto sched = std::move(CreateScheduler("fifo", kVertices).value());
  CallbackLockTable locks(kVertices);
  for (LocalVid v = 0; v < 256; ++v) sched->Schedule(v, 1.0);
  Timer timer;
  *sink += RunUpdates<kProbe>(updates, sched.get(), &locks, update_count);
  return timer.Seconds();
}

}  // namespace
}  // namespace graphlab

int main(int argc, char** argv) {
  using namespace graphlab;
  OptionMap opts;
  opts.ParseArgs(argc, argv);
  const uint64_t updates =
      static_cast<uint64_t>(opts.GetInt("updates", 2000000));
  const int reps = static_cast<int>(opts.GetInt("reps", 5));
  const std::string json_path =
      opts.GetString("json", "BENCH_metrics.json");

  metrics::MetricsRegistry registry;
  metrics::Counter* update_count = registry.counter("engine.updates");

  // Put glibc in the multithreaded regime before any variant runs: once a
  // process has ever spawned a thread, pthread mutex ops stop using the
  // single-threaded fast paths, and the work unit's lock-table/scheduler
  // mutexes get ~60% slower on some hosts.  A real engine always has
  // transport and worker threads, so the single-threaded baseline is a
  // regime production never sees — measuring against it would misprice
  // the sampler thread as the cause.
  std::thread([] {}).join();

  double sink = 0;
  // Warm every path (page faults, branch predictors) before timing.
  MeasureSeconds<Probe::kNone>(updates / 10, update_count, &sink);
  MeasureSeconds<Probe::kCounter>(updates / 10, update_count, &sink);
  MeasureSeconds<Probe::kBusyBatch>(updates / 10, update_count, &sink);
  MeasureSeconds<Probe::kBusyUpdate>(updates / 10, update_count, &sink);

  double plain_best = 1e300;
  double instrumented_best = 1e300;
  double sampler_best = 1e300;
  double busy_batch_best = 1e300;
  double busy_update_best = 1e300;
  {
    // Telemetry variant: sampler snapshotting this same registry at 10x
    // the default --telemetry-interval-ms cadence while updates run.
    metrics::TimeSeriesOptions ts_opts;
    ts_opts.interval_ms = 10;
    metrics::TimeSeriesSampler sampler(&registry, ts_opts);
    for (int r = 0; r < reps; ++r) {
      plain_best = std::min(
          plain_best,
          MeasureSeconds<Probe::kNone>(updates, update_count, &sink));
      instrumented_best = std::min(
          instrumented_best, MeasureSeconds<Probe::kCounter>(
                                 updates, update_count, &sink));
      sampler.Start();
      sampler_best = std::min(
          sampler_best, MeasureSeconds<Probe::kCounter>(
                            updates, update_count, &sink));
      sampler.Stop();
      busy_batch_best = std::min(
          busy_batch_best, MeasureSeconds<Probe::kBusyBatch>(
                               updates, update_count, &sink));
      busy_update_best = std::min(
          busy_update_best, MeasureSeconds<Probe::kBusyUpdate>(
                                updates, update_count, &sink));
    }
  }

  const double counter_overhead =
      (instrumented_best - plain_best) / plain_best;
  const double overhead = (sampler_best - plain_best) / plain_best;
  // The busy clock rows price counter + clock against the uninstrumented
  // baseline: the whole per-update accounting of each engine family.
  const double busy_batch_overhead =
      (busy_batch_best - plain_best) / plain_best;
  const double busy_update_overhead =
      (busy_update_best - plain_best) / plain_best;
  const double plain_mups = updates / plain_best / 1e6;
  const double instrumented_mups = updates / instrumented_best / 1e6;
  const double sampler_mups = updates / sampler_best / 1e6;
  const double busy_batch_mups = updates / busy_batch_best / 1e6;
  const double busy_update_mups = updates / busy_update_best / 1e6;

  std::printf("plain:        %.2f Mupdates/s (best of %d)\n", plain_mups,
              reps);
  std::printf("instrumented: %.2f Mupdates/s (engine.updates = %llu)\n",
              instrumented_mups,
              static_cast<unsigned long long>(update_count->Value()));
  std::printf("sampler-on:   %.2f Mupdates/s (10ms telemetry ticks)\n",
              sampler_mups);
  std::printf("busy/batch:   %.2f Mupdates/s (clock pair per %llu updates)\n",
              busy_batch_mups,
              static_cast<unsigned long long>(kBusyBatchUpdates));
  std::printf("busy/update:  %.2f Mupdates/s (clock pair per update)\n",
              busy_update_mups);
  std::printf("counter overhead: %.2f%%\n", counter_overhead * 100);
  std::printf("telemetry overhead: %.2f%%  (sink %.3g)\n", overhead * 100,
              sink);
  std::printf("busy clock overhead: %.2f%% per batch, %.2f%% per update\n",
              busy_batch_overhead * 100, busy_update_overhead * 100);

  // overhead_fraction is what CI gates: the full telemetry plane
  // (counters + live sampler) against the uninstrumented baseline.
  bench::JsonWriter json("metrics");
  json.meta()
      .Set("updates", updates)
      .Set("reps", reps)
      .Set("overhead_fraction", overhead)
      .Set("counter_overhead_fraction", counter_overhead)
      .Set("busy_batch_updates", kBusyBatchUpdates)
      .Set("busy_batch_overhead_fraction", busy_batch_overhead)
      .Set("busy_update_overhead_fraction", busy_update_overhead)
      .Set("plain_mups", plain_mups)
      .Set("instrumented_mups", instrumented_mups)
      .Set("sampler_mups", sampler_mups);
  json.AddRow()
      .Set("row", "plain")
      .Set("seconds", plain_best)
      .Set("mups", plain_mups);
  json.AddRow()
      .Set("row", "instrumented")
      .Set("seconds", instrumented_best)
      .Set("mups", instrumented_mups);
  json.AddRow()
      .Set("row", "sampler_on")
      .Set("seconds", sampler_best)
      .Set("mups", sampler_mups);
  json.AddRow()
      .Set("row", "busy_batch")
      .Set("seconds", busy_batch_best)
      .Set("mups", busy_batch_mups);
  json.AddRow()
      .Set("row", "busy_update")
      .Set("seconds", busy_update_best)
      .Set("mups", busy_update_mups);
  json.WriteFile(json_path);
  return 0;
}
