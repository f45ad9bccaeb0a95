// Copyright 2026 The Distributed GraphLab Reproduction Authors.
//
// Live time-series sampling over the metrics registry.
//
// The PR 7 registry answers "how much happened since the run started";
// the paper's evaluation questions (Secs. 5-6) are about *rates while
// the cluster runs* — updates/s per machine, bytes/s per link, whether
// the p99 lock stall is drifting.  This layer derives those windows:
//
//   TimeSeriesRing     fixed-capacity ring of (t, value) sample points;
//                      overwrites oldest on overflow and counts the
//                      evictions, so truncation is self-describing.
//   TelemetrySample    one machine's sample window: cumulative values at
//                      t plus the rates derived against the previous
//                      tick.  Serializable — this is what crosses the
//                      wire to machine 0.
//   TimeSeriesSampler  the background thread: every interval it
//                      snapshots a configured set of counters/gauges/
//                      histograms into per-metric rings, derives the
//                      windowed rates, and hands the sample to an
//                      optional push function (the telemetry channel).
//   ClusterTimeSeries  machine 0's merged view: per-machine sample
//                      rings keyed by origin machine, stamped with the
//                      master-local arrival time so staleness (a dead
//                      or stalled machine) is detectable without
//                      comparing cross-machine clocks.
//
// Fast-path discipline: the sampler touches the registry O(metrics)
// once per interval on its own thread; nothing here adds work to the
// per-update path.  bench_metrics_overhead prices the combined
// counter+sampler cost and CI gates it at <= 2%.

#ifndef GRAPHLAB_METRICS_TIMESERIES_H_
#define GRAPHLAB_METRICS_TIMESERIES_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "graphlab/metrics/metrics.h"
#include "graphlab/util/serialization.h"

namespace graphlab {
namespace metrics {

/// One point of a sampled series: registry value at a steady-clock time.
struct SamplePoint {
  uint64_t t_ns = 0;
  double value = 0;
};

/// Fixed-capacity ring of sample points, oldest overwritten first.
/// Single-writer (the sampler thread); readers take the owner's lock.
class TimeSeriesRing {
 public:
  explicit TimeSeriesRing(size_t capacity);

  void Push(uint64_t t_ns, double value);

  size_t size() const;
  size_t capacity() const { return ring_.size(); }
  bool empty() const { return total_ == 0; }
  /// Total points ever pushed and how many were evicted by wrap.
  uint64_t pushed() const { return total_; }
  uint64_t dropped() const {
    return total_ > ring_.size() ? total_ - ring_.size() : 0;
  }

  /// i = 0 is the OLDEST retained point, size()-1 the newest.
  const SamplePoint& At(size_t i) const;
  const SamplePoint& Latest() const;

  /// Per-second rate of change between two cumulative sample points
  /// (0 when the window is empty or time did not advance).
  static double Rate(const SamplePoint& prev, const SamplePoint& cur);

 private:
  std::vector<SamplePoint> ring_;
  size_t head_ = 0;     // next slot to write
  uint64_t total_ = 0;  // points ever pushed
};

/// Bucket-wise subtraction cur - prev of two cumulative histogram
/// snapshots: the distribution of recordings that happened *within* the
/// window, from which windowed percentiles (p99 lock stall) derive.
/// Counter resets (cur < prev) yield cur itself.
HistogramData HistogramWindowDelta(const HistogramData& prev,
                                   const HistogramData& cur);

/// One machine's sample window — the unit the telemetry channel ships
/// to machine 0 every tick.  `values` are cumulative registry readings
/// at t_ns; `rates` are the windowed derivations against the previous
/// tick ("<name>.rate" in units/s, "<name>.p99" for histograms).
struct TelemetrySample {
  uint32_t machine = 0;
  uint64_t seq = 0;          // per-machine tick number, from 1
  uint64_t t_ns = 0;         // machine-local steady clock at sampling
  uint64_t interval_ns = 0;  // window covered (0 on the first tick)
  std::vector<std::pair<std::string, double>> values;
  std::vector<std::pair<std::string, double>> rates;

  /// Lookup helpers; `def` when the key was not sampled.
  double Value(const std::string& name, double def = 0) const;
  double Rate(const std::string& name, double def = 0) const;

  void Save(OutArchive* oa) const;
  void Load(InArchive* ia);
};

/// What the sampler watches and how often.
struct TimeSeriesOptions {
  uint64_t interval_ms = 100;
  /// Points retained per metric ring (per machine).
  size_t ring_capacity = 600;
  /// Counter/gauge names to sample (cumulative; ".rate" derived).
  std::vector<std::string> scalars = {
      "engine.updates", "rpc.bytes_sent", "rpc.messages_sent",
      "sched.depth",    "sched.steals",   "trace.dropped_events"};
  /// Histogram names to sample (".p99" derived over the window).
  std::vector<std::string> histograms = {"lock.stall_ns"};
};

/// The background sampler.  Start() spawns the thread; each tick it
/// runs the optional probe (for gauges only the caller can read, e.g.
/// trace-ring drop counts), snapshots the configured metrics into the
/// per-metric rings, derives windowed rates, and pushes the sample.
/// Stop() (or destruction) joins the thread.  SampleOnce() drives a
/// tick synchronously for tests and for a final flush before Stop().
class TimeSeriesSampler {
 public:
  using PushFn = std::function<void(const TelemetrySample&)>;

  TimeSeriesSampler(MetricsRegistry* registry, TimeSeriesOptions options,
                    uint32_t machine = 0);
  ~TimeSeriesSampler();

  TimeSeriesSampler(const TimeSeriesSampler&) = delete;
  TimeSeriesSampler& operator=(const TimeSeriesSampler&) = delete;

  /// Called after every tick, on the sampler thread.  Set before
  /// Start().
  void SetPushFn(PushFn fn) { push_ = std::move(fn); }
  /// Called before every snapshot, on the sampler thread (publish
  /// derived gauges the registry cannot compute itself).
  void SetProbe(std::function<void()> probe) { probe_ = std::move(probe); }

  void Start();
  void Stop();
  bool running() const { return thread_.joinable(); }

  /// Takes one sample now (also used internally by the thread).
  TelemetrySample SampleOnce();

  /// The retained series for one sampled metric (nullptr when the name
  /// is not configured).  Callers must hold no expectation of
  /// concurrent consistency beyond one ring — taken under the sampler
  /// lock.
  std::vector<SamplePoint> Series(const std::string& name) const;
  uint64_t ticks() const { return ticks_.load(std::memory_order_acquire); }
  TelemetrySample Latest() const;

  const TimeSeriesOptions& options() const { return options_; }

 private:
  void Loop();

  MetricsRegistry* registry_;
  TimeSeriesOptions options_;
  uint32_t machine_;
  PushFn push_;
  std::function<void()> probe_;

  mutable std::mutex mutex_;
  std::map<std::string, TimeSeriesRing> rings_;  // guarded by mutex_
  // Previous tick's cumulative state, for window derivation.
  std::map<std::string, double> prev_scalars_;
  std::map<std::string, HistogramData> prev_hists_;
  uint64_t prev_t_ns_ = 0;
  uint64_t seq_ = 0;
  TelemetrySample latest_;  // guarded by mutex_

  std::atomic<uint64_t> ticks_{0};
  std::thread thread_;
  std::mutex stop_mutex_;
  std::condition_variable stop_cv_;
  bool stop_requested_ = false;
};

/// Machine 0's merged cluster time-series: per-machine rings of the
/// pushed samples, stamped with master-local arrival time.  Thread
/// safe (samples arrive on dispatch threads, readers on the report /
/// health path).
class ClusterTimeSeries {
 public:
  explicit ClusterTimeSeries(size_t ring_capacity = 600)
      : capacity_(ring_capacity) {}

  void Ingest(const TelemetrySample& sample);

  uint64_t samples_ingested() const;
  /// Machines that have ever reported, ascending.
  std::vector<uint32_t> machines() const;
  /// Latest sample per machine whose arrival is within `freshness_ns`
  /// of now (0 = no freshness filter).
  std::map<uint32_t, TelemetrySample> Latest(uint64_t freshness_ns = 0) const;
  /// Full retained history for one machine, oldest first.
  std::vector<TelemetrySample> History(uint32_t machine) const;

  /// One compact live-table render: a row per machine with the given
  /// rate keys as columns (the --telemetry-report output).
  std::string FormatLiveTable(
      const std::vector<std::string>& rate_keys) const;

 private:
  struct MachineSeries {
    std::vector<TelemetrySample> ring;  // capacity_-bounded
    std::vector<uint64_t> arrival_ns;   // master clock, aligned with ring
    size_t head = 0;
    uint64_t total = 0;
  };

  size_t capacity_;
  mutable std::mutex mutex_;
  std::map<uint32_t, MachineSeries> per_machine_;
  uint64_t ingested_ = 0;
};

}  // namespace metrics
}  // namespace graphlab

#endif  // GRAPHLAB_METRICS_TIMESERIES_H_
