// Copyright 2026 The Distributed GraphLab Reproduction Authors.
//
// The process-wide metrics registry: cheap sharded primitives the whole
// runtime reports through.
//
// The paper's evaluation (Figs. 1, 3-9) hinges on quantities — updates per
// second, lock stalls, bytes on the wire, checkpoint/recovery stalls —
// that used to be scattered one-off counters.
// This registry unifies them behind hierarchical names:
//
//   engine.updates        update-function executions (Counter)
//   sched.steals          cross-shard scheduler pops (Counter)
//   rpc.bytes_sent        transport traffic (Counter, per machine)
//   lock.stall_ns         contended scope-lock waits (Histogram)
//   fault.recovery_ms     recovery latency (Histogram)
//
// Fast-path discipline: incrementing a Counter is ONE relaxed atomic add
// to a per-worker 64-byte-aligned stripe (no false sharing, no locks, no
// branches beyond the call).  Aggregation happens on read.  Histograms are
// log-bucketed (32 sub-buckets per power of two, <= ~3% relative error)
// with one relaxed add per Record(); percentiles are extracted on read.
//
// Registries are owned per (cluster, machine) by the transport backend —
// see ITransport::registry() — so sequential tests see fresh counters and
// cluster aggregation (metrics/metrics_service.h) can merge per-machine
// snapshots.  Components without a machine context fall back to the
// process-global Default() registry.

#ifndef GRAPHLAB_METRICS_METRICS_H_
#define GRAPHLAB_METRICS_METRICS_H_

#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "graphlab/util/serialization.h"
#include "graphlab/util/timer.h"

namespace graphlab {
namespace metrics {

/// What a metric measures; drives the cluster-wide merge rule
/// (sum for counters, sum for gauges, bucket-wise add for histograms).
enum class MetricKind : uint8_t { kCounter = 0, kGauge = 1, kHistogram = 2 };

inline const char* MetricKindName(MetricKind k) {
  switch (k) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "?";
}

namespace detail {
/// Stripe selection: each thread gets a sticky stripe assigned round-robin
/// at first use, so workers spread across stripes without hashing thread
/// ids.  16 stripes cover the repo's worker counts comfortably.
inline constexpr size_t kStripes = 16;
size_t StripeIndex();
}  // namespace detail

/// A monotone counter.  Inc() is one relaxed fetch_add on the calling
/// thread's cache-line-private stripe; Value() sums the stripes.
class Counter {
 public:
  void Inc(uint64_t n = 1) {
    stripes_[detail::StripeIndex()].v.fetch_add(n, std::memory_order_relaxed);
  }

  uint64_t Value() const {
    uint64_t total = 0;
    for (const Stripe& s : stripes_) {
      total += s.v.load(std::memory_order_relaxed);
    }
    return total;
  }

  /// Zeroes the counter.  Not linearizable against concurrent Inc() — same
  /// contract the raw transport counters had.
  void Reset() {
    for (Stripe& s : stripes_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Stripe {
    std::atomic<uint64_t> v{0};
  };
  Stripe stripes_[detail::kStripes];
};

/// A signed up/down quantity.  Add() is striped like Counter; Set() is a
/// coarse reset-then-set for callers that own the gauge exclusively.
class Gauge {
 public:
  void Add(int64_t d) {
    stripes_[detail::StripeIndex()].v.fetch_add(d, std::memory_order_relaxed);
  }
  void Sub(int64_t d) { Add(-d); }

  /// Overwrites the gauge.  Callers must not race Set() with Add().
  void Set(int64_t value) {
    for (Stripe& s : stripes_) s.v.store(0, std::memory_order_relaxed);
    stripes_[0].v.store(value, std::memory_order_relaxed);
  }

  int64_t Value() const {
    int64_t total = 0;
    for (const Stripe& s : stripes_) {
      total += s.v.load(std::memory_order_relaxed);
    }
    return total;
  }

  void Reset() { Set(0); }

 private:
  struct alignas(64) Stripe {
    std::atomic<int64_t> v{0};
  };
  Stripe stripes_[detail::kStripes];
};

/// Point-in-time histogram contents: the serializable / mergeable form
/// used by snapshots and cluster aggregation.  Buckets are sparse
/// (index, count) pairs sorted by index.
struct HistogramData {
  uint64_t count = 0;
  uint64_t sum = 0;
  std::vector<std::pair<uint32_t, uint64_t>> buckets;

  /// Value below which `p` percent (0..100) of recordings fall,
  /// interpolated within the containing log bucket.  0 when empty.
  double Percentile(double p) const;
  double Mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }

  /// Bucket-wise addition (the cluster merge rule for histograms).
  void Merge(const HistogramData& other);

  void Save(OutArchive* oa) const;
  void Load(InArchive* ia);
};

/// Log-bucketed histogram of uint64 samples (latencies in ns/ms, sizes in
/// bytes).  Record() is one relaxed fetch_add on the sample's bucket plus
/// two relaxed adds for count/sum; relative bucket error is <= 1/32.
class Histogram {
 public:
  // 32 sub-buckets per power of two.
  static constexpr uint32_t kSubBits = 5;
  static constexpr uint32_t kSubBuckets = 1u << kSubBits;
  static constexpr uint32_t kNumBuckets = 64 * kSubBuckets;

  void Record(uint64_t value) {
    buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
  }

  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t Sum() const { return sum_.load(std::memory_order_relaxed); }

  double Percentile(double p) const { return Snapshot().Percentile(p); }

  HistogramData Snapshot() const;
  void Reset();

  /// Which bucket a sample lands in: values below kSubBuckets map
  /// one-to-one; above, the top kSubBits bits below the MSB subdivide
  /// each power of two.
  static uint32_t BucketIndex(uint64_t value) {
    if (value < kSubBuckets) return static_cast<uint32_t>(value);
    const uint32_t msb = 63 - static_cast<uint32_t>(std::countl_zero(value));
    const uint32_t octave = msb - kSubBits + 1;
    const uint32_t sub =
        static_cast<uint32_t>(value >> (msb - kSubBits)) & (kSubBuckets - 1);
    return (octave << kSubBits) + sub;
  }

  /// Inclusive lower bound of a bucket's sample range.
  static uint64_t BucketLowerBound(uint32_t index);
  /// Exclusive upper bound of a bucket's sample range.
  static uint64_t BucketUpperBound(uint32_t index);

 private:
  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
};

/// RAII nanosecond timer feeding a histogram (pass nullptr to disable).
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* hist)
      : hist_(hist), start_ns_(hist != nullptr ? Timer::NowNanos() : 0) {}
  ~ScopedTimer() {
    if (hist_ != nullptr) hist_->Record(Timer::NowNanos() - start_ns_);
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram* hist_;
  uint64_t start_ns_;
};

/// One metric's point-in-time state: what crosses machine boundaries
/// during cluster aggregation.
struct MetricSnapshot {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  uint64_t counter = 0;
  int64_t gauge = 0;
  HistogramData hist;

  void Save(OutArchive* oa) const;
  void Load(InArchive* ia);
};

using RegistrySnapshot = std::vector<MetricSnapshot>;

/// The per-machine metric namespace.  Lookup registers on demand and
/// returns a stable pointer callers cache once; all increments thereafter
/// bypass the registry entirely.  Thread safe.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* counter(const std::string& name);
  Gauge* gauge(const std::string& name);
  Histogram* histogram(const std::string& name);

  /// Point-in-time copy of every registered metric, sorted by name.
  RegistrySnapshot Snapshot() const;

  /// Zeroes every registered metric (names stay registered).
  void Reset();

 private:
  struct Entry {
    MetricKind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry* FindOrCreate(const std::string& name, MetricKind kind);

  mutable std::mutex mutex_;
  std::map<std::string, Entry> entries_;
};

/// The process-global fallback registry for components running without a
/// machine context (single-machine engines, tools).
MetricsRegistry* Default();

}  // namespace metrics
}  // namespace graphlab

#endif  // GRAPHLAB_METRICS_METRICS_H_
