// Copyright 2026 The Distributed GraphLab Reproduction Authors.
//
// Tests for the metrics layer: striped counters under contention,
// log-bucketed histogram percentiles against exact quantiles, snapshot
// serialization, and cluster-wide aggregation over both transports.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "graphlab/metrics/metrics.h"
#include "graphlab/metrics/metrics_service.h"
#include "graphlab/rpc/runtime.h"
#include "graphlab/util/serialization.h"
#include "tests/transport_param.h"

namespace graphlab {
namespace {

using metrics::ClusterMetric;
using metrics::ClusterMetricsView;
using metrics::Counter;
using metrics::Gauge;
using metrics::Histogram;
using metrics::HistogramData;
using metrics::MetricKind;
using metrics::MetricSnapshot;
using metrics::MetricsRegistry;
using metrics::MetricsService;
using metrics::RegistrySnapshot;
using metrics::ScopedTimer;

// ----------------------------------------------------------------------
// Counter / Gauge primitives.
// ----------------------------------------------------------------------

TEST(CounterTest, ConcurrentIncrementsSumExactly) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (uint64_t i = 0; i < kPerThread; ++i) c.Inc();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.Value(), kThreads * kPerThread);

  c.Reset();
  EXPECT_EQ(c.Value(), 0u);
  c.Inc(42);
  EXPECT_EQ(c.Value(), 42u);
}

TEST(GaugeTest, AddSubSetReset) {
  Gauge g;
  g.Add(10);
  g.Sub(3);
  EXPECT_EQ(g.Value(), 7);
  g.Set(-5);
  EXPECT_EQ(g.Value(), -5);
  g.Reset();
  EXPECT_EQ(g.Value(), 0);
}

TEST(GaugeTest, ConcurrentUpDownNets) {
  Gauge g;
  constexpr int kThreads = 4;
  constexpr int kIters = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&g] {
      for (int i = 0; i < kIters; ++i) {
        g.Add(2);
        g.Sub(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(g.Value(), kThreads * kIters);
}

// ----------------------------------------------------------------------
// Histogram: bucketing invariants and percentile accuracy.
// ----------------------------------------------------------------------

TEST(HistogramTest, BucketBoundsContainTheirSamples) {
  const uint64_t probes[] = {0,    1,    31,    32,        33,   100,
                             1023, 1024, 99999, 1u << 30,  1234567890ull,
                             ~0ull >> 1};
  for (uint64_t v : probes) {
    const uint32_t b = Histogram::BucketIndex(v);
    EXPECT_LE(Histogram::BucketLowerBound(b), v) << "value " << v;
    EXPECT_LT(v, Histogram::BucketUpperBound(b)) << "value " << v;
  }
}

TEST(HistogramTest, PercentilesTrackExactQuantiles) {
  // Uniform 1..10000: exact quantile of p is p * 100.  Buckets are 1/32
  // wide in relative terms, so 5% tolerance has comfortable margin.
  Histogram h;
  std::vector<uint64_t> values;
  values.reserve(10000);
  for (uint64_t v = 1; v <= 10000; ++v) values.push_back(v);
  std::mt19937_64 rng(7);
  std::shuffle(values.begin(), values.end(), rng);
  for (uint64_t v : values) h.Record(v);

  EXPECT_EQ(h.Count(), 10000u);
  EXPECT_EQ(h.Sum(), 10000ull * 10001ull / 2);
  for (double p : {50.0, 90.0, 99.0}) {
    const double exact = p * 100.0;
    const double approx = h.Percentile(p);
    EXPECT_NEAR(approx, exact, exact * 0.05) << "p" << p;
  }
  EXPECT_NEAR(h.Snapshot().Mean(), 5000.5, 5000.5 * 0.01);

  h.Reset();
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_EQ(h.Percentile(50), 0.0);
}

TEST(HistogramTest, ConcurrentRecordsKeepTotals) {
  Histogram h;
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        h.Record(static_cast<uint64_t>(t) * 1000 + (i % 997));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(h.Count(), kThreads * kPerThread);
}

TEST(HistogramDataTest, MergeAddsBucketwise) {
  Histogram a;
  Histogram b;
  for (uint64_t v = 1; v <= 1000; ++v) a.Record(v);
  for (uint64_t v = 9001; v <= 10000; ++v) b.Record(v);

  HistogramData merged = a.Snapshot();
  merged.Merge(b.Snapshot());
  EXPECT_EQ(merged.count, 2000u);
  EXPECT_EQ(merged.sum, a.Sum() + b.Sum());
  // Half the mass is <= 1000 and half is >= 9001, so the median sits at
  // the seam and p75 lands inside the upper cluster.
  EXPECT_NEAR(merged.Percentile(75), 9500.0, 9500.0 * 0.06);
  EXPECT_LT(merged.Percentile(25), 1100.0);
}

// ----------------------------------------------------------------------
// Snapshot serialization.
// ----------------------------------------------------------------------

TEST(MetricSnapshotTest, SaveLoadRoundtrip) {
  Histogram h;
  for (uint64_t v : {5ull, 50ull, 500ull, 5000ull}) h.Record(v);

  MetricSnapshot counter_snap;
  counter_snap.name = "engine.updates";
  counter_snap.kind = MetricKind::kCounter;
  counter_snap.counter = 12345;

  MetricSnapshot gauge_snap;
  gauge_snap.name = "sched.queue_depth";
  gauge_snap.kind = MetricKind::kGauge;
  gauge_snap.gauge = -17;

  MetricSnapshot hist_snap;
  hist_snap.name = "lock.stall_ns";
  hist_snap.kind = MetricKind::kHistogram;
  hist_snap.hist = h.Snapshot();

  OutArchive oa;
  counter_snap.Save(&oa);
  gauge_snap.Save(&oa);
  hist_snap.Save(&oa);

  InArchive ia(oa.buffer());
  MetricSnapshot c2, g2, h2;
  c2.Load(&ia);
  g2.Load(&ia);
  h2.Load(&ia);
  ASSERT_TRUE(ia.ok());

  EXPECT_EQ(c2.name, "engine.updates");
  EXPECT_EQ(c2.kind, MetricKind::kCounter);
  EXPECT_EQ(c2.counter, 12345u);
  EXPECT_EQ(g2.name, "sched.queue_depth");
  EXPECT_EQ(g2.gauge, -17);
  EXPECT_EQ(h2.name, "lock.stall_ns");
  EXPECT_EQ(h2.hist.count, 4u);
  EXPECT_EQ(h2.hist.sum, 5555u);
  EXPECT_EQ(h2.hist.buckets, hist_snap.hist.buckets);
}

// ----------------------------------------------------------------------
// Registry behavior.
// ----------------------------------------------------------------------

TEST(MetricsRegistryTest, LookupReturnsStablePointers) {
  MetricsRegistry reg;
  Counter* c1 = reg.counter("engine.updates");
  Counter* c2 = reg.counter("engine.updates");
  EXPECT_EQ(c1, c2);
  Histogram* h1 = reg.histogram("lock.stall_ns");
  Histogram* h2 = reg.histogram("lock.stall_ns");
  EXPECT_EQ(h1, h2);
  EXPECT_NE(static_cast<void*>(c1), static_cast<void*>(h1));
}

TEST(MetricsRegistryTest, SnapshotIsSortedAndTyped) {
  MetricsRegistry reg;
  reg.counter("z.last")->Inc(3);
  reg.gauge("m.middle")->Add(-2);
  reg.histogram("a.first")->Record(64);

  RegistrySnapshot snap = reg.Snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].name, "a.first");
  EXPECT_EQ(snap[0].kind, MetricKind::kHistogram);
  EXPECT_EQ(snap[0].hist.count, 1u);
  EXPECT_EQ(snap[1].name, "m.middle");
  EXPECT_EQ(snap[1].gauge, -2);
  EXPECT_EQ(snap[2].name, "z.last");
  EXPECT_EQ(snap[2].counter, 3u);

  reg.Reset();
  snap = reg.Snapshot();
  ASSERT_EQ(snap.size(), 3u);  // names stay registered
  EXPECT_EQ(snap[0].hist.count, 0u);
  EXPECT_EQ(snap[1].gauge, 0);
  EXPECT_EQ(snap[2].counter, 0u);
}

TEST(MetricsRegistryTest, ScopedTimerFeedsHistogram) {
  MetricsRegistry reg;
  Histogram* h = reg.histogram("test.latency_ns");
  {
    ScopedTimer timer(h);
  }
  { ScopedTimer disabled(nullptr); }  // must not crash
  EXPECT_EQ(h->Count(), 1u);
}

TEST(MetricsRegistryTest, DefaultRegistryIsProcessStable) {
  EXPECT_NE(metrics::Default(), nullptr);
  EXPECT_EQ(metrics::Default(), metrics::Default());
}

// ----------------------------------------------------------------------
// Cluster aggregation over both transports.
// ----------------------------------------------------------------------

class MetricsClusterTest : public ::testing::TestWithParam<rpc::TransportKind> {
};

TEST_P(MetricsClusterTest, CollectMergesAcrossMachines) {
  constexpr size_t kMachines = 4;
  rpc::ClusterOptions opts = testutil::ClusterFor(GetParam(), kMachines);
  rpc::Runtime runtime(opts);

  std::atomic<uint64_t> master_total{0};
  std::atomic<double> master_skew{0.0};
  std::atomic<size_t> master_machines{0};
  std::atomic<uint64_t> hist_count{0};

  runtime.Run([&](rpc::MachineContext& ctx) {
    MetricsRegistry& reg = ctx.metrics();
    // Deliberately skewed: machine m contributes m + 1.
    reg.counter("test.work")->Inc(ctx.id + 1);
    reg.histogram("test.lat_ms")->Record(100 * (ctx.id + 1));

    MetricsService service(&ctx.comm(), ctx.id, &reg);
    // Every machine must have constructed its service (registered its
    // snapshot handler) before anyone starts a collection round.
    ASSERT_TRUE(ctx.barrier().Wait(ctx.id));

    ClusterMetricsView view = service.Collect();
    if (ctx.id == 0) {
      EXPECT_TRUE(view.merged);
      master_machines = view.machines.size();
      const ClusterMetric* work = view.Find("test.work");
      ASSERT_NE(work, nullptr);
      master_total = static_cast<uint64_t>(work->total);
      master_skew = work->skew;
      EXPECT_EQ(work->per_machine.size(), kMachines);
      for (size_t m = 0; m < work->per_machine.size(); ++m) {
        EXPECT_EQ(work->per_machine[m].counter, m + 1);
      }
      const ClusterMetric* lat = view.Find("test.lat_ms");
      ASSERT_NE(lat, nullptr);
      hist_count = lat->merged_hist.count;
      // The merged distribution spans all machines' samples.
      EXPECT_GE(lat->merged_hist.Percentile(99), 300.0);
      // The report renders without tripping assertions.
      EXPECT_NE(view.FormatTable().find("test.work"), std::string::npos);
    } else {
      EXPECT_FALSE(view.merged);
      ASSERT_EQ(view.machines.size(), 1u);
      EXPECT_EQ(view.machines[0], ctx.id);
    }
  });

  EXPECT_EQ(master_machines.load(), kMachines);
  // 1 + 2 + 3 + 4.
  EXPECT_EQ(master_total.load(), kMachines * (kMachines + 1) / 2);
  // max = 4, mean = 2.5 -> skew = 1.6.
  EXPECT_NEAR(master_skew.load(), 1.6, 1e-9);
  EXPECT_EQ(hist_count.load(), kMachines);
}

TEST_P(MetricsClusterTest, SequentialClustersStartFromZero) {
  // Registries are owned by the transport, so a fresh cluster must not
  // see the previous cluster's counts.
  for (int round = 0; round < 2; ++round) {
    rpc::ClusterOptions opts = testutil::ClusterFor(GetParam(), 2);
    rpc::Runtime runtime(opts);
    runtime.Run([&](rpc::MachineContext& ctx) {
      Counter* c = ctx.metrics().counter("test.fresh");
      EXPECT_EQ(c->Value(), 0u) << "round " << round;
      c->Inc(99);
    });
  }
}

INSTANTIATE_TEST_SUITE_P(AllTransports, MetricsClusterTest,
                         ::testing::ValuesIn(testutil::kAllTransports),
                         testutil::KindParamName);

}  // namespace
}  // namespace graphlab
