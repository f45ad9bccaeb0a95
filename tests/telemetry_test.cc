// Copyright 2026 The Distributed GraphLab Reproduction Authors.
//
// Tests for the live telemetry plane: time-series rings and windowed
// rate derivation, the clock-offset estimator, the out-of-band push
// channel (which must not disturb quiescence), cross-machine causal
// flow events in the merged trace, and the online health monitor's
// straggler / stall detections — including an end-to-end straggler
// flagged over a real 4-machine TCP loopback cluster.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "graphlab/metrics/health.h"
#include "graphlab/metrics/metrics.h"
#include "graphlab/metrics/metrics_service.h"
#include "graphlab/metrics/timeseries.h"
#include "graphlab/metrics/trace_event.h"
#include "graphlab/rpc/clock_sync.h"
#include "graphlab/rpc/comm_layer.h"
#include "graphlab/rpc/runtime.h"
#include "graphlab/util/random.h"
#include "graphlab/util/timer.h"
#include "tests/transport_param.h"

namespace graphlab {
namespace {

using metrics::ClusterTimeSeries;
using metrics::HealthEvent;
using metrics::HealthMonitor;
using metrics::HealthOptions;
using metrics::HistogramData;
using metrics::HistogramWindowDelta;
using metrics::MetricsRegistry;
using metrics::SamplePoint;
using metrics::TelemetryChannel;
using metrics::TelemetrySample;
using metrics::TimeSeriesOptions;
using metrics::TimeSeriesRing;
using metrics::TimeSeriesSampler;
using rpc::ClockOffsetEstimator;
using rpc::MachineId;

using testutil::WaitUntil;

// ---------------------------------------------------------------------
// TimeSeriesRing
// ---------------------------------------------------------------------

TEST(TimeSeriesRingTest, WrapKeepsNewestAndCountsDrops) {
  TimeSeriesRing ring(4);
  for (uint64_t i = 0; i < 10; ++i) {
    ring.Push(i * 100, static_cast<double>(i));
  }
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.pushed(), 10u);
  EXPECT_EQ(ring.dropped(), 6u);
  // Oldest-first: the retained window is [6, 7, 8, 9].
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(ring.At(i).value, static_cast<double>(6 + i));
  }
  EXPECT_DOUBLE_EQ(ring.Latest().value, 9.0);
}

TEST(TimeSeriesRingTest, PartialFillIsOldestFirst) {
  TimeSeriesRing ring(8);
  ring.Push(10, 1.0);
  ring.Push(20, 2.0);
  EXPECT_EQ(ring.size(), 2u);
  EXPECT_EQ(ring.dropped(), 0u);
  EXPECT_DOUBLE_EQ(ring.At(0).value, 1.0);
  EXPECT_DOUBLE_EQ(ring.At(1).value, 2.0);
}

TEST(TimeSeriesRingTest, RateIsPerSecond) {
  // 500 units over 250 ms of steady-clock time = 2000 units/s.
  SamplePoint prev{1'000'000'000ull, 1000.0};
  SamplePoint cur{1'250'000'000ull, 1500.0};
  EXPECT_DOUBLE_EQ(TimeSeriesRing::Rate(prev, cur), 2000.0);
  // Time not advancing (or going backwards) yields 0, not inf/NaN.
  EXPECT_DOUBLE_EQ(TimeSeriesRing::Rate(cur, cur), 0.0);
  EXPECT_DOUBLE_EQ(TimeSeriesRing::Rate(cur, prev), 0.0);
}

// ---------------------------------------------------------------------
// Windowed histogram delta
// ---------------------------------------------------------------------

TEST(HistogramWindowDeltaTest, SubtractsBucketwise) {
  metrics::Histogram prev_h, cur_h;
  // Window 1: small values.  Window 2 adds large ones.
  for (int i = 0; i < 100; ++i) prev_h.Record(10);
  HistogramData prev = prev_h.Snapshot();
  for (int i = 0; i < 100; ++i) cur_h.Record(10);
  for (int i = 0; i < 50; ++i) cur_h.Record(1'000'000);
  HistogramData cur = cur_h.Snapshot();

  HistogramData window = HistogramWindowDelta(prev, cur);
  EXPECT_EQ(window.count, 50u);
  // Everything in the window is a large recording: p99 reflects only
  // the new activity, not the cumulative distribution (bucket bounds
  // are approximate, so assert well above the small recordings).
  EXPECT_GE(window.Percentile(99), 100'000.0);
  EXPECT_GE(window.Percentile(1), 100'000.0);

  // Reset between samples (cur < prev) degrades to cur itself.
  HistogramData after_reset = HistogramWindowDelta(cur, prev);
  EXPECT_EQ(after_reset.count, prev.count);
}

// ---------------------------------------------------------------------
// Clock-offset estimator
// ---------------------------------------------------------------------

TEST(ClockOffsetEstimatorTest, ExactUnderSymmetricLatency) {
  // Remote clock = local + 5 ms; symmetric 1 ms one-way latency.
  const int64_t kOffset = 5'000'000;
  const uint64_t kOneWay = 1'000'000;
  ClockOffsetEstimator est;
  uint64_t t = 1'000'000'000;
  for (int i = 0; i < 10; ++i) {
    const uint64_t t_send = t;
    const uint64_t remote_now =
        static_cast<uint64_t>(static_cast<int64_t>(t_send + kOneWay) +
                              kOffset);
    const uint64_t t_recv = t_send + 2 * kOneWay;
    est.AddObservation(t_send, t_recv, remote_now);
    t += 10'000'000;
  }
  ASSERT_TRUE(est.valid());
  EXPECT_EQ(est.offset_ns(), kOffset);
  EXPECT_EQ(est.error_bound_ns(), kOneWay);
}

TEST(ClockOffsetEstimatorTest, KeepsMinRttUnderLatencySpikes) {
  // A stalled probe (huge RTT) must not displace a clean observation:
  // only strictly-smaller RTTs replace the held sample, so the error
  // bound ratchets down monotonically.
  const int64_t kOffset = -3'000'000;
  ClockOffsetEstimator est;
  auto observe = [&](uint64_t t_send, uint64_t rtt, int64_t skew) {
    const uint64_t remote_now = static_cast<uint64_t>(
        static_cast<int64_t>(t_send + rtt / 2) + kOffset + skew);
    est.AddObservation(t_send, t_send + rtt, remote_now);
  };
  observe(1'000'000'000, 400'000, 0);  // clean: rtt 0.4 ms
  const int64_t clean_offset = est.offset_ns();
  const uint64_t clean_bound = est.error_bound_ns();
  // Stall spike: 80 ms RTT with a wildly asymmetric path (bad skew).
  observe(2'000'000'000, 80'000'000, 30'000'000);
  EXPECT_EQ(est.offset_ns(), clean_offset);
  EXPECT_EQ(est.error_bound_ns(), clean_bound);
  // A tighter probe improves both.
  observe(3'000'000'000, 100'000, 0);
  EXPECT_EQ(est.error_bound_ns(), 50'000u);
  // Midpoint error is bounded by rtt/2 for any path asymmetry.
  EXPECT_LE(static_cast<uint64_t>(std::abs(est.offset_ns() - kOffset)),
            est.error_bound_ns());
}

TEST(ClockOffsetEstimatorTest, IgnoresInvalidObservations) {
  ClockOffsetEstimator est;
  EXPECT_FALSE(est.valid());
  est.AddObservation(2'000, 1'000, 5'000);  // t_recv < t_send
  EXPECT_FALSE(est.valid());
}

TEST(ClockSyncTest, TcpLoopbackOffsetBoundedByHalfRtt) {
  // Loopback machines share one physical clock, so the estimated offset
  // must be within the estimator's own error bound of zero once the
  // clock-sync exchange has run.
  rpc::Runtime runtime(testutil::ClusterFor(rpc::TransportKind::kTcp, 2));
  runtime.Run([&](rpc::MachineContext& ctx) {
    ctx.barrier().Wait(ctx.id);
    ctx.comm().SyncClocks();
    const int64_t offset = ctx.comm().ClockOffsetNs(1 - ctx.id);
    // Sub-millisecond on loopback; 50 ms catches only real breakage
    // (e.g. mixing clock domains) without flaking on slow CI.
    EXPECT_LT(std::abs(offset), 50'000'000) << "machine " << ctx.id;
    ctx.barrier().Wait(ctx.id);
  });
}

// ---------------------------------------------------------------------
// Sampler
// ---------------------------------------------------------------------

TEST(TimeSeriesSamplerTest, DerivesWindowedRates) {
  MetricsRegistry registry;
  metrics::Counter* updates = registry.counter("engine.updates");
  TimeSeriesOptions opts;
  opts.interval_ms = 5;
  TimeSeriesSampler sampler(&registry, opts, /*machine=*/2);

  updates->Inc(1000);
  TelemetrySample first = sampler.SampleOnce();
  EXPECT_EQ(first.machine, 2u);
  EXPECT_EQ(first.seq, 1u);
  EXPECT_EQ(first.interval_ns, 0u);  // no window yet
  EXPECT_DOUBLE_EQ(first.Value("engine.updates"), 1000.0);

  updates->Inc(500);
  // Let real time pass so the windowed rate has a denominator.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  TelemetrySample second = sampler.SampleOnce();
  EXPECT_EQ(second.seq, 2u);
  EXPECT_GT(second.interval_ns, 0u);
  EXPECT_DOUBLE_EQ(second.Value("engine.updates"), 1500.0);
  const double rate = second.Rate("engine.updates.rate", -1);
  ASSERT_GE(rate, 0.0);
  // 500 updates over >=20 ms: rate <= 25k/s, and > 0.
  EXPECT_GT(rate, 0.0);
  EXPECT_LE(rate, 500.0 / 0.020 * 1.5);

  const std::vector<SamplePoint> series = sampler.Series("engine.updates");
  ASSERT_EQ(series.size(), 2u);
  EXPECT_DOUBLE_EQ(series[0].value, 1000.0);
  EXPECT_DOUBLE_EQ(series[1].value, 1500.0);
}

TEST(TimeSeriesSamplerTest, ProbeRunsBeforeEverySnapshot) {
  MetricsRegistry registry;
  TimeSeriesOptions opts;
  TimeSeriesSampler sampler(&registry, opts, 0);
  int probes = 0;
  sampler.SetProbe([&] {
    ++probes;
    registry.gauge("trace.dropped_events")->Set(7);
  });
  TelemetrySample s = sampler.SampleOnce();
  EXPECT_EQ(probes, 1);
  EXPECT_DOUBLE_EQ(s.Value("trace.dropped_events"), 7.0);
}

TEST(TimeSeriesSamplerTest, BackgroundThreadTicksAndPushes) {
  MetricsRegistry registry;
  registry.counter("engine.updates")->Inc(1);
  TimeSeriesOptions opts;
  opts.interval_ms = 2;
  TimeSeriesSampler sampler(&registry, opts, 0);
  std::atomic<uint64_t> pushed{0};
  sampler.SetPushFn(
      [&](const TelemetrySample&) { pushed.fetch_add(1); });
  sampler.Start();
  const uint64_t deadline_ns = Timer::NowNanos() + 2'000'000'000ull;
  while (sampler.ticks() < 3 && Timer::NowNanos() < deadline_ns) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  sampler.Stop();
  EXPECT_GE(sampler.ticks(), 3u);
  EXPECT_GE(pushed.load(), 3u);
  EXPECT_EQ(sampler.Latest().seq, sampler.ticks());
}

// ---------------------------------------------------------------------
// Telemetry channel: delivery and accounting
// ---------------------------------------------------------------------

TEST(TelemetryChannelTest, SamplesReachMasterInProcess) {
  auto comm = testutil::InProcessComm(3, testutil::ZeroLatency());
  std::atomic<uint64_t> seen{0};
  std::atomic<uint64_t> from_machines{0};
  TelemetryChannel master(comm.get(), 0, [&](const TelemetrySample& s) {
    seen.fetch_add(1);
    from_machines.fetch_add(1ull << s.machine);
  });
  TelemetryChannel w1(comm.get(), 1, nullptr);
  TelemetryChannel w2(comm.get(), 2, nullptr);
  comm->Start();

  TelemetrySample s;
  s.seq = 1;
  s.t_ns = Timer::NowNanos();
  s.values.emplace_back("engine.updates", 10.0);
  s.machine = 0;
  master.Publish(s);
  s.machine = 1;
  w1.Publish(s);
  s.machine = 2;
  w2.Publish(s);
  EXPECT_TRUE(WaitUntil([&] { return seen.load() == 3; }));
  EXPECT_EQ(seen.load(), 3u);
  EXPECT_EQ(from_machines.load(), 0b111u);
}

TEST(TelemetryChannelTest, SamplesAreCountedLikeAnyTraffic) {
  // Telemetry is ordinary traffic on the wire: every pushed sample is
  // charged to the sender's message and byte counters.
  auto comm = testutil::InProcessComm(2, testutil::ZeroLatency());
  std::atomic<uint64_t> received{0};
  TelemetryChannel master(comm.get(), 0, [&](const TelemetrySample&) {
    received.fetch_add(1);
  });
  TelemetryChannel worker(comm.get(), 1, nullptr);
  comm->Start();
  constexpr uint64_t kSamples = 20;
  TelemetrySample s;
  s.machine = 1;
  for (uint64_t i = 1; i <= kSamples; ++i) {
    s.seq = i;
    s.t_ns = Timer::NowNanos();
    worker.Publish(s);
  }
  EXPECT_TRUE(WaitUntil([&] { return received.load() == kSamples; }));
  EXPECT_EQ(comm->GetStats(1).messages_sent, kSamples);
  EXPECT_GT(comm->GetStats(1).bytes_sent,
            kSamples * rpc::kMessageHeaderBytes);
  comm->Stop();
}

TEST(TelemetrySampleTest, SerializationRoundTrips) {
  TelemetrySample s;
  s.machine = 3;
  s.seq = 42;
  s.t_ns = 123456789;
  s.interval_ns = 100000000;
  s.values.emplace_back("engine.updates", 1e6);
  s.values.emplace_back("sched.depth", 0.0);
  s.rates.emplace_back("engine.updates.rate", 2613.75);
  OutArchive oa;
  oa << s;
  InArchive ia(oa.buffer());
  TelemetrySample t;
  ia >> t;
  ASSERT_TRUE(ia.ok());
  EXPECT_EQ(t.machine, 3u);
  EXPECT_EQ(t.seq, 42u);
  EXPECT_EQ(t.interval_ns, 100000000u);
  EXPECT_DOUBLE_EQ(t.Value("engine.updates"), 1e6);
  EXPECT_DOUBLE_EQ(t.Rate("engine.updates.rate"), 2613.75);
}

// Structured-mutation fuzzing of the TelemetrySample decoder: every
// input, however corrupt, must decode to a clean value (one that
// re-encodes to exactly the bytes it consumed) or fail the archive, and
// never allocate more than the input could describe.

TelemetrySample FuzzSeedSample() {
  TelemetrySample s;
  s.machine = 2;
  s.seq = 7;
  s.t_ns = 987654321;
  s.interval_ns = 100000000;
  s.values.emplace_back("engine.updates", 1e6);
  s.values.emplace_back("sched.depth", 3.0);
  s.rates.emplace_back("engine.updates.rate", 2613.75);
  return s;
}

/// Byte offsets of the two pair counts and of every key length in the
/// encoding of `s` (4-byte machine + three 8-byte header fields, then per
/// pair list: count, {key length, key bytes, 8-byte value}...).
std::vector<size_t> LengthFieldOffsets(const TelemetrySample& s) {
  std::vector<size_t> offsets;
  size_t pos = 4 + 3 * 8;
  for (const auto* pairs : {&s.values, &s.rates}) {
    offsets.push_back(pos);
    pos += 8;
    for (const auto& [key, value] : *pairs) {
      offsets.push_back(pos);
      pos += 8 + key.size() + 8;
    }
  }
  return offsets;
}

/// Decodes `bytes`, checks the clean-value-or-error contract, and returns
/// whether the archive stayed ok.
bool CheckedDecode(const std::vector<char>& bytes) {
  InArchive ia(bytes);
  TelemetrySample t;
  ia >> t;
  // No allocation beyond what the input could encode: each pair costs at
  // least 16 bytes on the wire, each key byte one.
  const size_t max_pairs = bytes.size() / 16;
  EXPECT_LE(t.values.size() + t.rates.size(), max_pairs);
  EXPECT_LE(t.values.capacity(), 2 * max_pairs + 1);
  EXPECT_LE(t.rates.capacity(), 2 * max_pairs + 1);
  for (const auto* pairs : {&t.values, &t.rates}) {
    for (const auto& [key, value] : *pairs) {
      EXPECT_LE(key.size(), bytes.size());
    }
  }
  if (!ia.ok()) return false;
  OutArchive oa;
  oa << t;
  EXPECT_EQ(oa.buffer().size(), ia.position());
  EXPECT_TRUE(oa.buffer().size() <= bytes.size() &&
              std::equal(oa.buffer().begin(), oa.buffer().end(),
                         bytes.begin()));
  return true;
}

TEST(TelemetrySampleTest, DecoderSurvivesStructuredMutations) {
  const TelemetrySample seed = FuzzSeedSample();
  OutArchive oa;
  oa << seed;
  const std::vector<char> good = oa.buffer();
  ASSERT_EQ(LengthFieldOffsets(seed).back() + 8 +
                seed.rates.back().first.size() + 8,
            good.size());

  // Truncation at every byte: every field is required, so every proper
  // prefix must fail.
  for (size_t cut = 0; cut < good.size(); ++cut) {
    EXPECT_FALSE(CheckedDecode({good.begin(), good.begin() + cut}))
        << "prefix of " << cut << " bytes decoded";
  }
  EXPECT_TRUE(CheckedDecode(good));

  // Huge pair counts and string lengths: must fail before allocating.
  for (size_t offset : LengthFieldOffsets(seed)) {
    for (uint64_t huge : {~uint64_t{0}, uint64_t{1} << 63, uint64_t{1} << 32,
                          static_cast<uint64_t>(good.size())}) {
      std::vector<char> bytes = good;
      std::memcpy(bytes.data() + offset, &huge, sizeof(huge));
      EXPECT_FALSE(CheckedDecode(bytes))
          << "length " << huge << " at byte " << offset;
    }
  }

  // Seeded random bit flips (1-4 per input) anywhere in the encoding.
  Rng rng(17);
  for (int iter = 0; iter < 300; ++iter) {
    std::vector<char> bytes = good;
    const uint64_t flips = 1 + rng.UniformInt(4);
    for (uint64_t f = 0; f < flips; ++f) {
      const uint64_t bit = rng.UniformInt(bytes.size() * 8);
      bytes[bit / 8] = static_cast<char>(bytes[bit / 8] ^ (1u << (bit % 8)));
    }
    CheckedDecode(bytes);
  }
}

// ---------------------------------------------------------------------
// Cluster series + health monitor (deterministic, manually pumped)
// ---------------------------------------------------------------------

TelemetrySample MakeSample(uint32_t machine, uint64_t seq, double rate,
                           double depth = 10.0) {
  TelemetrySample s;
  s.machine = machine;
  s.seq = seq;
  s.t_ns = seq * 100'000'000ull;
  s.interval_ns = 100'000'000ull;
  s.values.emplace_back("sched.depth", depth);
  s.rates.emplace_back("engine.updates.rate", rate);
  return s;
}

TEST(ClusterTimeSeriesTest, TracksPerMachineHistory) {
  ClusterTimeSeries cluster(/*ring_capacity=*/4);
  for (uint64_t seq = 1; seq <= 6; ++seq) {
    cluster.Ingest(MakeSample(0, seq, 100.0));
    cluster.Ingest(MakeSample(1, seq, 50.0));
  }
  EXPECT_EQ(cluster.samples_ingested(), 12u);
  EXPECT_EQ(cluster.machines(), (std::vector<uint32_t>{0, 1}));
  const auto latest = cluster.Latest();
  ASSERT_EQ(latest.size(), 2u);
  EXPECT_EQ(latest.at(0).seq, 6u);
  const auto history = cluster.History(1);
  ASSERT_EQ(history.size(), 4u);  // capacity-bounded
  EXPECT_EQ(history.front().seq, 3u);
  EXPECT_EQ(history.back().seq, 6u);
}

TEST(HealthMonitorTest, FlagsStragglerAfterKWindows) {
  MetricsRegistry registry;
  HealthOptions opts;
  opts.straggler_fraction = 0.5;
  opts.straggler_windows = 3;
  HealthMonitor monitor(opts, &registry);
  ClusterTimeSeries cluster;

  uint64_t seq = 0;
  auto tick = [&](double slow_rate) {
    ++seq;
    cluster.Ingest(MakeSample(0, seq, 1000.0));
    cluster.Ingest(MakeSample(1, seq, 1000.0));
    cluster.Ingest(MakeSample(2, seq, 1000.0));
    cluster.Ingest(MakeSample(3, seq, slow_rate));
    return monitor.OnTick(cluster, 0);  // 0 = no freshness filter
  };

  // Two slow windows: below the detection threshold.
  EXPECT_TRUE(tick(100.0).empty());
  EXPECT_TRUE(tick(100.0).empty());
  // Third consecutive window crosses it — flagged exactly once.
  std::vector<HealthEvent> events = tick(100.0);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, HealthEvent::kStraggler);
  EXPECT_EQ(events[0].machine, 3u);
  EXPECT_EQ(monitor.stragglers_flagged(), 1u);
  // Ongoing episode: not re-reported.
  EXPECT_TRUE(tick(100.0).empty());
  // Recovery clears the latch...
  EXPECT_TRUE(tick(1000.0).empty());
  // ...so a relapse is re-flagged after another k windows.
  EXPECT_TRUE(tick(100.0).empty());
  EXPECT_TRUE(tick(100.0).empty());
  EXPECT_EQ(tick(100.0).size(), 1u);
  EXPECT_EQ(monitor.stragglers_flagged(), 2u);
  // Detections also reached the registry counter.
  EXPECT_EQ(registry.counter("health.straggler")->Value(), 2u);
}

TEST(HealthMonitorTest, FlagsStallWhenDepthNonzeroAndRateZero) {
  MetricsRegistry registry;
  HealthOptions opts;
  opts.stall_windows = 2;
  HealthMonitor monitor(opts, &registry);
  ClusterTimeSeries cluster;
  uint64_t seq = 0;
  auto tick = [&](double rate, double depth) {
    ++seq;
    cluster.Ingest(MakeSample(0, seq, rate, depth));
    cluster.Ingest(MakeSample(1, seq, rate, depth));
    return monitor.OnTick(cluster, 0);
  };
  EXPECT_TRUE(tick(500.0, 20.0).empty());  // healthy
  EXPECT_TRUE(tick(0.0, 20.0).empty());    // first stalled window
  std::vector<HealthEvent> events = tick(0.0, 20.0);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, HealthEvent::kStall);
  // Zero rate with an empty scheduler is completion, not a stall.
  EXPECT_TRUE(tick(0.0, 0.0).empty());
  EXPECT_TRUE(tick(0.0, 0.0).empty());
  EXPECT_EQ(monitor.stalls_flagged(), 1u);
}

// ---------------------------------------------------------------------
// End-to-end: straggler over a real TCP loopback cluster
// ---------------------------------------------------------------------

TEST(TelemetryE2ETest, StragglerFlaggedOverTcpWithinKWindows) {
  constexpr size_t kMachines = 4;
  constexpr uint32_t kSlow = 3;
  rpc::Runtime runtime(
      testutil::ClusterFor(rpc::TransportKind::kTcp, kMachines));

  ClusterTimeSeries cluster;
  HealthOptions hopts;
  hopts.straggler_windows = 3;
  std::atomic<uint64_t> flagged_at_tick{0};

  runtime.Run([&](rpc::MachineContext& ctx) {
    const MachineId me = ctx.id;
    MetricsRegistry* registry = &ctx.comm().registry(me);
    std::unique_ptr<HealthMonitor> monitor;
    std::unique_ptr<TelemetryChannel> channel;
    if (me == 0) {
      monitor = std::make_unique<HealthMonitor>(hopts, registry);
      channel = std::make_unique<TelemetryChannel>(
          &ctx.comm(), me, [&](const TelemetrySample& s) {
            cluster.Ingest(s);
          });
    } else {
      channel = std::make_unique<TelemetryChannel>(&ctx.comm(), me, nullptr);
    }
    ctx.barrier().Wait(me);

    TimeSeriesOptions topts;
    topts.interval_ms = 10;
    TimeSeriesSampler sampler(registry, topts,
                              static_cast<uint32_t>(me));
    metrics::Counter* updates = registry->counter("engine.updates");

    // Drive 12 synchronized windows by hand: every machine does "work"
    // (counter increments) each window, the slow machine at 1/10th the
    // rate, publishes its sample, and machine 0 runs a health pass.
    // Samples are fire-and-forget, so the master waits for the window's
    // full complement by ingested count.
    for (uint64_t window = 1; window <= 12; ++window) {
      updates->Inc(me == kSlow ? 100 : 1000);
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      channel->Publish(sampler.SampleOnce());
      if (me == 0) {
        const uint64_t want = kMachines * window;
        const uint64_t deadline = Timer::NowNanos() + 10'000'000'000ull;
        while (cluster.samples_ingested() < want &&
               Timer::NowNanos() < deadline) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        for (const HealthEvent& e : monitor->OnTick(cluster, 0)) {
          if (e.kind == HealthEvent::kStraggler && e.machine == kSlow &&
              flagged_at_tick.load() == 0) {
            flagged_at_tick.store(window);
          }
        }
      }
      ctx.barrier().Wait(me);
    }
    // Every sample is dispatched once the round completes (the channel's
    // handler sends nothing), so the channel can go.
    ctx.flush().Run(me);
    channel.reset();
  });

  // Flagged, and within straggler_windows + 2 of the first slow window
  // (the first sample has no rate window yet; +1 slack for timing).
  EXPECT_GT(flagged_at_tick.load(), 0u);
  EXPECT_LE(flagged_at_tick.load(), hopts.straggler_windows + 2);
}

// ---------------------------------------------------------------------
// Cross-machine causal flow events
// ---------------------------------------------------------------------

std::string ReadFileText(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Collects the set of flow ids emitted with the given phase
/// ('s' = send, 'f' = finish) for events named "rpc.flow".
std::set<std::string> FlowIds(const std::string& json, char phase) {
  std::set<std::string> ids;
  const std::string needle = "{\"name\":\"rpc.flow\",";
  const std::string ph = std::string("\"ph\":\"") + phase + "\"";
  const std::string id_key = "\"id\":\"";
  for (size_t pos = json.find(needle); pos != std::string::npos;
       pos = json.find(needle, pos + 1)) {
    const size_t end = json.find('}', pos);
    if (json.find(ph, pos) >= end) continue;
    const size_t id_at = json.find(id_key, pos);
    if (id_at == std::string::npos || id_at >= end) continue;
    const size_t id_begin = id_at + id_key.size();
    ids.insert(json.substr(id_begin, json.find('"', id_begin) - id_begin));
  }
  return ids;
}

class FlowTraceTest
    : public ::testing::TestWithParam<rpc::TransportKind> {
 protected:
  void SetUp() override {
    trace::Clear();
    trace::EnableCategories(0);
    path_ = (std::filesystem::temp_directory_path() /
             ("glflow_" + std::to_string(::getpid()) + "_" +
              std::string(rpc::TransportKindName(GetParam())) + ".json"))
                .string();
  }
  void TearDown() override {
    trace::EnableCategories(0);
    trace::Clear();
    std::filesystem::remove(path_);
  }
  std::string path_;
};

TEST_P(FlowTraceTest, SendAndDispatchFlowEventsPairAcrossMachines) {
  trace::EnableCategories(trace::kRpc);
  constexpr size_t kMachines = 4;
  rpc::Runtime runtime(testutil::ClusterFor(GetParam(), kMachines));
  runtime.Run([&](rpc::MachineContext& ctx) {
    const MachineId me = ctx.id;
    rpc::HandlerScope sink =
        ctx.comm().RegisterHandler(me, 60, [](MachineId, InArchive&) {});
    ctx.barrier().Wait(me);
    // Every machine sends 5 messages to every other machine.
    for (MachineId dst = 0; dst < kMachines; ++dst) {
      if (dst == me) continue;
      for (int i = 0; i < 5; ++i) {
        OutArchive oa;
        oa << uint64_t{0xabc};
        ctx.comm().Send(me, dst, 60, std::move(oa));
      }
    }
    ctx.flush().Run(me);
  });

  ASSERT_TRUE(trace::WriteChromeTrace(path_).ok());
  const std::string json = ReadFileText(path_);

  const std::set<std::string> sends = FlowIds(json, 's');
  const std::set<std::string> finishes = FlowIds(json, 'f');
  // 4 machines x 3 peers x 5 messages, each with a unique causal id.
  // (Barrier and flush-round traffic adds more; data sends are the floor.)
  EXPECT_GE(sends.size(), 60u);
  // Every dispatch's finish pairs a send emitted on the origin machine.
  ASSERT_FALSE(finishes.empty());
  for (const std::string& id : finishes) {
    EXPECT_TRUE(sends.count(id)) << "unpaired flow finish id " << id;
  }
  // Finishes bind to the enclosing dispatch slice.
  EXPECT_NE(json.find("\"bp\":\"e\""), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(AllTransports, FlowTraceTest,
                         ::testing::ValuesIn(testutil::kAllTransports),
                         testutil::KindParamName);

}  // namespace
}  // namespace graphlab
