// Copyright 2026 The Distributed GraphLab Reproduction Authors.
//
// Cluster-wide metrics aggregation over the CommLayer.
//
// Each machine owns a MetricsRegistry (rpc/transport.h); this service
// turns the per-machine registries into one cluster view: every machine
// snapshots its registry, non-masters ship theirs to machine 0, and the
// master merges per metric kind (sum for counters/gauges, bucket-wise add
// for histograms) while keeping the per-machine values — the statistic the
// partitioner work needs is exactly the per-machine skew (max/mean) this
// exposes.
//
// Collect() is collective across the live membership and is meant to run
// at barrier-aligned points (after an engine run, at supersteps, on
// demand from a report flag).  A machine death unblocks the master's wait
// instead of hanging it: the view then covers the survivors.
//
// The wire cost is one message per non-master machine per collection;
// nothing here touches the per-update fast path.
//
// Machine 0 receives metrics on two handlers: these snapshots
// (kMetricsSnapshotHandler, 31) and the TelemetryChannel stream below
// (kTelemetryPushHandler, 34).  Mid-run decisions that need the same
// numbers on every machine, like the load rebalancer's, run an
// rpc::AllReduce round instead.

#ifndef GRAPHLAB_METRICS_METRICS_SERVICE_H_
#define GRAPHLAB_METRICS_METRICS_SERVICE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include <functional>

#include "graphlab/engine/handler_ids.h"
#include "graphlab/metrics/metrics.h"
#include "graphlab/metrics/timeseries.h"
#include "graphlab/rpc/comm_layer.h"
#include "graphlab/rpc/message.h"

namespace graphlab {
namespace metrics {

/// One metric's cluster-wide state: the merged value plus the per-machine
/// breakdown it was merged from.
struct ClusterMetric {
  std::string name;
  MetricKind kind = MetricKind::kCounter;

  /// Contributing machines (ascending) and their snapshots, aligned.
  /// Machines that never registered the metric contribute zeros.
  std::vector<rpc::MachineId> machines;
  std::vector<MetricSnapshot> per_machine;

  /// Merge results.  For counters/gauges: total = sum, max over machines,
  /// mean = total / machines.  skew = max / mean (1.0 = perfectly
  /// balanced; 0 when the metric is empty).  For histograms the merged
  /// distribution carries the percentiles.
  double total = 0;
  double max = 0;
  double mean = 0;
  double skew = 0;
  HistogramData merged_hist;
};

/// The merged cluster view one Collect() produces.
struct ClusterMetricsView {
  uint64_t round = 0;
  /// True on the master (machine 0), where the merge happened; false on
  /// other machines, whose view covers only themselves.
  bool merged = false;
  /// Machines whose snapshots are in the view, ascending.
  std::vector<rpc::MachineId> machines;
  /// Sorted by name.
  std::vector<ClusterMetric> metrics;

  const ClusterMetric* Find(const std::string& name) const;

  /// Human-readable report: one row per metric with total / mean / max /
  /// skew and p50/p90/p99 for histograms, plus a per-machine breakdown
  /// for the hot counters.
  std::string FormatTable() const;
};

/// Per-machine collective.  Construct one per machine (same registry the
/// machine's transport owns) before the first Collect(); Collect() must
/// then be called by every live machine, like a barrier.
class MetricsService {
 public:
  /// Registers on kMetricsSnapshotHandler; one service per machine.
  MetricsService(rpc::CommLayer* comm, rpc::MachineId me,
                 MetricsRegistry* registry);

  MetricsService(const MetricsService&) = delete;
  MetricsService& operator=(const MetricsService&) = delete;

  /// Snapshots the local registry and merges cluster-wide.  On machine 0
  /// the returned view is the merged cluster view (covering every machine
  /// that was alive and responded within `timeout`); elsewhere it covers
  /// only the local machine.  Collective: every live machine must call.
  ClusterMetricsView Collect(
      std::chrono::milliseconds timeout = std::chrono::milliseconds(10000));

 private:
  void OnSnapshot(rpc::MachineId src, InArchive& ia);

  static ClusterMetricsView Merge(
      uint64_t round,
      const std::map<rpc::MachineId, RegistrySnapshot>& snapshots);

  rpc::CommLayer* comm_;
  rpc::MachineId me_;
  MetricsRegistry* registry_;
  uint64_t round_ = 0;

  std::mutex mutex_;
  std::condition_variable cv_;
  /// round -> (machine -> snapshot); pruned once a round completes.
  std::map<uint64_t, std::map<rpc::MachineId, RegistrySnapshot>> pending_;

  rpc::HandlerScope handler_scope_;
  rpc::Subscription membership_subscription_;
};

/// Push-mode streaming channel for live telemetry, the counterpart to the
/// pull/barrier-aligned Collect() above: every machine hands its latest
/// TelemetrySample to Publish() each sampler tick and machine 0's
/// `on_sample` callback sees the whole cluster's stream.
///
/// Samples travel as ordinary messages from the sampler thread; they are
/// membership-aware (pushes stop once machine 0 is marked down) and
/// fire-and-forget — a lost sample just widens the next window.
class TelemetryChannel {
 public:
  using SampleCallback = std::function<void(const TelemetrySample&)>;

  /// `on_sample` runs on machine 0's dispatch thread (and, for machine
  /// 0's own samples, directly on its sampler thread); it must be thread
  /// safe — ClusterTimeSeries::Ingest is.  Only the master needs one;
  /// workers pass nullptr.
  TelemetryChannel(rpc::CommLayer* comm, rpc::MachineId me,
                   SampleCallback on_sample,
                   rpc::HandlerId handler_id = kTelemetryPushHandler);

  TelemetryChannel(const TelemetryChannel&) = delete;
  TelemetryChannel& operator=(const TelemetryChannel&) = delete;

  /// Ships `sample` to machine 0 (or delivers it locally when this IS
  /// machine 0).  Callable from the sampler thread at any rate.
  void Publish(const TelemetrySample& sample);

  uint64_t published() const {
    return published_.load(std::memory_order_relaxed);
  }

 private:
  void OnSample(rpc::MachineId src, InArchive& ia);

  rpc::CommLayer* comm_;
  rpc::MachineId me_;
  SampleCallback on_sample_;
  rpc::HandlerId handler_id_;
  std::atomic<uint64_t> published_{0};

  rpc::HandlerScope handler_scope_;  // machine 0 only
};

}  // namespace metrics
}  // namespace graphlab

#endif  // GRAPHLAB_METRICS_METRICS_SERVICE_H_
