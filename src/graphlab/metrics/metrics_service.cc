#include "graphlab/metrics/metrics_service.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <set>

#include "graphlab/engine/handler_ids.h"
#include "graphlab/util/logging.h"

namespace graphlab {
namespace metrics {

namespace {
constexpr rpc::MachineId kMaster = 0;

std::string FormatDouble(double v) {
  char buf[64];
  if (v == static_cast<double>(static_cast<int64_t>(v)) && v < 1e15 &&
      v > -1e15) {
    std::snprintf(buf, sizeof(buf), "%" PRId64, static_cast<int64_t>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.2f", v);
  }
  return buf;
}
}  // namespace

const ClusterMetric* ClusterMetricsView::Find(const std::string& name) const {
  for (const ClusterMetric& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

std::string ClusterMetricsView::FormatTable() const {
  // Rows: name kind total mean max skew p50 p90 p99 per-machine.
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"metric", "kind", "total", "mean/machine", "max/machine",
                  "skew", "p50", "p90", "p99", "per-machine"});
  for (const ClusterMetric& m : metrics) {
    std::vector<std::string> row;
    row.push_back(m.name);
    row.push_back(MetricKindName(m.kind));
    row.push_back(FormatDouble(m.total));
    row.push_back(FormatDouble(m.mean));
    row.push_back(FormatDouble(m.max));
    row.push_back(m.mean > 0 ? FormatDouble(m.skew) : "-");
    if (m.kind == MetricKind::kHistogram) {
      row.push_back(FormatDouble(m.merged_hist.Percentile(50)));
      row.push_back(FormatDouble(m.merged_hist.Percentile(90)));
      row.push_back(FormatDouble(m.merged_hist.Percentile(99)));
    } else {
      row.push_back("-");
      row.push_back("-");
      row.push_back("-");
    }
    std::string per;
    if (machines.size() > 1) {
      for (size_t i = 0; i < m.per_machine.size(); ++i) {
        if (!per.empty()) per += " ";
        const MetricSnapshot& s = m.per_machine[i];
        switch (m.kind) {
          case MetricKind::kCounter:
            per += FormatDouble(static_cast<double>(s.counter));
            break;
          case MetricKind::kGauge:
            per += FormatDouble(static_cast<double>(s.gauge));
            break;
          case MetricKind::kHistogram:
            per += FormatDouble(static_cast<double>(s.hist.count));
            break;
        }
      }
    }
    row.push_back(per);
    rows.push_back(std::move(row));
  }

  std::vector<size_t> widths(rows[0].size(), 0);
  for (const auto& row : rows) {
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  std::string out;
  out += "cluster metrics (round " + std::to_string(round) + ", " +
         std::to_string(machines.size()) + " machine" +
         (machines.size() == 1 ? "" : "s") + ")\n";
  for (size_t r = 0; r < rows.size(); ++r) {
    std::string line;
    for (size_t c = 0; c < rows[r].size(); ++c) {
      std::string cell = rows[r][c];
      cell.resize(widths[c], ' ');
      line += cell;
      if (c + 1 < rows[r].size()) line += "  ";
    }
    while (!line.empty() && line.back() == ' ') line.pop_back();
    out += line;
    out += "\n";
    if (r == 0) {
      out += std::string(line.size(), '-');
      out += "\n";
    }
  }
  return out;
}

MetricsService::MetricsService(rpc::CommLayer* comm, rpc::MachineId me,
                               MetricsRegistry* registry)
    : comm_(comm), me_(me), registry_(registry) {
  GL_CHECK(comm_ != nullptr);
  GL_CHECK(registry_ != nullptr);
  handler_scope_ = comm_->RegisterHandler(
      me_, kMetricsSnapshotHandler,
      [this](rpc::MachineId src, InArchive& ia) { OnSnapshot(src, ia); });
  membership_subscription_ =
      comm_->membership().Subscribe([this](rpc::MachineId, uint64_t) {
        std::lock_guard<std::mutex> lock(mutex_);
        cv_.notify_all();
      });
}

void MetricsService::OnSnapshot(rpc::MachineId src, InArchive& ia) {
  uint64_t round = 0;
  RegistrySnapshot snapshot;
  ia >> round >> snapshot;
  if (!ia.ok()) {
    GL_LOG(WARNING) << "dropping corrupt metrics snapshot from machine "
                    << src;
    return;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  pending_[round][src] = std::move(snapshot);
  cv_.notify_all();
}

ClusterMetricsView MetricsService::Collect(std::chrono::milliseconds timeout) {
  const uint64_t round = ++round_;
  RegistrySnapshot local = registry_->Snapshot();

  if (me_ != kMaster) {
    OutArchive oa;
    oa << round << local;
    comm_->Send(me_, kMaster, kMetricsSnapshotHandler, std::move(oa));
    std::map<rpc::MachineId, RegistrySnapshot> mine;
    mine[me_] = std::move(local);
    ClusterMetricsView view = Merge(round, mine);
    view.merged = false;
    return view;
  }

  std::map<rpc::MachineId, RegistrySnapshot> snapshots;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    const rpc::Membership& membership = comm_->membership();
    auto have_all = [&] {
      const auto it = pending_.find(round);
      for (rpc::MachineId m : membership.alive_machines()) {
        if (m == me_) continue;
        if (it == pending_.end() || it->second.find(m) == it->second.end()) {
          return false;
        }
      }
      return true;
    };
    if (!cv_.wait_until(lock, deadline, have_all)) {
      GL_LOG(WARNING) << "metrics collection round " << round
                      << " timed out; reporting partial cluster view";
    }
    auto it = pending_.find(round);
    if (it != pending_.end()) snapshots = std::move(it->second);
    // Prune this and earlier rounds (snapshots from dead or laggard
    // machines for completed rounds are useless).
    pending_.erase(pending_.begin(), pending_.upper_bound(round));
  }
  snapshots[me_] = std::move(local);

  ClusterMetricsView view = Merge(round, snapshots);
  view.merged = true;
  return view;
}

ClusterMetricsView MetricsService::Merge(
    uint64_t round,
    const std::map<rpc::MachineId, RegistrySnapshot>& snapshots) {
  ClusterMetricsView view;
  view.round = round;
  for (const auto& [machine, snapshot] : snapshots) {
    view.machines.push_back(machine);
    (void)snapshot;
  }

  // Union of metric names across machines, with the kind from the first
  // machine that reports it (kind mismatches are logged and skipped).
  std::map<std::string, MetricKind> names;
  for (const auto& [machine, snapshot] : snapshots) {
    for (const MetricSnapshot& s : snapshot) {
      auto [it, inserted] = names.emplace(s.name, s.kind);
      if (!inserted && it->second != s.kind) {
        GL_LOG(WARNING) << "metric " << s.name << " reported as "
                        << MetricKindName(s.kind) << " by machine " << machine
                        << " but " << MetricKindName(it->second)
                        << " elsewhere; skipping its snapshot";
      }
    }
  }

  for (const auto& [name, kind] : names) {
    ClusterMetric cm;
    cm.name = name;
    cm.kind = kind;
    cm.machines = view.machines;
    for (const auto& [machine, snapshot] : snapshots) {
      MetricSnapshot found;
      found.name = name;
      found.kind = kind;
      for (const MetricSnapshot& s : snapshot) {
        if (s.name == name && s.kind == kind) {
          found = s;
          break;
        }
      }
      cm.per_machine.push_back(std::move(found));
    }

    double total = 0;
    double max = 0;
    for (const MetricSnapshot& s : cm.per_machine) {
      double v = 0;
      switch (kind) {
        case MetricKind::kCounter:
          v = static_cast<double>(s.counter);
          break;
        case MetricKind::kGauge:
          v = static_cast<double>(s.gauge);
          break;
        case MetricKind::kHistogram:
          v = static_cast<double>(s.hist.count);
          cm.merged_hist.Merge(s.hist);
          break;
      }
      total += v;
      max = std::max(max, v);
    }
    cm.total = total;
    cm.max = max;
    cm.mean = cm.per_machine.empty()
                  ? 0
                  : total / static_cast<double>(cm.per_machine.size());
    cm.skew = cm.mean > 0 ? cm.max / cm.mean : 0;
    view.metrics.push_back(std::move(cm));
  }
  return view;
}

TelemetryChannel::TelemetryChannel(rpc::CommLayer* comm, rpc::MachineId me,
                                   SampleCallback on_sample,
                                   rpc::HandlerId handler_id)
    : comm_(comm),
      me_(me),
      on_sample_(std::move(on_sample)),
      handler_id_(handler_id) {
  GL_CHECK(comm_ != nullptr);
  if (me_ == kMaster) {
    GL_CHECK(on_sample_) << "machine 0's TelemetryChannel needs a sink";
    handler_scope_ = comm_->RegisterHandler(
        me_, handler_id_,
        [this](rpc::MachineId src, InArchive& ia) { OnSample(src, ia); });
  }
}

void TelemetryChannel::Publish(const TelemetrySample& sample) {
  if (me_ == kMaster) {
    // No wire hop for the master's own stream.
    on_sample_(sample);
    published_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (comm_->IsPeerDown(kMaster)) return;
  OutArchive oa;
  oa << sample;
  comm_->Send(me_, kMaster, handler_id_, std::move(oa));
  published_.fetch_add(1, std::memory_order_relaxed);
}

void TelemetryChannel::OnSample(rpc::MachineId src, InArchive& ia) {
  TelemetrySample sample;
  ia >> sample;
  if (!ia.ok() || sample.machine != src) {
    GL_LOG(WARNING) << "dropping corrupt telemetry sample from machine "
                    << src;
    return;
  }
  on_sample_(sample);
}

}  // namespace metrics
}  // namespace graphlab
