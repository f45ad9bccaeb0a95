#include "graphlab/metrics/timeseries.h"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdio>

#include "graphlab/util/logging.h"
#include "graphlab/util/timer.h"

namespace graphlab {
namespace metrics {

// ---------------------------------------------------------------------
// TimeSeriesRing
// ---------------------------------------------------------------------

TimeSeriesRing::TimeSeriesRing(size_t capacity)
    : ring_(std::max<size_t>(2, capacity)) {}

void TimeSeriesRing::Push(uint64_t t_ns, double value) {
  ring_[head_] = SamplePoint{t_ns, value};
  head_ = (head_ + 1) % ring_.size();
  ++total_;
}

size_t TimeSeriesRing::size() const {
  return total_ < ring_.size() ? static_cast<size_t>(total_) : ring_.size();
}

const SamplePoint& TimeSeriesRing::At(size_t i) const {
  GL_CHECK_LT(i, size());
  const size_t start = total_ > ring_.size() ? head_ : 0;
  return ring_[(start + i) % ring_.size()];
}

const SamplePoint& TimeSeriesRing::Latest() const {
  GL_CHECK_GT(size(), 0u);
  return ring_[(head_ + ring_.size() - 1) % ring_.size()];
}

double TimeSeriesRing::Rate(const SamplePoint& prev, const SamplePoint& cur) {
  if (cur.t_ns <= prev.t_ns) return 0;
  const double dt_s = static_cast<double>(cur.t_ns - prev.t_ns) / 1e9;
  return (cur.value - prev.value) / dt_s;
}

// ---------------------------------------------------------------------
// Window derivation
// ---------------------------------------------------------------------

HistogramData HistogramWindowDelta(const HistogramData& prev,
                                   const HistogramData& cur) {
  if (cur.count < prev.count) return cur;  // reset between samples
  HistogramData out;
  out.count = cur.count - prev.count;
  out.sum = cur.sum >= prev.sum ? cur.sum - prev.sum : 0;
  // Both bucket lists are sparse and sorted by index; stream-subtract.
  size_t pi = 0;
  for (const auto& [index, count] : cur.buckets) {
    uint64_t prev_count = 0;
    while (pi < prev.buckets.size() && prev.buckets[pi].first < index) ++pi;
    if (pi < prev.buckets.size() && prev.buckets[pi].first == index) {
      prev_count = prev.buckets[pi].second;
    }
    if (count > prev_count) out.buckets.emplace_back(index, count - prev_count);
  }
  return out;
}

// ---------------------------------------------------------------------
// TelemetrySample
// ---------------------------------------------------------------------

namespace {
double FindPair(const std::vector<std::pair<std::string, double>>& pairs,
                const std::string& name, double def) {
  for (const auto& [key, value] : pairs) {
    if (key == name) return value;
  }
  return def;
}

/// Doubles cross the wire as their IEEE-754 bit pattern (the archives
/// speak fixed-width integers only).
void SavePairs(OutArchive* oa,
               const std::vector<std::pair<std::string, double>>& pairs) {
  *oa << static_cast<uint64_t>(pairs.size());
  for (const auto& [key, value] : pairs) {
    *oa << key << std::bit_cast<uint64_t>(value);
  }
}

void LoadPairs(InArchive* ia,
               std::vector<std::pair<std::string, double>>* pairs) {
  uint64_t n = 0;
  *ia >> n;
  pairs->clear();
  if (!ia->ok()) return;
  for (uint64_t i = 0; i < n && ia->ok(); ++i) {
    std::string key;
    uint64_t bits = 0;
    *ia >> key >> bits;
    if (ia->ok()) pairs->emplace_back(std::move(key), std::bit_cast<double>(bits));
  }
}
}  // namespace

double TelemetrySample::Value(const std::string& name, double def) const {
  return FindPair(values, name, def);
}

double TelemetrySample::Rate(const std::string& name, double def) const {
  return FindPair(rates, name, def);
}

void TelemetrySample::Save(OutArchive* oa) const {
  *oa << machine << seq << t_ns << interval_ns;
  SavePairs(oa, values);
  SavePairs(oa, rates);
}

void TelemetrySample::Load(InArchive* ia) {
  *ia >> machine >> seq >> t_ns >> interval_ns;
  LoadPairs(ia, &values);
  LoadPairs(ia, &rates);
}

// ---------------------------------------------------------------------
// TimeSeriesSampler
// ---------------------------------------------------------------------

TimeSeriesSampler::TimeSeriesSampler(MetricsRegistry* registry,
                                     TimeSeriesOptions options,
                                     uint32_t machine)
    : registry_(registry), options_(std::move(options)), machine_(machine) {
  GL_CHECK(registry_ != nullptr);
  if (options_.interval_ms == 0) options_.interval_ms = 100;
}

TimeSeriesSampler::~TimeSeriesSampler() { Stop(); }

void TimeSeriesSampler::Start() {
  GL_CHECK(!thread_.joinable()) << "sampler already started";
  {
    std::lock_guard<std::mutex> lock(stop_mutex_);
    stop_requested_ = false;
  }
  thread_ = std::thread([this] { Loop(); });
}

void TimeSeriesSampler::Stop() {
  if (!thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(stop_mutex_);
    stop_requested_ = true;
  }
  stop_cv_.notify_all();
  thread_.join();
}

void TimeSeriesSampler::Loop() {
  const auto interval = std::chrono::milliseconds(options_.interval_ms);
  std::unique_lock<std::mutex> lock(stop_mutex_);
  for (;;) {
    if (stop_cv_.wait_for(lock, interval, [this] { return stop_requested_; })) {
      return;
    }
    lock.unlock();
    TelemetrySample sample = SampleOnce();
    if (push_) push_(sample);
    lock.lock();
  }
}

TelemetrySample TimeSeriesSampler::SampleOnce() {
  if (probe_) probe_();

  // Read the registry outside the sampler lock (registry reads are
  // internally synchronized; the sampler lock only guards the rings).
  const uint64_t now = Timer::NowNanos();
  std::vector<std::pair<std::string, double>> scalars;
  scalars.reserve(options_.scalars.size());
  RegistrySnapshot snap = registry_->Snapshot();
  auto find = [&snap](const std::string& name) -> const MetricSnapshot* {
    for (const MetricSnapshot& s : snap) {
      if (s.name == name) return &s;
    }
    return nullptr;
  };
  for (const std::string& name : options_.scalars) {
    const MetricSnapshot* s = find(name);
    if (s == nullptr) continue;  // never registered on this machine
    const double v = s->kind == MetricKind::kGauge
                         ? static_cast<double>(s->gauge)
                         : static_cast<double>(s->counter);
    scalars.emplace_back(name, v);
  }
  std::vector<std::pair<std::string, HistogramData>> hists;
  for (const std::string& name : options_.histograms) {
    const MetricSnapshot* s = find(name);
    if (s == nullptr || s->kind != MetricKind::kHistogram) continue;
    hists.emplace_back(name, s->hist);
  }

  std::lock_guard<std::mutex> lock(mutex_);
  TelemetrySample sample;
  sample.machine = machine_;
  sample.seq = ++seq_;
  sample.t_ns = now;
  sample.interval_ns = prev_t_ns_ == 0 ? 0 : now - prev_t_ns_;
  sample.values = scalars;

  const double dt_s = static_cast<double>(sample.interval_ns) / 1e9;
  for (const auto& [name, value] : scalars) {
    auto ring = rings_.find(name);
    if (ring == rings_.end()) {
      ring = rings_.emplace(name, TimeSeriesRing(options_.ring_capacity))
                 .first;
    }
    ring->second.Push(now, value);
    if (dt_s > 0) {
      const auto prev = prev_scalars_.find(name);
      if (prev != prev_scalars_.end()) {
        sample.rates.emplace_back(name + ".rate",
                                  (value - prev->second) / dt_s);
      }
    }
    prev_scalars_[name] = value;
  }

  for (const auto& [name, data] : hists) {
    const auto prev = prev_hists_.find(name);
    const HistogramData window =
        prev == prev_hists_.end() ? data
                                  : HistogramWindowDelta(prev->second, data);
    if (window.count > 0) {
      sample.rates.emplace_back(name + ".p99", window.Percentile(99));
    }
    auto ring = rings_.find(name + ".p99");
    if (ring == rings_.end()) {
      ring = rings_
                 .emplace(name + ".p99",
                          TimeSeriesRing(options_.ring_capacity))
                 .first;
    }
    ring->second.Push(now, window.count > 0 ? window.Percentile(99) : 0);
    prev_hists_[name] = data;
  }

  prev_t_ns_ = now;
  latest_ = sample;
  ticks_.fetch_add(1, std::memory_order_acq_rel);
  return sample;
}

std::vector<SamplePoint> TimeSeriesSampler::Series(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<SamplePoint> out;
  const auto it = rings_.find(name);
  if (it == rings_.end()) return out;
  out.reserve(it->second.size());
  for (size_t i = 0; i < it->second.size(); ++i) {
    out.push_back(it->second.At(i));
  }
  return out;
}

TelemetrySample TimeSeriesSampler::Latest() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return latest_;
}

// ---------------------------------------------------------------------
// ClusterTimeSeries
// ---------------------------------------------------------------------

void ClusterTimeSeries::Ingest(const TelemetrySample& sample) {
  std::lock_guard<std::mutex> lock(mutex_);
  MachineSeries& series = per_machine_[sample.machine];
  if (series.ring.empty()) {
    series.ring.resize(std::max<size_t>(2, capacity_));
    series.arrival_ns.resize(series.ring.size(), 0);
  }
  series.ring[series.head] = sample;
  series.arrival_ns[series.head] = Timer::NowNanos();
  series.head = (series.head + 1) % series.ring.size();
  ++series.total;
  ++ingested_;
}

uint64_t ClusterTimeSeries::samples_ingested() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ingested_;
}

std::vector<uint32_t> ClusterTimeSeries::machines() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<uint32_t> out;
  out.reserve(per_machine_.size());
  for (const auto& [machine, series] : per_machine_) {
    if (series.total > 0) out.push_back(machine);
  }
  return out;
}

std::map<uint32_t, TelemetrySample> ClusterTimeSeries::Latest(
    uint64_t freshness_ns) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const uint64_t now = Timer::NowNanos();
  std::map<uint32_t, TelemetrySample> out;
  for (const auto& [machine, series] : per_machine_) {
    if (series.total == 0) continue;
    const size_t newest =
        (series.head + series.ring.size() - 1) % series.ring.size();
    if (freshness_ns > 0 &&
        now - series.arrival_ns[newest] > freshness_ns) {
      continue;  // stale: the machine stopped reporting
    }
    out.emplace(machine, series.ring[newest]);
  }
  return out;
}

std::vector<TelemetrySample> ClusterTimeSeries::History(
    uint32_t machine) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<TelemetrySample> out;
  const auto it = per_machine_.find(machine);
  if (it == per_machine_.end() || it->second.total == 0) return out;
  const MachineSeries& series = it->second;
  const size_t n = series.total < series.ring.size()
                       ? static_cast<size_t>(series.total)
                       : series.ring.size();
  const size_t start =
      series.total > series.ring.size() ? series.head : 0;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(series.ring[(start + i) % series.ring.size()]);
  }
  return out;
}

std::string ClusterTimeSeries::FormatLiveTable(
    const std::vector<std::string>& rate_keys) const {
  const std::map<uint32_t, TelemetrySample> latest = Latest();
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> header = {"machine", "seq"};
  for (const std::string& key : rate_keys) header.push_back(key);
  rows.push_back(std::move(header));
  for (const auto& [machine, sample] : latest) {
    std::vector<std::string> row;
    row.push_back("m" + std::to_string(machine));
    row.push_back(std::to_string(sample.seq));
    for (const std::string& key : rate_keys) {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.4g", sample.Rate(key, 0));
      row.push_back(buf);
    }
    rows.push_back(std::move(row));
  }

  std::vector<size_t> widths(rows[0].size(), 0);
  for (const auto& row : rows) {
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::string out;
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
  }
  return out;
}

}  // namespace metrics
}  // namespace graphlab
