#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>

#include "common/check.h"
#include "obs/json_util.h"

namespace motto::obs {

namespace {

/// Shortest round-trippable double rendering; JSON has no Inf/NaN, but no
/// instrument produces them (Record ignores non-finite input upstream and
/// counters are integers).
std::string JsonNumber(double v) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", v);
  return buffer;
}

std::string JsonString(const std::string& s) {
  return "\"" + JsonEscape(s) + "\"";
}

}  // namespace

Histogram::Histogram(std::vector<double> bucket_bounds)
    : bounds(std::move(bucket_bounds)), counts(bounds.size() + 1, 0) {
  MOTTO_CHECK(std::is_sorted(bounds.begin(), bounds.end()))
      << "histogram bounds must ascend";
}

void Histogram::Record(double v) {
  // Bucket i holds (bounds[i-1], bounds[i]]: lower_bound finds the first
  // bound >= v, so a sample equal to a bound lands in that bound's bucket
  // and anything past the last bound lands in the overflow slot.
  size_t bucket = static_cast<size_t>(
      std::lower_bound(bounds.begin(), bounds.end(), v) - bounds.begin());
  counts[bucket] += 1;
  if (count == 0) {
    min = max = v;
  } else {
    min = std::min(min, v);
    max = std::max(max, v);
  }
  ++count;
  sum += v;
}

double Histogram::Quantile(double q) const {
  if (count == 0) return 0.0;
  if (q <= 0.0) return min;
  if (q >= 1.0) return max;
  // Rank of the requested quantile (1-based), then the bucket holding it.
  double target = q * static_cast<double>(count);
  uint64_t seen = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    double lo = i == 0 ? min : bounds[i - 1];
    double hi = i < bounds.size() ? bounds[i] : max;
    double next = static_cast<double>(seen + counts[i]);
    if (next >= target) {
      double within =
          (target - static_cast<double>(seen)) / static_cast<double>(counts[i]);
      double v = lo + (hi - lo) * within;
      return std::min(std::max(v, min), max);
    }
    seen += counts[i];
  }
  return max;
}

std::vector<double> Histogram::ExponentialBounds(double first, double factor,
                                                 int count) {
  std::vector<double> bounds;
  double bound = first;
  for (int i = 0; i < count; ++i) {
    bounds.push_back(bound);
    bound *= factor;
  }
  return bounds;
}

std::vector<double> LatencySecondsBounds() {
  // 1us, 2us, 4us, ... ~8.4s: 24 buckets covers a sweep that takes anywhere
  // from "free" to "the run stalled".
  return Histogram::ExponentialBounds(1e-6, 2.0, 24);
}

std::vector<double> SizeBounds() {
  // 1, 4, 16, ... ~1M: 11 buckets for queue depths / partial populations.
  return Histogram::ExponentialBounds(1.0, 4.0, 11);
}

Counter* MetricsRegistry::GetCounter(std::string_view name) {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), Counter{}).first;
  }
  return &it->second;
}

Gauge* MetricsRegistry::GetGauge(std::string_view name) {
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), Gauge{}).first;
  }
  return &it->second;
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name,
                                         std::vector<double> bounds) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), Histogram(std::move(bounds)))
             .first;
  } else {
    MOTTO_CHECK(it->second.bounds == bounds)
        << "histogram '" << std::string(name)
        << "' re-registered with different bounds";
  }
  return &it->second;
}

void MetricsRegistry::MergeFrom(const MetricsRegistry& shard) {
  for (const auto& [name, counter] : shard.counters_) {
    GetCounter(name)->value += counter.value;
  }
  for (const auto& [name, gauge] : shard.gauges_) {
    if (!gauge.seen) continue;
    Gauge* mine = GetGauge(name);
    if (!mine->seen) {
      *mine = gauge;
    } else {
      mine->value = gauge.value;  // Arbitrary "last shard wins".
      mine->max = std::max(mine->max, gauge.max);
    }
  }
  for (const auto& [name, histogram] : shard.histograms_) {
    Histogram* mine = GetHistogram(name, histogram.bounds);
    MOTTO_CHECK(mine->counts.size() == histogram.counts.size());
    for (size_t i = 0; i < histogram.counts.size(); ++i) {
      mine->counts[i] += histogram.counts[i];
    }
    if (histogram.count > 0) {
      mine->min = mine->count > 0 ? std::min(mine->min, histogram.min)
                                  : histogram.min;
      mine->max = mine->count > 0 ? std::max(mine->max, histogram.max)
                                  : histogram.max;
      mine->count += histogram.count;
      mine->sum += histogram.sum;
    }
  }
}

std::string MetricsRegistry::ToJson() const {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    if (!first) out += ',';
    first = false;
    out += JsonString(name) + ":" + std::to_string(counter.value);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, gauge] : gauges_) {
    if (!first) out += ',';
    first = false;
    out += JsonString(name) + ":{\"value\":" + JsonNumber(gauge.value) +
           ",\"max\":" + JsonNumber(gauge.max) + "}";
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, histogram] : histograms_) {
    if (!first) out += ',';
    first = false;
    out += JsonString(name) + ":{\"count\":" +
           std::to_string(histogram.count) +
           ",\"sum\":" + JsonNumber(histogram.sum) +
           ",\"min\":" + JsonNumber(histogram.min) +
           ",\"max\":" + JsonNumber(histogram.max) + ",\"bounds\":[";
    for (size_t i = 0; i < histogram.bounds.size(); ++i) {
      if (i > 0) out += ',';
      out += JsonNumber(histogram.bounds[i]);
    }
    out += "],\"counts\":[";
    for (size_t i = 0; i < histogram.counts.size(); ++i) {
      if (i > 0) out += ',';
      out += std::to_string(histogram.counts[i]);
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

}  // namespace motto::obs
