#include "metrics/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

namespace gill::metrics {

namespace {

/// Map key for one (name, labels) child. Separators below any printable
/// character so the map order groups families and orders children
/// deterministically.
std::string child_key(std::string_view name, const Labels& labels) {
  std::string key(name);
  for (const auto& [label, value] : labels) {
    key += '\x01';
    key += label;
    key += '\x02';
    key += value;
  }
  return key;
}

/// Renders a double for the exposition: integral values print as
/// integers, the rest round-trip through %.17g.
std::string format_number(double value) {
  if (std::isfinite(value) && value == std::floor(value) &&
      std::abs(value) < 9.007199254740992e15) {
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "%lld",
                  static_cast<long long>(value));
    return buffer;
  }
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

/// `{k1="v1",k2="v2"}` with escaped values; empty for label-less children.
/// `extra` appends one pre-rendered pair (the histogram `le`).
std::string render_labels(const Labels& labels, std::string_view extra = {}) {
  if (labels.empty() && extra.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [label, value] : labels) {
    if (!first) out += ',';
    first = false;
    out += label;
    out += "=\"";
    out += escape_label_value(value);
    out += '"';
  }
  if (!extra.empty()) {
    if (!first) out += ',';
    out += extra;
  }
  out += '}';
  return out;
}

}  // namespace

std::string_view to_string(MetricType type) noexcept {
  switch (type) {
    case MetricType::kCounter: return "counter";
    case MetricType::kGauge: return "gauge";
    case MetricType::kHistogram: return "histogram";
  }
  return "?";
}

std::string escape_label_value(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

void Gauge::add(double delta) noexcept {
  // CAS loop instead of the C++20 atomic<double>::fetch_add so the code
  // stays correct on standard libraries that lack the floating-point
  // overload.
  double current = value_.load(std::memory_order_relaxed);
  while (!value_.compare_exchange_weak(current, current + delta,
                                       std::memory_order_relaxed,
                                       std::memory_order_relaxed)) {
  }
}

Histogram::Histogram(std::size_t finite_buckets)
    : finite_buckets_(std::max<std::size_t>(1, std::min<std::size_t>(
                                                   finite_buckets, 63))),
      counts_(new std::atomic<std::uint64_t>[finite_buckets_ + 1]) {
  for (std::size_t i = 0; i <= finite_buckets_; ++i) counts_[i] = 0;
}

void Histogram::observe(std::uint64_t value) noexcept {
  // Bucket i covers (2^(i-1), 2^i]; 0 and 1 land in bucket 0. A value
  // above the last finite bound goes into the overflow (+Inf) slot.
  const std::size_t index =
      value <= 1 ? 0 : static_cast<std::size_t>(std::bit_width(value - 1));
  counts_[std::min(index, finite_buckets_)].fetch_add(
      1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
}

Registry::Entry& Registry::resolve(MetricType type, std::string_view name,
                                   std::string_view help, Labels&& labels,
                                   std::size_t finite_buckets) {
  std::sort(labels.begin(), labels.end());
  std::string key = child_key(name, labels);
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(key);
  if (it != entries_.end()) return it->second;
  Entry entry;
  entry.type = type;
  entry.name = std::string(name);
  entry.help = std::string(help);
  entry.labels = std::move(labels);
  switch (type) {
    case MetricType::kCounter:
      entry.counter = std::make_unique<Counter>();
      break;
    case MetricType::kGauge:
      entry.gauge = std::make_unique<Gauge>();
      break;
    case MetricType::kHistogram:
      entry.histogram = std::make_unique<Histogram>(finite_buckets);
      break;
  }
  return entries_.emplace(std::move(key), std::move(entry)).first->second;
}

Counter& Registry::counter(std::string_view name, std::string_view help,
                           Labels labels) {
  return *resolve(MetricType::kCounter, name, help, std::move(labels), 0)
              .counter;
}

Gauge& Registry::gauge(std::string_view name, std::string_view help,
                       Labels labels) {
  return *resolve(MetricType::kGauge, name, help, std::move(labels), 0).gauge;
}

Histogram& Registry::histogram(std::string_view name, std::string_view help,
                               Labels labels, std::size_t finite_buckets) {
  return *resolve(MetricType::kHistogram, name, help, std::move(labels),
                  finite_buckets)
              .histogram;
}

std::vector<MetricSnapshot> Registry::snapshot() const {
  std::vector<MetricSnapshot> out;
  std::lock_guard<std::mutex> lock(mutex_);
  out.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) {
    MetricSnapshot sample;
    sample.name = entry.name;
    sample.type = entry.type;
    sample.help = entry.help;
    sample.labels = entry.labels;
    switch (entry.type) {
      case MetricType::kCounter:
        sample.value = static_cast<double>(entry.counter->value());
        break;
      case MetricType::kGauge:
        sample.value = entry.gauge->value();
        break;
      case MetricType::kHistogram: {
        const Histogram& histogram = *entry.histogram;
        std::uint64_t running = 0;
        sample.buckets.reserve(histogram.finite_buckets());
        for (std::size_t i = 0; i < histogram.finite_buckets(); ++i) {
          running += histogram.bucket_count(i);
          sample.buckets.push_back({histogram.bucket_le(i), running});
        }
        sample.sum = histogram.sum();
        sample.count = histogram.count();
        break;
      }
    }
    out.push_back(std::move(sample));
  }
  return out;
}

std::string Registry::expose_prometheus() const {
  std::string out;
  std::string previous_family;
  for (const auto& sample : snapshot()) {
    if (sample.name != previous_family) {
      out += "# HELP " + sample.name + ' ' + sample.help + '\n';
      out += "# TYPE " + sample.name + ' ';
      out += to_string(sample.type);
      out += '\n';
      previous_family = sample.name;
    }
    if (sample.type == MetricType::kHistogram) {
      for (const auto& bucket : sample.buckets) {
        out += sample.name + "_bucket" +
               render_labels(sample.labels,
                             "le=\"" + std::to_string(bucket.le) + "\"") +
               ' ' + std::to_string(bucket.cumulative) + '\n';
      }
      out += sample.name + "_bucket" +
             render_labels(sample.labels, "le=\"+Inf\"") + ' ' +
             std::to_string(sample.count) + '\n';
      out += sample.name + "_sum" + render_labels(sample.labels) + ' ' +
             std::to_string(sample.sum) + '\n';
      out += sample.name + "_count" + render_labels(sample.labels) + ' ' +
             std::to_string(sample.count) + '\n';
    } else {
      out += sample.name + render_labels(sample.labels) + ' ' +
             format_number(sample.value) + '\n';
    }
  }
  return out;
}

std::uint64_t Registry::counter_total(std::string_view name) const {
  std::uint64_t total = 0;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [key, entry] : entries_) {
    if (entry.type == MetricType::kCounter && entry.name == name) {
      total += entry.counter->value();
    }
  }
  return total;
}

std::size_t Registry::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

Registry& default_registry() {
  static Registry registry;
  return registry;
}

}  // namespace gill::metrics
