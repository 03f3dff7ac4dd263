// Process-wide metric registry (the "metrics endpoint" the ROADMAP asks
// for): counters, gauges and fixed-log2-bucket histograms with Prometheus
// labels, exposed as Prometheus v0.0.4 text.
//
// Design constraints, in order:
//   1. The daemon decode hot path increments counters per message; an
//      increment is exactly one relaxed atomic add (verified by
//      bench_metrics_overhead). Handles are resolved ONCE — at session
//      construction, not per event.
//   2. Registration is thread-safe (mutex) and idempotent: asking for the
//      same (name, labels) returns the same object, so hundreds of VP
//      sessions share one registry without coordination.
//   3. Exposition never blocks writers: readers take the registration
//      mutex only to walk the index; the values themselves are relaxed
//      atomic loads, so a scrape racing a decode burst sees a consistent
//      enough snapshot (Prometheus semantics).
//
// Naming scheme (DESIGN.md §6): gill_<module>_<name>_<unit>, counters end
// in `_total`, duration histograms in `_us`, size histograms in `_bytes`.
// Per-VP labels ({vp="12"}) are bounded by the peer count; never label by
// prefix or by anything update-derived.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace gill::metrics {

/// Label set, sorted by key at registration time so that one (name, labels)
/// pair has exactly one canonical identity.
using Labels = std::vector<std::pair<std::string, std::string>>;

enum class MetricType : std::uint8_t { kCounter, kGauge, kHistogram };

std::string_view to_string(MetricType type) noexcept;

/// Monotonic event count. The increment is one relaxed atomic add:
/// lock-free and cheap enough for the per-update decode path of hundreds
/// of sessions.
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// A value that goes up and down (peer counts, queue depths).
class Gauge {
 public:
  void set(double value) noexcept {
    value_.store(value, std::memory_order_relaxed);
  }
  void add(double delta) noexcept;
  void sub(double delta) noexcept { add(-delta); }
  double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

/// Histogram over non-negative integer observations (byte sizes,
/// microsecond latencies) with fixed log2 buckets: bucket i holds
/// observations <= 2^i, for i in [0, finite_buckets); everything larger
/// lands in the +Inf overflow bucket. Buckets are non-cumulative
/// internally and accumulated at exposition time, as Prometheus expects.
class Histogram {
 public:
  static constexpr std::size_t kDefaultBuckets = 24;  // up to 8 MiB / 16 s

  explicit Histogram(std::size_t finite_buckets = kDefaultBuckets);

  void observe(std::uint64_t value) noexcept;

  std::size_t finite_buckets() const noexcept { return finite_buckets_; }
  /// Upper bound (`le`) of finite bucket `index`: 2^index.
  std::uint64_t bucket_le(std::size_t index) const noexcept {
    return std::uint64_t{1} << index;
  }
  /// Non-cumulative count of finite bucket `index`.
  std::uint64_t bucket_count(std::size_t index) const noexcept {
    return counts_[index].load(std::memory_order_relaxed);
  }
  /// Observations above the last finite bucket (the +Inf remainder).
  std::uint64_t overflow() const noexcept {
    return counts_[finite_buckets_].load(std::memory_order_relaxed);
  }
  std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }

 private:
  std::size_t finite_buckets_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> counts_;  // + overflow slot
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> count_{0};
};

/// RAII wall-clock timer: observes the elapsed microseconds into a
/// histogram on destruction.
class Timer {
 public:
  explicit Timer(Histogram& histogram) noexcept
      : histogram_(&histogram), start_(std::chrono::steady_clock::now()) {}
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;
  ~Timer() { histogram_->observe(elapsed_us()); }

  std::uint64_t elapsed_us() const noexcept {
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(elapsed)
            .count());
  }

 private:
  Histogram* histogram_;
  std::chrono::steady_clock::time_point start_;
};

/// One read-only sample of one metric child, as taken by
/// Registry::snapshot(). Histogram buckets are cumulative here (exposition
/// form); `buckets` excludes +Inf, whose cumulative count equals `count`.
struct MetricSnapshot {
  std::string name;
  MetricType type = MetricType::kCounter;
  std::string help;
  Labels labels;
  double value = 0.0;  // counter / gauge
  struct Bucket {
    std::uint64_t le = 0;
    std::uint64_t cumulative = 0;
  };
  std::vector<Bucket> buckets;  // histogram only
  std::uint64_t sum = 0;        // histogram only
  std::uint64_t count = 0;      // histogram only
};

/// The registry: owns every metric, hands out stable references, and
/// renders the Prometheus exposition. All members are thread-safe.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Returns the counter registered under (name, labels), creating it on
  /// first use. The reference stays valid for the registry's lifetime.
  /// `help` is taken from the first registration of the family.
  Counter& counter(std::string_view name, std::string_view help,
                   Labels labels = {});
  Gauge& gauge(std::string_view name, std::string_view help,
               Labels labels = {});
  Histogram& histogram(std::string_view name, std::string_view help,
                       Labels labels = {},
                       std::size_t finite_buckets = Histogram::kDefaultBuckets);

  /// Every registered child, ordered by (name, labels) — the exposition
  /// order.
  std::vector<MetricSnapshot> snapshot() const;

  /// Prometheus text exposition format v0.0.4 (one HELP/TYPE header per
  /// family, label values escaped, histograms expanded into cumulative
  /// `_bucket`/`_sum`/`_count` series).
  std::string expose_prometheus() const;

  /// Sum of a counter family over all label sets (0 when absent) — the
  /// natural aggregate for per-VP counters in tests and health checks.
  std::uint64_t counter_total(std::string_view name) const;

  std::size_t size() const;

 private:
  struct Entry {
    MetricType type;
    std::string name;
    std::string help;
    Labels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry& resolve(MetricType type, std::string_view name,
                 std::string_view help, Labels&& labels,
                 std::size_t finite_buckets);

  mutable std::mutex mutex_;
  std::map<std::string, Entry> entries_;  // key: name '\x01' k '\x02' v ...
};

/// The process-wide registry: free-function instrumentation (feed codecs,
/// command-line tools) lands here. Components that need isolation (tests,
/// one Platform per scenario) own a private Registry instead.
Registry& default_registry();

/// Escapes a label value for the text exposition (backslash, double quote
/// and newline, per the Prometheus spec). Exposed for the golden tests.
std::string escape_label_value(std::string_view value);

}  // namespace gill::metrics
