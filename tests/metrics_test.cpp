// The metrics registry: registration semantics, the Prometheus text
// exposition (golden), snapshot/Prometheus consistency, and a
// multi-threaded increment smoke that the sanitizer build turns into a
// race detector.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "metrics/metrics.hpp"

namespace gill::metrics {
namespace {

// ---------------------------------------------------------------------------
// Registration semantics.
// ---------------------------------------------------------------------------

TEST(Registry, SameNameAndLabelsReturnTheSameCounter) {
  Registry registry;
  Counter& a = registry.counter("gill_test_events_total", "Events", {{"vp", "1"}});
  Counter& b = registry.counter("gill_test_events_total", "Events", {{"vp", "1"}});
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(Registry, LabelOrderDoesNotMatter) {
  Registry registry;
  Counter& a = registry.counter("gill_test_events_total", "Events",
                                {{"vp", "1"}, {"kind", "open"}});
  Counter& b = registry.counter("gill_test_events_total", "Events",
                                {{"kind", "open"}, {"vp", "1"}});
  EXPECT_EQ(&a, &b);
}

TEST(Registry, DifferentLabelsAreDifferentChildren) {
  Registry registry;
  Counter& a = registry.counter("gill_test_events_total", "Events", {{"vp", "1"}});
  Counter& b = registry.counter("gill_test_events_total", "Events", {{"vp", "2"}});
  EXPECT_NE(&a, &b);
  a.inc(3);
  b.inc(5);
  EXPECT_EQ(registry.counter_total("gill_test_events_total"), 8u);
  EXPECT_EQ(registry.counter_total("gill_test_absent_total"), 0u);
}

TEST(Gauge, AddAndSubAreExact) {
  Gauge gauge;
  gauge.set(2.5);
  gauge.add(1.0);
  gauge.sub(0.5);
  EXPECT_DOUBLE_EQ(gauge.value(), 3.0);
}

// ---------------------------------------------------------------------------
// Histogram bucketing.
// ---------------------------------------------------------------------------

TEST(Histogram, Log2BucketBoundaries) {
  Histogram histogram(4);  // le = 1, 2, 4, 8, +Inf
  ASSERT_EQ(histogram.finite_buckets(), 4u);
  EXPECT_EQ(histogram.bucket_le(0), 1u);
  EXPECT_EQ(histogram.bucket_le(3), 8u);
  histogram.observe(0);
  histogram.observe(1);    // bucket 0 (le=1)
  histogram.observe(2);    // bucket 1 (le=2)
  histogram.observe(3);    // bucket 2 (le=4)
  histogram.observe(8);    // bucket 3 (le=8)
  histogram.observe(9);    // overflow
  histogram.observe(1'000'000);  // overflow
  EXPECT_EQ(histogram.bucket_count(0), 2u);
  EXPECT_EQ(histogram.bucket_count(1), 1u);
  EXPECT_EQ(histogram.bucket_count(2), 1u);
  EXPECT_EQ(histogram.bucket_count(3), 1u);
  EXPECT_EQ(histogram.overflow(), 2u);
  EXPECT_EQ(histogram.count(), 7u);
  EXPECT_EQ(histogram.sum(), 1'000'023u);
}

TEST(Timer, ObservesOnceOnDestruction) {
  Histogram histogram(8);
  {
    const Timer timer(histogram);
    EXPECT_EQ(histogram.count(), 0u);
  }
  EXPECT_EQ(histogram.count(), 1u);
}

// ---------------------------------------------------------------------------
// Prometheus text exposition, golden. Families are alphabetical; children
// within a family follow the sorted label values; histogram buckets are
// cumulative and the +Inf bucket equals _count.
// ---------------------------------------------------------------------------

TEST(Exposition, PrometheusGolden) {
  Registry registry;
  Histogram& bytes =
      registry.histogram("gill_test_bytes", "Message sizes", {{"vp", "9"}}, 4);
  bytes.observe(0);
  bytes.observe(1);
  bytes.observe(2);
  bytes.observe(3);
  bytes.observe(5);
  bytes.observe(100);  // above le=8: +Inf only
  registry.counter("gill_test_events_total", "Events seen", {{"vp", "1"}})
      .inc(3);
  registry.counter("gill_test_events_total", "Events seen", {{"vp", "2"}})
      .inc(5);
  registry.gauge("gill_test_peers", "Connected peers").set(4);
  registry
      .counter("gill_test_weird_total", "Escaping check",
               {{"path", "a\\b\"c\nd"}})
      .inc();

  const std::string expected =
      "# HELP gill_test_bytes Message sizes\n"
      "# TYPE gill_test_bytes histogram\n"
      "gill_test_bytes_bucket{vp=\"9\",le=\"1\"} 2\n"
      "gill_test_bytes_bucket{vp=\"9\",le=\"2\"} 3\n"
      "gill_test_bytes_bucket{vp=\"9\",le=\"4\"} 4\n"
      "gill_test_bytes_bucket{vp=\"9\",le=\"8\"} 5\n"
      "gill_test_bytes_bucket{vp=\"9\",le=\"+Inf\"} 6\n"
      "gill_test_bytes_sum{vp=\"9\"} 111\n"
      "gill_test_bytes_count{vp=\"9\"} 6\n"
      "# HELP gill_test_events_total Events seen\n"
      "# TYPE gill_test_events_total counter\n"
      "gill_test_events_total{vp=\"1\"} 3\n"
      "gill_test_events_total{vp=\"2\"} 5\n"
      "# HELP gill_test_peers Connected peers\n"
      "# TYPE gill_test_peers gauge\n"
      "gill_test_peers 4\n"
      "# HELP gill_test_weird_total Escaping check\n"
      "# TYPE gill_test_weird_total counter\n"
      "gill_test_weird_total{path=\"a\\\\b\\\"c\\nd\"} 1\n";
  EXPECT_EQ(registry.expose_prometheus(), expected);
}

TEST(Exposition, EscapeLabelValue) {
  EXPECT_EQ(escape_label_value("plain"), "plain");
  EXPECT_EQ(escape_label_value("a\\b"), "a\\\\b");
  EXPECT_EQ(escape_label_value("a\"b"), "a\\\"b");
  EXPECT_EQ(escape_label_value("a\nb"), "a\\nb");
}

// ---------------------------------------------------------------------------
// Snapshot/Prometheus consistency: the text exposition is a view of the
// typed snapshot(), so every sample's series appears verbatim in it.
// ---------------------------------------------------------------------------

TEST(Exposition, SnapshotMatchesPrometheus) {
  Registry registry;
  for (int vp = 0; vp < 5; ++vp) {
    registry
        .counter("gill_test_updates_total", "Updates",
                 {{"vp", std::to_string(vp)}})
        .inc(static_cast<std::uint64_t>(vp) * 7 + 1);
  }
  registry.gauge("gill_test_load", "Load").set(0.375);  // non-integral
  Histogram& latency =
      registry.histogram("gill_test_latency_us", "Latency", {}, 10);
  for (std::uint64_t i = 0; i < 300; ++i) latency.observe(i * i % 4096);

  const auto snapshot = registry.snapshot();
  ASSERT_EQ(snapshot.size(), 7u);
  const std::string text = registry.expose_prometheus();

  for (const MetricSnapshot& truth : snapshot) {
    std::string labels;
    if (!truth.labels.empty()) {
      labels += '{';
      for (std::size_t l = 0; l < truth.labels.size(); ++l) {
        if (l > 0) labels += ',';
        labels += truth.labels[l].first + "=\"" +
                  escape_label_value(truth.labels[l].second) + '"';
      }
      labels += '}';
    }
    if (truth.type == MetricType::kHistogram) {
      const std::string count = truth.name + "_count" + labels + ' ' +
                                std::to_string(truth.count) + '\n';
      const std::string sum = truth.name + "_sum" + labels + ' ' +
                              std::to_string(truth.sum) + '\n';
      EXPECT_NE(text.find(count), std::string::npos) << count;
      EXPECT_NE(text.find(sum), std::string::npos) << sum;
      std::uint64_t previous = 0;
      for (const auto& bucket : truth.buckets) {
        EXPECT_GE(bucket.cumulative, previous) << "buckets must be cumulative";
        EXPECT_LE(bucket.cumulative, truth.count);
        previous = bucket.cumulative;
      }
    } else {
      // The exact scrape line for this child exists in the text format.
      const std::string line = truth.name + labels;
      EXPECT_NE(text.find(line + ' '), std::string::npos) << line;
    }
  }
}

// ---------------------------------------------------------------------------
// Concurrency smoke: many threads on the same children. Run under the
// sanitize label so a TSan build checks the relaxed-atomic claims.
// ---------------------------------------------------------------------------

TEST(Concurrency, ParallelIncrementsAllLand) {
  Registry registry;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 50'000;
  Counter& counter = registry.counter("gill_test_hits_total", "Hits");
  Histogram& histogram =
      registry.histogram("gill_test_sizes_bytes", "Sizes", {}, 12);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter, &histogram, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        counter.inc();
        histogram.observe((i + static_cast<std::uint64_t>(t)) % 5000);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter.value(), kThreads * kPerThread);
  EXPECT_EQ(histogram.count(), kThreads * kPerThread);
}

TEST(Concurrency, HistogramObserveWhileScraping) {
  // N writer threads hammer one histogram (plus a counter) while this
  // thread scrapes the exposition: under TSan this verifies the whole
  // exposition path against the relaxed-atomic write path.
  Registry registry;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 20'000;
  Histogram& histogram =
      registry.histogram("gill_test_lat_us", "Latency", {}, 16);
  Counter& counter = registry.counter("gill_test_obs_total", "Observations");
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram, &counter, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        histogram.observe((i * 37 + static_cast<std::uint64_t>(t)) % 60'000);
        counter.inc();
      }
    });
  }
  for (int scrape = 0; scrape < 50; ++scrape) {
    const std::string text = registry.expose_prometheus();
    EXPECT_NE(text.find("gill_test_lat_us_count"), std::string::npos);
    EXPECT_NE(text.find("gill_test_obs_total"), std::string::npos);
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(histogram.count(), kThreads * kPerThread);
  EXPECT_EQ(counter.value(), kThreads * kPerThread);
  std::uint64_t bucketed = histogram.overflow();
  for (std::size_t i = 0; i < histogram.finite_buckets(); ++i) {
    bucketed += histogram.bucket_count(i);
  }
  EXPECT_EQ(bucketed, histogram.count()) << "no observation lost a bucket";
}

TEST(Concurrency, ParallelRegistrationIsIdempotent) {
  Registry registry;
  constexpr int kThreads = 8;
  std::vector<Counter*> seen(kThreads, nullptr);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, &seen, t] {
      seen[static_cast<std::size_t>(t)] = &registry.counter(
          "gill_test_shared_total", "Shared", {{"vp", "7"}});
      seen[static_cast<std::size_t>(t)]->inc();
    });
  }
  for (auto& thread : threads) thread.join();
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(seen[0], seen[t]);
  EXPECT_EQ(registry.counter_total("gill_test_shared_total"),
            static_cast<std::uint64_t>(kThreads));
}

}  // namespace
}  // namespace gill::metrics
