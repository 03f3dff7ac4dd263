// Shared pieces of the benchmark: clocks, order statistics, the result a
// run prints, and the in-memory span tracer used by the traced runs.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pb {

/// Monotonic seconds.
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
/// The tail percentile a sample of `n` supports: the highest one with at
/// least ten samples beyond it, capped at the 99th; the median when fewer
/// than twenty samples leave no tail above it.
inline double tail_level(std::size_t n) {
  if (n < 20) return 0.5;
  const double level = (static_cast<double>(n) - 10.0) / static_cast<double>(n);
  return level < 0.99 ? level : 0.99;
}
inline double tail(std::vector<double> values) {
  const double level = tail_level(values.size());
  return quantile(std::move(values), level);
}

/// One run's outcome: named metrics with units, operation counts, and the
/// output checks that failed (each also printed on stderr).
struct Result {
  struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
  };
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
  /// Text lines printed before the JSON line (per-workload metric names,
  /// the collector's flags, notes).
  std::vector<std::string> notes;

  void set(const std::string& name, double value, const std::string& unit);
  double get(const std::string& name) const;
  bool has(const std::string& name) const;
  /// A failed output check: the run is reported as incorrect.
  void problem(const std::string& what);
  void note(const std::string& line) { notes.push_back(line); }
  bool correct() const { return problems.empty(); }
};

/// One traced call: name, start, end and the span that caused it.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
};

/// Keeps spans in memory; written out once, when the traced run ends.
class Tracer {
 public:
  int begin(const char* name, int parent = -1) {
    spans_.push_back(Span{name, now_ns(), 0, parent});
    return static_cast<int>(spans_.size()) - 1;
  }
  void end(int id) { spans_[static_cast<std::size_t>(id)].end_ns = now_ns(); }
  /// The innermost open span (parent for callbacks that cannot be handed
  /// one explicitly), or -1.
  int current() const { return current_; }
  void set_current(int id) { current_ = id; }

  const std::vector<Span>& spans() const { return spans_; }
  /// Total and self (minus child spans) nanoseconds and call count per name.
  struct Totals {
    double total_ns = 0;
    double self_ns = 0;
    std::size_t calls = 0;
  };
  std::map<std::string, Totals> totals() const;
  /// Appends every span as "name,start_ns,end_ns,parent" lines.
  bool write(const std::string& path, const std::string& header) const;

 private:
  std::vector<Span> spans_;
  int current_ = -1;
};

/// Runs `fn` inside a span when `tracer` is set, bare otherwise.
template <typename F>
inline void traced(Tracer* tracer, const char* name, F&& fn) {
  if (tracer == nullptr) {
    fn();
    return;
  }
  const int parent = tracer->current();
  const int id = tracer->begin(name, parent);
  tracer->set_current(id);
  fn();
  tracer->set_current(parent);
  tracer->end(id);
}

/// rm -rf; true when `path` no longer exists.
bool remove_tree(const std::string& path);
/// mkdir -p.
bool make_dirs(const std::string& path);

/// splitmix64: derives independent sub-seeds from the workload seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

}  // namespace pb
