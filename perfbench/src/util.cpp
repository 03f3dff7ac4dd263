#include "util.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <system_error>

namespace pb {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const auto lower = static_cast<std::size_t>(std::floor(position));
  const std::size_t upper = std::min(lower + 1, values.size() - 1);
  const double fraction = position - static_cast<double>(lower);
  return values[lower] + fraction * (values[upper] - values[lower]);
}

void Result::set(const std::string& name, double value,
                 const std::string& unit) {
  for (auto& metric : metrics) {
    if (metric.name == name) {
      metric.value = value;
      metric.unit = unit;
      return;
    }
  }
  metrics.push_back(Metric{name, value, unit});
}

double Result::get(const std::string& name) const {
  for (const auto& metric : metrics) {
    if (metric.name == name) return metric.value;
  }
  return 0.0;
}

bool Result::has(const std::string& name) const {
  for (const auto& metric : metrics) {
    if (metric.name == name) return true;
  }
  return false;
}

void Result::problem(const std::string& what) {
  std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  problems.push_back(what);
}

std::map<std::string, Tracer::Totals> Tracer::totals() const {
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<std::size_t>(span.parent)] +=
          static_cast<double>(span.end_ns - span.start_ns);
    }
  }
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double duration =
        static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
    Totals& totals = out[spans_[i].name];
    totals.total_ns += duration;
    totals.self_ns += duration - child_ns[i];
    ++totals.calls;
  }
  return out;
}

bool Tracer::write(const std::string& path, const std::string& header) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fprintf(file, "# %s\n# name,start_ns,end_ns,parent\n", header.c_str());
  for (const Span& span : spans_) {
    std::fprintf(file, "%s,%lld,%lld,%d\n", span.name,
                 static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns), span.parent);
  }
  return std::fclose(file) == 0;
}

bool remove_tree(const std::string& path) {
  std::error_code error;
  std::filesystem::remove_all(path, error);
  return !std::filesystem::exists(path, error);
}

bool make_dirs(const std::string& path) {
  std::error_code error;
  std::filesystem::create_directories(path, error);
  return std::filesystem::is_directory(path, error);
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace pb
