// Shared pieces of the benchmark program: clocks, seeded input streams,
// order statistics, the metric sink and the check registry.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include <sys/resource.h>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double seconds_between(std::int64_t from_ns, std::int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) / 1e9;
}

/// User + system CPU seconds of this process (all threads).
inline double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/// Peak resident set of this process so far, in MB.
inline double process_peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// splitmix64: the benchmark's own generator for every input it draws, so
/// the inputs depend on --seed alone and not on the library's RNG.
class SplitMix {
 public:
  SplitMix(std::uint64_t seed, std::uint64_t stream)
      : state_(seed * 0x9e3779b97f4a7c15ULL + stream * 0xd1b54a32d192ed03ULL) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, bound).
  std::uint32_t below(std::uint64_t bound) {
    return static_cast<std::uint32_t>(next() % bound);
  }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

struct Pair {
  std::uint32_t u = 0;
  std::uint32_t v = 0;
};

/// Nearest-rank quantile of `values` (q in [0, 1]); 0 for an empty sample.
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

/// Median, the mean of the two middle values for an even count; 0 for an
/// empty sample.
inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 ? values[mid] : (values[mid - 1] + values[mid]) / 2;
}

inline double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// Metrics in insertion order, printed as the final JSON line.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    if (index_.count(name) == 0) {
      index_[name] = entries_.size();
      entries_.push_back({name, value, unit});
    } else {
      entries_[index_[name]] = {name, value, unit};
    }
  }
  std::string json() const {
    std::string out = "{";
    char buf[64];
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      std::snprintf(buf, sizeof buf, "%.17g", e.value);
      out += (i ? ", \"" : "\"") + e.name + "\": {\"value\": " + buf +
             ", \"unit\": \"" + e.unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
  std::map<std::string, std::size_t> index_;
};

/// Named output checks. Every failure is reported on stderr with the name
/// of the check, so a test can tell which check caught a corrupted result.
class Checker {
 public:
  void fail(const std::string& check, const std::string& detail) {
    if (failures_[check]++ < 3)
      std::fprintf(stderr, "CHECK FAILED [%s]: %s\n", check.c_str(),
                   detail.c_str());
  }
  bool ok() const { return failures_.empty(); }

 private:
  std::map<std::string, std::size_t> failures_;
};

}  // namespace perfbench
