#pragma once

// Small measurement helpers shared by every perfbench workload: the clock,
// percentiles over raw samples, a bounded log-linear histogram for the
// per-call timings of traced runs, and /proc readers for CPU time and peak
// RSS. The templates live here so the benchmark's tests exercise exactly
// this code.

#include <sys/types.h>

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <vector>

namespace perfbench {

inline int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank percentile of an ascending sample vector: the smallest
/// sample with at least a fraction q of all samples at or below it.
/// Returns 0 for an empty vector.
template <class T>
T percentile_sorted(const std::vector<T>& sorted, double q) {
  if (sorted.empty()) return T{};
  const double n = static_cast<double>(sorted.size());
  const double rank = std::max(1.0, std::ceil(std::clamp(q, 0.0, 1.0) * n));
  return sorted[std::min(static_cast<std::size_t>(rank) - 1,
                         sorted.size() - 1)];
}

/// The highest nearest-rank percentile that still has at least `beyond`
/// samples above it — the deepest tail a sample set of this size supports.
struct TailPoint {
  double q = 0;      ///< the percentile as a fraction (0: too few samples)
  double value = 0;
};

template <class T>
TailPoint tail_percentile(const std::vector<T>& sorted,
                          std::size_t beyond = 10) {
  if (sorted.size() <= beyond) return {};
  const std::size_t idx = sorted.size() - beyond - 1;
  return {static_cast<double>(idx + 1) / static_cast<double>(sorted.size()),
          static_cast<double>(sorted[idx])};
}

/// Latency summary of one sample set, in the samples' unit.
struct Summary {
  std::size_t count = 0;
  double p50 = 0, p99 = 0, p999 = 0;
  TailPoint tail;
};

/// Sorts `samples` in place and summarizes them.
template <class T>
Summary summarize(std::vector<T>& samples) {
  std::sort(samples.begin(), samples.end());
  Summary s;
  s.count = samples.size();
  s.p50 = static_cast<double>(percentile_sorted(samples, 0.50));
  s.p99 = static_cast<double>(percentile_sorted(samples, 0.99));
  s.p999 = static_cast<double>(percentile_sorted(samples, 0.999));
  s.tail = tail_percentile(samples);
  return s;
}

/// Median of a small set of repeated measurements (mean of the middle two
/// for an even count); 0 when empty.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 != 0 ? v[h] : (v[h - 1] + v[h]) / 2;
}

/// A latency sample stamped with when it was due.
struct TimedSample {
  int64_t at_ns = 0;
  int64_t value = 0;
};

/// p50 and p99 of each of `windows` equal time slices of the samples' span,
/// and the median of each over the slices: a stall that hits one slice moves
/// that slice's p99, not the reported one.
struct WindowedPercentiles {
  double p50 = 0, p99 = 0;
};

inline WindowedPercentiles windowed_percentiles(
    const std::vector<TimedSample>& samples, int windows) {
  if (samples.empty() || windows < 1) return {};
  int64_t lo = samples.front().at_ns, hi = lo;
  for (const TimedSample& s : samples) {
    lo = std::min(lo, s.at_ns);
    hi = std::max(hi, s.at_ns);
  }
  const double span = static_cast<double>(hi - lo) + 1;
  std::vector<std::vector<int64_t>> slices(static_cast<std::size_t>(windows));
  for (const TimedSample& s : samples) {
    const auto w = static_cast<std::size_t>(static_cast<double>(s.at_ns - lo) /
                                            span * windows);
    slices[std::min(w, slices.size() - 1)].push_back(s.value);
  }
  std::vector<double> p50s, p99s;
  for (std::vector<int64_t>& slice : slices) {
    if (slice.empty()) continue;
    std::sort(slice.begin(), slice.end());
    p50s.push_back(static_cast<double>(percentile_sorted(slice, 0.50)));
    p99s.push_back(static_cast<double>(percentile_sorted(slice, 0.99)));
  }
  return {median(p50s), median(p99s)};
}

/// Bounded-memory histogram of non-negative integers (nanoseconds): exact
/// below 64, then 32 linear sub-buckets per power of two, so a reported
/// percentile (the bucket midpoint) is within 1.6% of the true sample.
class LogHistogram {
 public:
  static constexpr int kSub = 32;
  static constexpr int kExact = 64;
  static constexpr int kBuckets = kExact + (64 - 6) * kSub;

  void add(uint64_t v) noexcept {
    ++counts_[index(v)];
    ++total_;
  }
  void merge(const LogHistogram& o) noexcept {
    for (int i = 0; i < kBuckets; ++i) counts_[i] += o.counts_[i];
    total_ += o.total_;
  }
  uint64_t count() const noexcept { return total_; }

  double percentile(double q) const noexcept {
    if (total_ == 0) return 0;
    const auto rank = static_cast<uint64_t>(std::max(
        1.0, std::ceil(std::clamp(q, 0.0, 1.0) * static_cast<double>(total_))));
    uint64_t seen = 0;
    for (int i = 0; i < kBuckets; ++i) {
      seen += counts_[i];
      if (seen >= rank) return midpoint(i);
    }
    return midpoint(kBuckets - 1);
  }

  static int index(uint64_t v) noexcept {
    if (v < kExact) return static_cast<int>(v);
    const int e = 63 - std::countl_zero(v);  // v in [2^e, 2^(e+1)), e >= 6
    const int sub = static_cast<int>((v >> (e - 5)) & (kSub - 1));
    return kExact + (e - 6) * kSub + sub;
  }
  static double midpoint(int i) noexcept {
    if (i < kExact) return i;
    const int e = (i - kExact) / kSub + 6;
    const int sub = (i - kExact) % kSub;
    return std::ldexp(1.0, e) + (sub + 0.5) * std::ldexp(1.0, e - 5);
  }

 private:
  std::array<uint64_t, kBuckets> counts_{};
  uint64_t total_ = 0;
};

/// On-CPU nanoseconds of every live thread of `pid`: the first field of
/// /proc/<pid>/task/*/schedstat (utime+stime at nanosecond resolution), or
/// utime+stime from /proc/<pid>/stat when the kernel keeps no schedstat.
uint64_t proc_cpu_ns(pid_t pid);

/// CPU use of `pid` while nothing is offered, in percent of one core: the
/// median over ten equal sub-windows of `duration_ns`, so one stray wakeup
/// does not decide the reading.
double idle_cpu_pct(pid_t pid, int64_t duration_ns);

/// Peak resident set (VmHWM of /proc/<pid>/status) in MiB; 0 if unreadable.
double proc_peak_rss_mib(pid_t pid);

/// CPU time of the calling thread, nanoseconds.
uint64_t thread_cpu_ns();

/// Lower the calling thread's timer slack to 1 µs, so paced sleeps wake on
/// schedule rather than up to the default 50 µs late. Threads it creates
/// and processes it forks inherit the value, even across exec.
void tighten_timer_slack();

/// Sleep until a steady-clock deadline (now_ns() scale); no-op if past.
void sleep_until_ns(int64_t deadline);

}  // namespace perfbench
