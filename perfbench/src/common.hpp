// Shared plumbing of the benchmark driver: clock, latency histogram, load
// accounting and the per-run report every workload fills in.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Log-linear histogram of nanosecond durations up to 2^40 ns (18 min):
/// 64 sub-buckets per power of two (bucket width under 1.6% of its value).
/// Percentiles interpolate by rank inside the bucket, so a reported value
/// moves with the sample distribution instead of snapping to bucket edges.
/// Buckets hold 32-bit counts (9 KB a histogram), because a run keeps one
/// histogram per 0.25-s window and the driver's own memory is part of
/// rss_peak_mb.
class Hist {
 public:
  Hist() : buckets_(kBuckets, 0) {}

  void add_ns(std::int64_t ns);
  void merge(const Hist& other);
  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  /// Percentile `q` in [0, 1], in microseconds; 0 when empty.
  [[nodiscard]] double percentile_us(double q) const;

 private:
  static constexpr int kSubBits = 6;
  static constexpr int kSub = 1 << kSubBits;
  static constexpr int kMaxExp = 40;
  static constexpr std::size_t kBuckets =
      static_cast<std::size_t>((kMaxExp - kSubBits + 2) * kSub);

  std::vector<std::uint32_t> buckets_;
  std::uint64_t count_ = 0;
  std::uint64_t sum_ns_ = 0;
};

/// A measured phase cut into equal time windows, each with its own
/// histogram and operation count. A metric is taken per window (percentile
/// or rate) and reported as a quantile over the windows on the fast side:
/// the kFastShare quantile of per-window latencies, and the 1 - kFastShare
/// quantile of per-window rates. Co-tenants of a shared host can slow the
/// same code by up to 1.7x for seconds at a time; a metric that follows
/// the fastest twentieth of a run's windows measures the code, and a run
/// reads slow only when the host was slow for nearly all of it.
class Windowed {
 public:
  static constexpr double kFastShare = 0.05;

  /// `window_s`: window length in seconds. Short windows resolve the
  /// host's slow spells; each window must still hold enough samples for
  /// the percentiles asked of it.
  explicit Windowed(double window_s) : window_s_(window_s) {}
  /// Phase start and total length (now_ns clock). The phase is cut into
  /// whole windows; samples after the last whole window are dropped.
  void start(std::int64_t t0_ns, std::int64_t length_ns);
  /// Records one operation at time `t_ns` with latency `ns` and `ops` units
  /// of work (answers, jobs).
  void add(std::int64_t t_ns, std::int64_t ns, std::uint64_t ops = 1) {
    if (t_ns < t0_ns_) return;
    const auto w = static_cast<std::size_t>((t_ns - t0_ns_) / window_ns_);
    if (w >= hists_.size()) return;
    hists_[w].add_ns(ns);
    ops_[w] += ops;
  }
  /// Adds `other`'s samples; both must have been started alike.
  void merge(const Windowed& other);
  /// Percentile `q` in microseconds over the windows that hold at least 10
  /// samples beyond it, as the kFastShare quantile of those windows'
  /// percentiles; the percentile of all windows pooled when none does.
  [[nodiscard]] double percentile_us(double q) const;
  /// Operations per second: the (1 - kFastShare) quantile of the windows'
  /// rates.
  [[nodiscard]] double rate() const;
  [[nodiscard]] std::uint64_t count() const;
  /// "q10 / q50 / q90" of the windows' percentile `q`, in microseconds:
  /// how much the host's speed moved during the run.
  [[nodiscard]] std::string spread_us(double q) const;

 private:
  double window_s_;
  std::int64_t t0_ns_ = 0;
  std::int64_t window_ns_ = 1;
  std::vector<Hist> hists_;
  std::vector<std::uint64_t> ops_;
};

/// Accounting of one operation kind within one phase.
struct OpCount {
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  std::uint64_t retried = 0;
};

/// Everything one workload run reports. Metrics keep insertion order.
struct Report {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics;
  /// Correctness-gate failures; any entry fails the run.
  std::vector<std::string> gate_failures;
  /// Load-validity violations (too many threads, unobserved events, a
  /// failed stage-sum check).
  std::vector<std::string> invalid;
  /// Open-loop sends, and those that went out more than kLateBoundUs after
  /// they fell due. perfbench/run.py marks a run invalid when more than 1%
  /// of its sends, over all of its driver processes, were that late: the
  /// generator's p99 lateness over the run exceeded the bound.
  std::uint64_t sends = 0;
  std::uint64_t late_sends = 0;
  /// "phase/kind" -> counts.
  std::map<std::string, OpCount> ops;
  /// Input digests and other facts printed with the result.
  std::vector<std::pair<std::string, std::string>> notes;

  void metric(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] double get(const std::string& name) const;
  [[nodiscard]] OpCount& op(const std::string& phase, const std::string& kind) {
    return ops[phase + "/" + kind];
  }
  void gate(bool ok, const std::string& what) {
    if (!ok) gate_failures.push_back(what);
  }
  void note(const std::string& key, const std::string& value) {
    notes.emplace_back(key, value);
  }
  /// Failed operations over attempted ones, summed over every phase/kind.
  [[nodiscard]] std::uint64_t attempted() const;
  [[nodiscard]] std::uint64_t failed() const;
};

/// Peak resident set size of this process, in MB.
[[nodiscard]] double rss_peak_mb();
/// Threads of this process right now (from /proc/self/status).
[[nodiscard]] int live_threads();
/// Hardware threads available to this process.
[[nodiscard]] int host_threads();

[[nodiscard]] std::string hex64(std::uint64_t v);

/// Median of a small sample (copied).
[[nodiscard]] double median(std::vector<double> v);
/// Quantile `q` in [0, 1] of a small sample (copied), interpolating
/// between ranks; 0 when empty.
[[nodiscard]] double quantile(std::vector<double> v, double q);
/// Second-largest value (the largest when there is one): the rate of a
/// fixed computation timed several times on a shared host, robust to one
/// lucky repeat.
[[nodiscard]] double second_best(std::vector<double> v);

}  // namespace perfbench
