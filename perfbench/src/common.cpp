#include "common.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <fstream>
#include <sys/resource.h>
#include <thread>

namespace perfbench {

void Hist::add_ns(std::int64_t ns) {
  const std::uint64_t v = ns < 0 ? 0 : static_cast<std::uint64_t>(ns);
  std::size_t idx = 0;
  if (v < static_cast<std::uint64_t>(kSub)) {
    idx = static_cast<std::size_t>(v);
  } else {
    const int e = std::min(static_cast<int>(std::bit_width(v)) - 1, kMaxExp);
    const std::uint64_t sub =
        (v >> (e - kSubBits)) & static_cast<std::uint64_t>(kSub - 1);
    idx = static_cast<std::size_t>(e - kSubBits + 1) *
              static_cast<std::size_t>(kSub) +
          static_cast<std::size_t>(sub);
  }
  ++buckets_[std::min(idx, kBuckets - 1)];
  ++count_;
  sum_ns_ += v;
}

void Hist::merge(const Hist& other) {
  for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
  sum_ns_ += other.sum_ns_;
}

double Hist::percentile_us(double q) const {
  if (count_ == 0) return 0.0;
  const double rank = std::clamp(q, 0.0, 1.0) * static_cast<double>(count_ - 1);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    const std::uint64_t c = buckets_[i];
    if (c == 0) continue;
    if (rank < static_cast<double>(cum + c)) {
      double lo = 0.0;
      double width = 1.0;
      if (i >= static_cast<std::size_t>(kSub)) {
        const int e = static_cast<int>(i / static_cast<std::size_t>(kSub)) +
                      kSubBits - 1;
        const auto sub = static_cast<double>(i % static_cast<std::size_t>(kSub));
        width = static_cast<double>(std::uint64_t{1} << (e - kSubBits));
        lo = (static_cast<double>(kSub) + sub) * width;
      } else {
        lo = static_cast<double>(i);
      }
      const double pos =
          (rank - static_cast<double>(cum) + 0.5) / static_cast<double>(c);
      return (lo + width * pos) / 1000.0;
    }
    cum += c;
  }
  return 0.0;
}

void Windowed::start(std::int64_t t0_ns, std::int64_t length_ns) {
  t0_ns_ = t0_ns;
  window_ns_ = std::max<std::int64_t>(1, static_cast<std::int64_t>(window_s_ * 1e9));
  const auto n = static_cast<std::size_t>(std::max<std::int64_t>(1, length_ns / window_ns_));
  hists_.assign(n, Hist{});
  ops_.assign(n, 0);
}

void Windowed::merge(const Windowed& other) {
  for (std::size_t w = 0; w < std::min(hists_.size(), other.hists_.size()); ++w) {
    hists_[w].merge(other.hists_[w]);
    ops_[w] += other.ops_[w];
  }
}

double Windowed::percentile_us(double q) const {
  std::vector<double> v;
  for (const Hist& h : hists_) {
    if (static_cast<double>(h.count()) * (1.0 - q) >= 10.0) {
      v.push_back(h.percentile_us(q));
    }
  }
  if (v.empty()) {
    Hist pooled;
    for (const Hist& h : hists_) pooled.merge(h);
    return pooled.percentile_us(q);
  }
  return quantile(std::move(v), kFastShare);
}

double Windowed::rate() const {
  std::vector<double> v;
  for (const std::uint64_t n : ops_) {
    v.push_back(static_cast<double>(n) / (static_cast<double>(window_ns_) / 1e9));
  }
  return quantile(std::move(v), 1.0 - kFastShare);
}

std::string Windowed::spread_us(double q) const {
  std::vector<double> v;
  for (const Hist& h : hists_) {
    if (h.count() > 0) v.push_back(h.percentile_us(q));
  }
  char buf[96];
  std::snprintf(buf, sizeof buf, "%.4g / %.4g / %.4g over %zu windows",
                quantile(v, 0.1), quantile(v, 0.5), quantile(v, 0.9), v.size());
  return buf;
}

std::uint64_t Windowed::count() const {
  std::uint64_t n = 0;
  for (const Hist& h : hists_) n += h.count();
  return n;
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  for (Metric& m : metrics) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics.push_back({name, value, unit});
}

double Report::get(const std::string& name) const {
  for (const Metric& m : metrics) {
    if (m.name == name) return m.value;
  }
  return 0.0;
}

std::uint64_t Report::attempted() const {
  std::uint64_t n = 0;
  for (const auto& [key, c] : ops) n += c.sent;
  return n;
}

std::uint64_t Report::failed() const {
  std::uint64_t n = 0;
  for (const auto& [key, c] : ops) n += c.failed;
  return n;
}

double rss_peak_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int live_threads() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "Threads:") {
      int n = 0;
      status >> n;
      return n;
    }
  }
  return 0;
}

int host_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

std::string hex64(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double second_best(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v.size() == 1 ? v[0] : v[v.size() - 2];
}

}  // namespace perfbench
