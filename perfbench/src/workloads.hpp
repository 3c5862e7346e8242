// The two workloads and the pieces they share.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "alloc/engine.hpp"
#include "common.hpp"
#include "streams.hpp"
#include "trace.hpp"

namespace perfbench {

inline constexpr auto kDefinition = ocp::labeling::SafeUnsafeDef::Def2b;
/// Windows of the high-rate metrics (queries, placements), seconds.
inline constexpr double kWindowS = 0.25;
/// Set-up is 0.1-0.3 ms at these sizes, and the host's slow spells last
/// seconds, so set-up is timed once every kSetupEveryS seconds across the
/// measured phase (a first time before it) and reported as the
/// Windowed::kFastShare quantile of the samples.
inline constexpr double kSetupEveryS = 0.2;
/// Open-loop sends may run late by at most this much at p99 before a run
/// is marked invalid.
inline constexpr double kLateBoundUs = 5000.0;
/// The burst behind ingest.burst_eps is a fixed computation, timed as the
/// best of several segments: on a shared host its time swings by 1.5x with
/// co-tenant load, and the slow segments say nothing about the code. It
/// runs as kBurstSegments equal segments, each timed from its first submit
/// to its flush; the metric is the second-best segment rate.
inline constexpr std::size_t kBurstSegments = 9;

/// Times set-up (one call of `build`) on the thread that drives the run.
template <class Build>
class SetupSampler {
 public:
  explicit SetupSampler(Build build) : build_(std::move(build)) {}
  /// Takes a sample when the last one is kSetupEveryS old.
  void maybe_sample() {
    const std::int64_t t = now_ns();
    if (t < next_ns_) return;
    build_();
    const std::int64_t t1 = now_ns();
    samples_.push_back(static_cast<double>(t1 - t) / 1e9);
    next_ns_ = t1 + static_cast<std::int64_t>(kSetupEveryS * 1e9);
  }
  void report(Report& report) const {
    report.metric("setup_s", quantile(samples_, Windowed::kFastShare), "s");
    report.note("setup_samples", std::to_string(samples_.size()));
  }

 private:
  Build build_;
  std::int64_t next_ns_ = 0;
  std::vector<double> samples_;
};

struct RunConfig {
  std::uint64_t seed = 1;
  /// Length of the measured phases, seconds.
  double seconds = 10.0;
  /// Non-null in the traced run.
  Tracer* tracer = nullptr;
};

[[nodiscard]] Report run_query_steady(const RunConfig& cfg);
[[nodiscard]] Report run_alloc_churn(const RunConfig& cfg);

/// Closed-loop placement of `jobs` with a virtual tick every `tick_every`
/// submits. Records place latency, peak utilization and load accounting.
struct Placement {
  alloc::AllocEngine& engine;
  ThreadTrace* trace = nullptr;
  std::size_t tick_every = 16;
  Hist latency;
  /// When set, also records each submit here (alloc_churn's measured phase).
  Windowed* windows = nullptr;
  Hist tick_latency;
  double peak_util = 0.0;
  std::uint64_t submits = 0;
  /// Submits seen at each admission-queue depth.
  std::vector<std::uint64_t> depth_counts;

  void submit(const alloc::JobRequest& job, OpCount& ops);
  [[nodiscard]] double queue_depth_p99() const;
};

/// The single-thread fault-path replay of the traced run. Replica one calls
/// the layers directly (MaintainedLabeling add/remove, Snapshot::next with
/// the tile masks of the dirty cells, AllocEngine::observe_epoch); replica
/// two runs IngestEngine::apply on the same batches, with the allocator on
/// its publish hook. Between batches both replicas answer the same route
/// lookups from the workload's pool so their caches carry what the live run
/// carries. Sets the core.*, snapshot.next_*, ingest.apply_* and
/// ingest.self_us_p50 metrics and the stage-sum check.
struct ReplaySpec {
  const grid::CellSet* initial = nullptr;
  std::span<const svc::FaultEvent> events;
  std::size_t batch = 1;
  std::span<const std::pair<mesh::Coord, mesh::Coord>> pool;
  /// Skewed pool lookups per batch on each replica.
  std::size_t lookups_per_batch = 0;
  double seconds = 1.0;
  /// alloc_churn: the allocator sits on the ingest engine's publish hook,
  /// as in its live run, so observe_epoch is a child of apply, and the
  /// alloc.observe_epoch_* metrics come from the live writer instead.
  /// The serving workloads publish without a hook.
  bool alloc_on_hook = false;
  std::uint64_t seed = 1;
};
/// Share of apply that the layer self times may leave unexplained (either
/// way) before the stage-sum check fails.
inline constexpr double kStageSumBound = 0.25;
void run_replay(const ReplaySpec& spec, Tracer& tracer, Report& report);

/// Adds the shared end metrics: rss_peak_mb, thread-count validity.
void finish_report(Report& report, int peak_threads);

}  // namespace perfbench
