// In-memory span tracing around the driver's own calls into each layer.
//
// Each thread owns a `ThreadTrace`: a stack of open spans, per-layer
// aggregates (count, total and self time, a duration histogram) updated
// as spans close, and a capped buffer of full span records written out as
// JSON lines at exit. Self time is a span's duration minus the time its
// child spans cover. A null `ThreadTrace*` makes every `Span` a no-op, which
// is how the untraced runs call the same code.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

/// Span names: one per call boundary the driver times. The prefix is the
/// repository module that owns the callee.
enum class L : std::uint8_t {
  QueueSubmit,      // svc.queue   Service::submit
  QueueFlush,       // svc.queue   Service::flush
  QueryAcquire,     // svc.query   IngestEngine::acquire
  QueryStatus,      // svc.query   query_status / Snapshot::status_of
  QueryRegion,      // svc.query   query_region / Snapshot::region_of
  QueryRoute,       // routing     query_route / Snapshot::route
  QueryBatch,       // svc.query   query_batch
  IngestApply,      // svc.ingest  IngestEngine::apply
  CoreRelabel,      // core        MaintainedLabeling add/remove
  SnapshotNext,     // svc.snapshot Snapshot::next
  AllocSubmit,      // alloc       AllocEngine::submit
  AllocTick,        // alloc       AllocEngine::tick
  AllocObserve,     // alloc       AllocEngine::observe_epoch
  AllocView,        // alloc       AllocEngine::view
  kCount,
};
inline constexpr std::size_t kLayerCount = static_cast<std::size_t>(L::kCount);

[[nodiscard]] const char* layer_name(L l);

class ThreadTrace {
 public:
  ThreadTrace(std::uint32_t thread_id, std::size_t keep_cap)
      : thread_id_(thread_id), keep_cap_(keep_cap) {}

  void begin(L layer, std::uint64_t request);
  /// Closes the innermost open span; returns its duration in ns.
  std::int64_t end();

  struct Aggregate {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
    Hist duration;
  };
  [[nodiscard]] const std::array<Aggregate, kLayerCount>& aggregates() const {
    return agg_;
  }

  struct Record {
    L layer;
    std::uint32_t thread;
    std::uint64_t id;
    std::uint64_t parent;  // 0 = root
    std::uint64_t request;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  [[nodiscard]] const std::vector<Record>& records() const { return kept_; }

 private:
  struct Open {
    L layer;
    std::uint64_t id;
    std::uint64_t request;
    std::int64_t start_ns;
    std::int64_t child_ns;
  };
  std::uint32_t thread_id_;
  std::size_t keep_cap_;
  std::uint64_t next_id_ = 1;
  std::vector<Open> stack_;
  std::array<Aggregate, kLayerCount> agg_{};
  std::vector<Record> kept_;
};

/// RAII span; a no-op when `trace` is null.
class Span {
 public:
  Span(ThreadTrace* trace, L layer, std::uint64_t request = 0)
      : trace_(trace) {
    if (trace_ != nullptr) trace_->begin(layer, request);
  }
  ~Span() {
    if (trace_ != nullptr) trace_->end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  ThreadTrace* trace_;
};

/// Owns every thread's trace for one traced run.
class Tracer {
 public:
  /// Records kept per thread for the JSON-lines file; aggregates cover all.
  static constexpr std::size_t kKeepPerThread = 50000;

  /// A fresh trace for one thread; stays owned by the tracer.
  ThreadTrace* thread();
  /// Per-layer aggregates merged over every thread.
  [[nodiscard]] std::array<ThreadTrace::Aggregate, kLayerCount> merged() const;
  /// Writes every kept span as one JSON object per line; returns the count.
  std::size_t write_jsonl(const std::string& path) const;
  /// Prints the per-layer table of counts, total and self time.
  void print_table() const;

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadTrace>> threads_;
};

/// Helper for optional tracing: `tracer ? tracer->thread() : nullptr`.
[[nodiscard]] inline ThreadTrace* thread_trace(Tracer* tracer) {
  return tracer != nullptr ? tracer->thread() : nullptr;
}

}  // namespace perfbench
