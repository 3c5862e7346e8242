// The long-lived serving runtime: one ingest thread, many query threads.
//
// `Service` owns the bounded event queue, the single-writer `IngestEngine`
// and the ingest thread that connects them, and exposes the multi-threaded
// query front. The read path is wait-free against the writer: a query
// acquires the current RCU-published snapshot, answers against that one
// consistent epoch, and releases it — queries running concurrently with a
// publication simply see the previous epoch. Overload degrades gracefully
// at both edges instead of stalling:
//
//  * ingest — `submit` returns a typed `Overloaded` verdict when the
//    bounded queue is full (the caller chooses retry/shed/backoff);
//  * queries — an optional in-flight cap returns `Overloaded` instead of
//    queueing unbounded readers, and batched queries carry a deadline that
//    turns into typed per-item `Timeout` answers.
//
// `pause`/`resume` hold the ingest loop (planned maintenance, deterministic
// overload tests); `flush` barriers until every accepted event is applied
// and published; `wait_for_epoch` gives submitters read-your-writes.
//
// Chaos (src/chaos, disabled by default): an armed `FaultPlan` in the
// ingest config injects failures at every seam of this runtime — admission
// denials in the queue, duplicate/deferred/stalled drain batches in the
// ingest loop, poisoned oracle verdicts that withhold publications, and
// mid-batch kills that terminate the ingest thread after the engine
// crash-recovers to its last published snapshot. A killed service keeps
// answering queries from the last good epoch (bounded staleness is exposed
// via `stale_epochs_pending`); `restart_ingest` brings the writer back and
// replays the crash's requeued backlog to digest-identical convergence.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "svc/ingest.hpp"

namespace ocp::svc {

struct ServiceConfig {
  /// Bounded MPSC admission queue for fault/repair events.
  std::size_t queue_capacity = 1024;
  /// Max events drained into one ingest batch (burst coalescing window).
  std::size_t max_batch = 256;
  /// Query-front admission: maximum concurrently executing queries before
  /// `Overloaded` rejections. 0 = uncapped.
  std::size_t max_inflight_queries = 0;
  /// Start with the ingest loop held (as if `pause()` ran before any event
  /// was drained); call `resume()` to begin applying.
  bool start_paused = false;
  IngestConfig ingest;
};

/// Typed verdict of a query-front call.
enum class QueryStatus : std::uint8_t {
  Ok = 0,
  /// The in-flight cap was reached; the query was not executed.
  Overloaded = 1,
  /// The deadline expired before this (batch item / epoch wait) completed.
  Timeout = 2,
  /// The coordinates do not address machine nodes.
  InvalidArgument = 3,
};

[[nodiscard]] constexpr const char* to_string(QueryStatus s) noexcept {
  switch (s) {
    case QueryStatus::Ok: return "ok";
    case QueryStatus::Overloaded: return "overloaded";
    case QueryStatus::Timeout: return "timeout";
    case QueryStatus::InvalidArgument: return "invalid-argument";
  }
  return "?";
}

struct StatusAnswer {
  QueryStatus status = QueryStatus::Ok;
  std::uint64_t epoch = 0;
  NodeStatus node = NodeStatus::Enabled;
};

struct RegionAnswer {
  QueryStatus status = QueryStatus::Ok;
  std::uint64_t epoch = 0;
  /// Index into the snapshot's disabled-region list, or -1 when enabled.
  std::int32_t region_id = -1;
  std::size_t region_size = 0;
  std::size_t fault_count = 0;
  std::size_t parent_block = 0;
};

struct RouteAnswer {
  QueryStatus status = QueryStatus::Ok;
  std::uint64_t epoch = 0;
  routing::Route route;
};

/// One item of a batched query.
enum class QueryKind : std::uint8_t { Status = 0, Region = 1, Route = 2 };

struct QueryItem {
  QueryKind kind = QueryKind::Status;
  mesh::Coord a;
  /// Route destination (Route items only).
  mesh::Coord b;
};

/// Compact per-item answer of a batch (routes are summarized; fetch the
/// full path with `query_route` when needed).
struct BatchItemAnswer {
  QueryStatus status = QueryStatus::Ok;
  NodeStatus node = NodeStatus::Enabled;
  std::int32_t region_id = -1;
  routing::RouteStatus route_status = routing::RouteStatus::Invalid;
  std::int32_t hops = 0;
};

struct BatchAnswer {
  QueryStatus status = QueryStatus::Ok;  // Ok, Overloaded, or Timeout
  std::uint64_t epoch = 0;
  /// Items actually executed before any deadline expiry.
  std::size_t completed = 0;
  std::vector<BatchItemAnswer> items;
};

/// Query admission for a serving front: caps the queries executing at once
/// (0 = unbounded) and counts the rejections.
class QueryGate {
 public:
  /// RAII admission token: one increment per executing query; a rejected
  /// entry never holds the slot.
  class Ticket {
   public:
    Ticket(const QueryGate& gate, std::size_t cap)
        : gate_(gate), admitted_(gate.admit(cap)) {}
    ~Ticket() {
      if (admitted_) gate_.inflight_.fetch_sub(1, std::memory_order_relaxed);
    }
    Ticket(const Ticket&) = delete;
    Ticket& operator=(const Ticket&) = delete;

    [[nodiscard]] bool admitted() const noexcept { return admitted_; }

   private:
    const QueryGate& gate_;
    bool admitted_;
  };

  [[nodiscard]] std::uint64_t overloads() const noexcept {
    return overloads_.load(std::memory_order_relaxed);
  }

 private:
  [[nodiscard]] bool admit(std::size_t cap) const {
    const std::int64_t running =
        inflight_.fetch_add(1, std::memory_order_relaxed);
    if (cap != 0 && running >= static_cast<std::int64_t>(cap)) {
      inflight_.fetch_sub(1, std::memory_order_relaxed);
      overloads_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    return true;
  }

  mutable std::atomic<std::int64_t> inflight_{0};
  mutable std::atomic<std::uint64_t> overloads_{0};
};

/// Aggregated service health for dashboards and tests.
struct ServiceStats {
  std::uint64_t epoch = 0;
  std::size_t queue_depth = 0;
  std::uint64_t events_accepted = 0;
  std::uint64_t events_rejected = 0;
  std::uint64_t query_overloads = 0;
  /// `Overloaded` verdicts forced by the chaos plan (subset of rejected).
  std::uint64_t chaos_denied = 0;
  /// Bounded-staleness watermark: oracle-withheld publish attempts the
  /// serving epoch is currently behind by (0 = fully fresh).
  std::uint64_t stale_epochs_pending = 0;
  /// Queries answered from a stale (withheld-behind) epoch — the degraded
  /// mode in action: stale answers, never unavailability.
  std::uint64_t stale_queries_served = 0;
  /// True while the ingest thread is down after a chaos kill.
  bool ingest_crashed = false;
  IngestStats ingest;
};

class Service {
 public:
  /// Labels `initial_faults`, publishes epoch 0 and starts the ingest
  /// thread (held when `config.start_paused`).
  explicit Service(grid::CellSet initial_faults, ServiceConfig config = {});
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  // -- ingest edge ---------------------------------------------------------

  /// Admission-controlled event submission (any thread, non-blocking).
  SubmitStatus submit(FaultEvent event);

  /// Blocks until every accepted event has been drained and applied (and
  /// the resulting epoch published). Returns immediately when paused with
  /// an empty queue would deadlock — i.e. flush of a paused service with
  /// pending events resumes it first. Likewise returns (rather than hangs)
  /// when the ingest thread is down after a chaos kill; check
  /// `ingest_crashed()` and `restart_ingest()` to recover, then flush
  /// again.
  void flush();

  /// Holds the ingest loop after the in-flight batch (if any) completes.
  /// Events keep accumulating up to the queue bound, then reject.
  void pause();
  void resume();

  /// Blocks until the serving epoch is >= `epoch` or the timeout expires.
  /// Returns `Timeout` (never hangs) when the epoch is withheld by the
  /// oracle gate or the ingest thread is down after a chaos kill.
  [[nodiscard]] QueryStatus wait_for_epoch(std::uint64_t epoch,
                                           std::chrono::milliseconds timeout);

  /// Nudges the ingest loop to re-attempt a withheld publication without
  /// consuming events (the empty-batch retry path of `IngestEngine::apply`).
  /// No-op when nothing is pending; `flush()` afterwards barriers on the
  /// attempt having run.
  void retry_publish();

  /// True while the ingest thread is down after a chaos kill: submissions
  /// still enqueue (up to the bound) and queries keep answering from the
  /// last published epoch, but nothing drains until `restart_ingest`.
  [[nodiscard]] bool ingest_crashed() const;

  /// Restarts the ingest thread after a chaos kill; the crash's requeued
  /// backlog (already at the queue head) drains first, so the service
  /// converges to the same snapshots an uninterrupted run would publish.
  /// Returns false (and does nothing) when the thread is not crashed.
  bool restart_ingest();

  /// Bounded-staleness watermark (see ServiceStats::stale_epochs_pending).
  [[nodiscard]] std::uint64_t stale_epochs_pending() const {
    return engine_.stale_epochs_pending();
  }

  // -- query front ---------------------------------------------------------

  /// The current snapshot: the zero-copy bulk-read path. Hold it to answer
  /// any number of queries against one consistent epoch.
  [[nodiscard]] std::shared_ptr<const Snapshot> snapshot() const {
    return engine_.snapshot();
  }

  [[nodiscard]] StatusAnswer query_status(mesh::Coord node) const;
  [[nodiscard]] RegionAnswer query_region(mesh::Coord node) const;
  [[nodiscard]] RouteAnswer query_route(mesh::Coord src, mesh::Coord dst) const;
  /// Executes all items against ONE snapshot acquisition. A default (epoch)
  /// deadline means no deadline.
  [[nodiscard]] BatchAnswer query_batch(
      const std::vector<QueryItem>& items,
      std::chrono::steady_clock::time_point deadline = {}) const;

  [[nodiscard]] ServiceStats stats() const;
  [[nodiscard]] const IngestEngine& engine() const noexcept { return engine_; }

 private:
  void ingest_loop();
  /// Counts a query answered while the serving epoch is withheld-behind.
  void note_staleness() const;

  ServiceConfig config_;
  EventQueue queue_;
  IngestEngine engine_;

  mutable std::mutex mu_;
  std::condition_variable wake_;     // ingest loop wakeups
  mutable std::condition_variable progress_;  // flush / wait_for_epoch
  bool paused_ = false;
  bool stopping_ = false;
  bool draining_ = false;  // a batch is between drain and publish
  /// Ingest thread terminated by a chaos kill; restart_ingest clears it.
  bool crashed_ = false;
  /// One-shot publish-retry nudge consumed by the next loop iteration.
  bool retry_publish_ = false;
  /// A chaos-deferred drain batch, re-drained (ahead of new events) on the
  /// next loop iteration. Part of the flush barrier's "accepted but not yet
  /// applied" accounting.
  std::vector<FaultEvent> deferred_;

  QueryGate query_gate_;
  mutable std::atomic<std::uint64_t> stale_queries_served_{0};

  std::thread ingest_thread_;
};

}  // namespace ocp::svc
