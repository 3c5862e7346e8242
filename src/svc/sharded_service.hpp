// Sharded serving runtime: tile-partitioned multi-writer ingest with halo
// exchange, composite snapshots, and a contention-free query front.
//
// `ShardedService` runs one `Shard` (shard.hpp) per cell of a `ShardGrid`,
// each with its own bounded `EventQueue`, its own worker thread applying
// batches through its own single-writer `IngestEngine`, and its own
// RCU-published snapshot chain. External events route to their owning
// shard's queue by coordinate; halo deltas emitted by one shard's apply are
// delivered synchronously (under the service mutex, before the producer
// clears its draining flag) into the target shards' inboxes, so the flush
// barrier's quiesce predicate is exact: every queue empty, every inbox
// empty, no shard mid-apply — precisely "no in-flight information anywhere",
// the paper's termination condition for its exchange rounds.
//
// Queries never funnel through shared mutable state. A point lookup maps
// the coordinate to its owning shard and acquires that shard's epoch via
// the thread-local one-atomic-load handle (`IngestEngine::acquire`);
// `query_batch` scatter-gathers one batch across shards against a composite
// epoch vector — the per-shard epochs all items of the batch were answered
// at. Cross-shard routes are stitched: each shard's snapshot computes (and
// memoizes, in its per-epoch `RouteCache`) the segment it is authoritative
// for, hops are adopted only after validation against the hopped-onto
// cell's owner, and authority switches at the first disagreement.
//
// `composite_label_digest` folds the per-shard snapshots into the exact
// digest `Snapshot::label_digest()` would produce on a single-writer engine
// fed the same stream: per-cell planes read from each cell's owner, blocks
// and regions deduped across shards by their min-cell-index key (a
// seam-spanning region is extracted identically by every shard that owns a
// piece of it — same converged fault knowledge, same deterministic
// extraction). Digest equality at quiesce is the sharding correctness
// invariant the property tests pin.
//
// `run_sharded_rounds` is the thread-free twin: the same shards driven in
// deterministic barrier-synchronized rounds (apply in parallel, route
// deltas serially by shard index), bit-identical for any OpenMP thread
// count — the form the seam-geometry property tests and the ingest bench
// use.
#pragma once

#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "svc/service.hpp"
#include "svc/shard.hpp"

namespace ocp::svc {

struct ShardedServiceConfig {
  /// Requested shard grid; clamped to the tile grid and to 16 shards total
  /// (see ShardGrid).
  std::int32_t shard_rows = 2;
  std::int32_t shard_cols = 2;
  /// Per-shard queue capacity and drain batch cap (same semantics as
  /// ServiceConfig's).
  std::size_t queue_capacity = 1024;
  std::size_t max_batch = 256;
  /// Service-wide concurrent query cap (0 = unlimited).
  std::size_t max_inflight_queries = 0;
  /// Base engine configuration, shared by every shard. `chaos` applies to
  /// every shard unless overridden below; `collect_applied` is forced on.
  IngestConfig ingest;
  /// Per-shard chaos overrides, indexed by shard; shards beyond the vector
  /// use `ingest.chaos`. This is the per-shard kill/restart point: arm shard
  /// i's plan with publish stamps of shard i only.
  std::vector<chaos::ChaosConfig> shard_chaos;
};

/// One shard's contribution to a scatter-gather answer's consistency
/// vector: the epoch the batch read that shard at.
struct CompositeEpoch {
  std::uint32_t shard = 0;
  std::uint64_t epoch = 0;
};

/// `query_batch` answer: per-item results plus the composite epoch vector
/// (ascending shard order, only shards the batch actually touched).
struct ShardedBatchAnswer {
  QueryStatus status = QueryStatus::Ok;
  std::vector<CompositeEpoch> epochs;
  std::size_t completed = 0;
  std::vector<BatchItemAnswer> items;
};

/// Aggregate health counters across the fleet.
struct ShardedStats {
  std::vector<std::uint64_t> shard_epochs;
  std::size_t queue_depth = 0;  // summed
  std::uint64_t events_accepted = 0;
  std::uint64_t events_rejected = 0;
  std::uint64_t query_overloads = 0;
  /// Halo exchange volume: deltas delivered into inboxes, synthetic events
  /// they expanded to, fixpoint batches that were pure gossip (no external
  /// event). The coordination overhead of the sharding.
  std::uint64_t halo_deltas = 0;
  std::uint64_t halo_events = 0;
  std::size_t shards_crashed = 0;
  IngestStats ingest;  // summed across shards
};

class ShardedService {
 public:
  explicit ShardedService(grid::CellSet initial_faults,
                          ShardedServiceConfig config = {});
  ~ShardedService();

  ShardedService(const ShardedService&) = delete;
  ShardedService& operator=(const ShardedService&) = delete;

  [[nodiscard]] const ShardGrid& shard_grid() const noexcept { return grid_; }
  [[nodiscard]] std::uint32_t shard_of(mesh::Coord c) const noexcept {
    return grid_.shard_of(c);
  }

  /// Routes the event to its owning shard's queue (out-of-machine
  /// coordinates go to shard 0, whose engine counts them invalid — same
  /// never-fatal contract as `Service::submit`).
  SubmitStatus submit(FaultEvent event);

  /// Blocks until the fleet is quiescent: every queue drained, every halo
  /// inbox empty, no shard mid-apply — the fixpoint of the exchange rounds.
  /// Returns early (with `shard_crashed` observable) when any shard's
  /// writer died; recovery is an explicit `restart_shard`.
  void flush();

  [[nodiscard]] bool shard_crashed(std::uint32_t shard) const;
  [[nodiscard]] bool any_shard_crashed() const;
  /// Resurrects shard `shard`'s worker after a chaos kill; replay of the
  /// requeued backlog converges it back (false when it was not crashed).
  bool restart_shard(std::uint32_t shard);

  /// Point queries: one thread-local epoch acquisition on the owning shard,
  /// no shared writes. Answer epochs are the owning shard's.
  [[nodiscard]] StatusAnswer query_status(mesh::Coord node) const;
  [[nodiscard]] RegionAnswer query_region(mesh::Coord node) const;
  /// Cross-shard stitched route (see file comment). The answer's epoch is
  /// the source-owning shard's.
  [[nodiscard]] RouteAnswer query_route(mesh::Coord src, mesh::Coord dst) const;
  [[nodiscard]] ShardedBatchAnswer query_batch(
      const std::vector<QueryItem>& items,
      std::chrono::steady_clock::time_point deadline = {}) const;

  /// Owning snapshot handles of every shard, in shard order (slow path;
  /// tests and the digest use it, queries never do).
  [[nodiscard]] std::vector<std::shared_ptr<const Snapshot>> snapshots() const;
  /// The composite digest at the current instant; equals the single-writer
  /// `label_digest` when called at quiesce (after a clean `flush`).
  [[nodiscard]] std::uint64_t composite_digest() const;

  [[nodiscard]] ShardedStats stats() const;
  [[nodiscard]] const ShardedServiceConfig& config() const noexcept {
    return config_;
  }

 private:
  struct ShardRuntime;
  /// Per-query pin set: at most one acquire per shard per query, so the
  /// whole query reads consistent per-shard epochs and no pinned reference
  /// is retired mid-query (definition in the .cpp).
  struct ShardPinSet;

  void worker_loop(std::uint32_t shard);
  /// Cross-shard route stitching against pinned per-shard epochs.
  [[nodiscard]] routing::Route stitch_route(mesh::Coord src, mesh::Coord dst,
                                            ShardPinSet& pins) const;
  /// Acquires shard `s`'s current snapshot through the calling thread's
  /// epoch handle (valid until this thread's next acquire of the same slot).
  [[nodiscard]] const Snapshot& acquire(std::uint32_t s) const;

  ShardedServiceConfig config_;
  ShardGrid grid_;
  std::vector<std::unique_ptr<ShardRuntime>> shards_;

  /// One mutex for the fleet's control plane (queues' depth checks, halo
  /// inboxes, draining/crash flags). Never on the query path.
  mutable std::mutex mu_;
  std::condition_variable wake_;
  mutable std::condition_variable progress_;
  bool stopping_ = false;
  std::uint64_t halo_deltas_ = 0;  // guarded by mu_
  std::uint64_t halo_events_ = 0;  // guarded by mu_

  QueryGate query_gate_;
};

/// Folds per-shard snapshots (one per `grid` shard, in shard order) into
/// the digest a single-writer `Snapshot::label_digest()` computes over the
/// same converged state: per-cell planes read from each cell's owner,
/// blocks/regions deduped by min-cell-index and regions folded in key
/// order. See file comment for why shards agree on seam-spanning entries.
[[nodiscard]] std::uint64_t composite_label_digest(
    const ShardGrid& grid,
    const std::vector<std::shared_ptr<const Snapshot>>& snapshots);

/// Result of the deterministic round driver.
struct ShardedRoundsResult {
  /// Net fault-set changes applied from the external stream (all shards).
  std::size_t applied = 0;
  /// Synthetic halo-derived events applied (gossip overhead).
  std::size_t halo_events = 0;
  /// Halo deltas exchanged.
  std::size_t halo_deltas = 0;
  /// Exchange rounds until fixpoint.
  std::size_t rounds = 0;
  std::uint64_t composite_digest = 0;
  /// Final per-shard snapshots, in shard order.
  std::vector<std::shared_ptr<const Snapshot>> snapshots;
};

/// Thread-free deterministic multi-writer driver: routes `stream` into
/// per-shard FIFO backlogs, then runs barrier-synchronized rounds — every
/// shard applies one batch (<= max_batch external events plus its whole
/// inbox) with the per-shard applies parallelized over OpenMP threads, then
/// the emitted deltas are routed serially in shard order — until no shard
/// has pending work. Bit-identical for any thread count: shards touch
/// disjoint state during the parallel section and the inter-round delivery
/// order is fixed by shard index.
[[nodiscard]] ShardedRoundsResult run_sharded_rounds(
    const ShardGrid& grid, const grid::CellSet& initial,
    std::span<const FaultEvent> stream, std::size_t max_batch = 256,
    IngestConfig config = {});

}  // namespace ocp::svc
