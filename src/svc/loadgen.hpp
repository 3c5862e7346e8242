// Deterministic closed-loop load generator for both serving fronts, and
// the seeded churn blocks every driver in the repository shares.
//
// One seeded master RNG forks independent streams — initial fault pattern,
// churn event stream, one stream per query thread — with the same
// `fork_trial_seeds` discipline as the netsim load sweeps, so every run is
// reproducible from (config, seed). A writer thread replays the event
// stream through the front's `submit` with closed-loop backpressure (an
// `Overloaded` verdict retries rather than drops, so the final fault set —
// and therefore the final published labeling — is a pure function of the
// stream, independent of timing and of how many query threads race it).
// Query threads hammer the query front with a seeded mix of status /
// region / route / batch queries, recording per-query latency histograms
// and checking that the epochs they observe never decrease (per shard on a
// `ShardedService`). `run_svc_load` and `run_sharded_load` are one loop;
// only how a batch reports its epochs differs between the fronts.
//
// Timing-derived outputs (qps, percentiles, epochs-published) vary run to
// run; the replay-identity outputs (`stream_digest`, `final_digest`,
// `final_faults`) are bit-identical for any query-thread count and for
// either front — the property the stress and sharded suites pin down.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "stats/rng.hpp"
#include "svc/backoff.hpp"
#include "svc/service.hpp"
#include "svc/sharded_service.hpp"

namespace ocp::svc {

struct SvcLoadConfig {
  std::int32_t mesh_side = 32;
  mesh::Topology topology = mesh::Topology::Mesh;
  /// Initial fault count labeled before serving starts (epoch 0).
  std::size_t initial_faults = 10;
  /// Churn events replayed while queries run.
  std::size_t events = 128;
  /// Fraction of events that repair a currently-faulty node (when one
  /// exists); the rest inject faults (possibly duplicates).
  double repair_fraction = 0.45;
  std::size_t query_threads = 2;
  std::size_t queries_per_thread = 2000;
  /// Every Nth query is a batched query of `batch_size` items.
  std::size_t batch_every = 16;
  std::size_t batch_size = 8;
  std::uint64_t seed = 1;
  /// Writer-side reaction to `Overloaded` verdicts: seeded capped
  /// exponential backoff instead of a yield spin. The default unbounded
  /// retry budget preserves replay identity (no event is ever shed); a
  /// finite budget turns sustained overload into typed shedding, counted in
  /// `SvcLoadResult::submits_shed`.
  BackoffPolicy submit_backoff;
  ServiceConfig service;
};

/// What a quiesced front serves, as the closed loop and the chaos schedule
/// runner both report it. The single-writer service reports itself as a
/// one-shard fleet.
struct QuiescedState {
  /// `label_digest` of the final snapshot, or on a fleet the composite
  /// digest (comparable 1:1 with the single-writer run of the same stream).
  std::uint64_t final_digest = 0;
  /// Faulty cells, each read from its owning shard's snapshot.
  std::size_t final_faults = 0;
  /// Every shard's final epoch, and the highest of them.
  std::vector<std::uint64_t> shard_epochs;
  std::uint64_t final_epoch = 0;
  /// Epochs published, summed over the shards; depends on how events
  /// batched.
  std::uint64_t epochs_published = 0;
  /// Halo exchange volume (gossip overhead of the sharding; 0 on the
  /// single-writer service).
  std::uint64_t halo_deltas = 0;
  std::uint64_t halo_events = 0;
  /// Bounded-staleness watermark (`Service::stale_epochs_pending`; a fleet
  /// reports 0).
  std::uint64_t stale_epochs_pending = 0;
};

[[nodiscard]] QuiescedState quiesced_state(const Service& service);
[[nodiscard]] QuiescedState quiesced_state(const ShardedService& fleet);

/// Outcome of one closed-loop run on either serving front. Of the quiesced
/// state, `final_digest` and `final_faults` are replay-identical (pure
/// functions of the stream); epochs and halo volume vary run to run.
/// Epoch monotonicity is checked per shard: a query's epoch is its owning
/// shard's, and different shards' epochs are incomparable by design.
struct SvcLoadResult : QuiescedState {
  // -- timing-derived (vary run to run) -----------------------------------
  std::size_t queries_ok = 0;
  std::size_t queries_rejected = 0;
  /// Individual answers delivered inside batched queries.
  std::size_t batch_items = 0;
  std::uint64_t submit_retries = 0;
  /// Total backoff the writer slept across all retries (microseconds), and
  /// events abandoned after exhausting a finite retry budget (always 0 with
  /// the default unbounded budget — the replay-identity invariant depends
  /// on it).
  std::uint64_t submit_backoff_us = 0;
  std::uint64_t submits_shed = 0;
  double wall_seconds = 0.0;
  /// Individual answers (single queries + batch items) per second.
  double qps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  /// Latency samples beyond the histogram range (tail truncation marker).
  std::uint64_t latency_overflow = 0;

  // -- replay identity (bit-identical for any query-thread count) ---------
  /// FNV-1a over the generated event stream.
  std::uint64_t stream_digest = 0;

  // -- serving invariants --------------------------------------------------
  /// Every query thread observed per-shard monotone epochs.
  bool epochs_monotone = true;
};

/// Runs the closed-loop workload to completion (all events applied, all
/// queries answered) and reports throughput, tail latency and the replay
/// digests.
[[nodiscard]] SvcLoadResult run_svc_load(const SvcLoadConfig& config);

/// The same closed loop against a `ShardedService`: identical (config,
/// seed) produces the identical event stream, so `final_digest` here must
/// equal the single-writer run's (`config.service` is ignored; the fleet
/// shape comes from `service`).
[[nodiscard]] SvcLoadResult run_sharded_load(
    const SvcLoadConfig& config, const ShardedServiceConfig& service);

/// Canned profiles shared by the bench harness (`bench/svc_load`) and the
/// experiments table so both measure the same workloads.
///
/// Query-dominant steady state: light churn under a heavy query front (the
/// default SvcLoadConfig rates at `query_threads` threads).
[[nodiscard]] SvcLoadConfig query_heavy_profile(std::size_t query_threads);
/// Ingest-dominant: 8x the churn, a light query front — stresses epoch
/// turnover (incremental relabeling + copy-on-write publication).
[[nodiscard]] SvcLoadConfig ingest_heavy_profile(std::size_t query_threads);
/// Mixed-rate: heavy churn AND a full query front racing it — the regime
/// where route-cache carry-over and page sharing pay off together.
[[nodiscard]] SvcLoadConfig mixed_rate_profile(std::size_t query_threads);

/// The seeded churn stream the generator replays, exposed for tests that
/// drive `IngestEngine::apply` directly with deterministic batching.
[[nodiscard]] std::vector<FaultEvent> generate_event_stream(
    const mesh::Mesh2D& machine, const grid::CellSet& initial_faults,
    std::size_t events, double repair_fraction, std::uint64_t seed);

/// FNV-1a digest of an event stream.
[[nodiscard]] std::uint64_t event_stream_digest(
    const std::vector<FaultEvent>& events);

// ---------------------------------------------------------------------------
// Building blocks shared by every seeded churn driver: this closed loop, the
// chaos harness and schedule explorers, and the allocation drivers.

/// The seeded churn a driver replays: machine, initial faults (labeled as
/// epoch 0), the event stream with its digest, and the net fault set after
/// the whole stream (events are state-setting, so this shadow replay is the
/// expected end state however the stream is batched, delayed or replayed).
struct SeededChurn {
  mesh::Mesh2D machine;
  grid::CellSet initial;
  std::vector<FaultEvent> stream;
  std::uint64_t stream_digest = 0;
  grid::CellSet net_faults;
  /// The master RNG after the two standard forks (initial faults, then
  /// stream); drivers fork their own streams (query threads, jobs, ...)
  /// from here, so every driver's digests agree for the same seed.
  stats::Rng master;
};

[[nodiscard]] SeededChurn seeded_churn(std::int32_t mesh_side,
                                       mesh::Topology topology,
                                       std::size_t initial_faults,
                                       std::size_t events,
                                       double repair_fraction,
                                       std::uint64_t seed);

enum class SubmitVerdict : std::uint8_t { Accepted, Closed, Exhausted };

/// Submits `event` to a `Service` or `ShardedService`, retrying `Overloaded` verdicts
/// under `backoff` until accepted, the queue closes, or the policy's retry
/// budget is spent (0 = never). `retries` and `slept_us` accumulate; what a
/// refusal means (shed, or an invariant violation) is the caller's policy.
template <class Front>
SubmitVerdict submit_with_backoff(Front& front, const FaultEvent& event,
                                  const BackoffPolicy& backoff,
                                  std::uint64_t& retries,
                                  std::uint64_t& slept_us);

/// One query of the closed-loop mix: 50% status, 30% region, 20% route
/// (source drawn before destination), uniform over the machine.
[[nodiscard]] QueryItem random_query_item(const mesh::Mesh2D& machine,
                                          stats::Rng& rng);

/// A single answered query and the epoch it observed, with the shard whose
/// epoch that is (a route's is its source owner's; always 0 on `Service`).
struct QueryStep {
  QueryStatus status = QueryStatus::Ok;
  std::uint64_t epoch = 0;
  std::uint32_t shard = 0;
};

/// Draws one `random_query_item` and runs it as a single query on `front`
/// (a `Service` or `ShardedService`).
template <class Front>
QueryStep random_query(const Front& front, const mesh::Mesh2D& machine,
                       stats::Rng& rng);

/// `label_digest` of a clean labeling of `faults`: what a front must
/// publish once it has applied any stream whose net fault set this is.
[[nodiscard]] std::uint64_t clean_label_digest(const grid::CellSet& faults,
                                               const IngestConfig& ingest);

[[nodiscard]] inline std::uint32_t shard_count(const Service&) { return 1; }
[[nodiscard]] inline std::uint32_t shard_count(const ShardedService& fleet) {
  return fleet.shard_grid().count();
}

/// Per-shard epoch monotonicity of the answers one reader observed.
class EpochTracker {
 public:
  explicit EpochTracker(std::uint32_t shards) : last_(shards, 0) {}
  [[nodiscard]] std::uint64_t last(std::uint32_t shard) const {
    return last_[shard];
  }
  /// Records `epoch` for `shard`; false when it went backwards.
  bool note(std::uint32_t shard, std::uint64_t epoch) {
    const bool monotone = epoch >= last_[shard];
    last_[shard] = std::max(last_[shard], epoch);
    return monotone;
  }

 private:
  std::vector<std::uint64_t> last_;
};

}  // namespace ocp::svc
