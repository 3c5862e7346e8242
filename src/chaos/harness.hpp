// Chaos load harness: one chaotic closed-loop run, digest-compared with a
// clean labeling of the net fault set.
//
// `run_chaos_load` replays the seeded churn (`svc::seeded_churn`) through a
// `svc::Service` with an armed chaos plan (denied admissions, duplicated /
// deferred / stalled batches, poisoned oracle verdicts, mid-batch kills
// with restart) while query threads race it, then asserts the
// degraded-mode contract: the final published labeling is bit-identical
// (`label_digest`) to a clean labeling of the stream's net fault set,
// every query thread observed monotone epochs, and the staleness watermark
// drained to zero. A monitor thread plays supervisor: it polls for a
// killed ingest thread and restarts it, the way an init system would
// restart a crashed process.
//
// This is the engine behind the `chaos`-labeled ctests (1/2/8 query
// threads) and the `bench/chaos_soak` CLI's seed sweeps.
#pragma once

#include <cstdint>

#include "chaos/plan.hpp"
#include "svc/loadgen.hpp"

namespace ocp::chaos {

struct ChaosLoadConfig {
  std::int32_t mesh_side = 24;
  std::size_t initial_faults = 8;
  std::size_t events = 192;
  double repair_fraction = 0.45;
  std::size_t query_threads = 2;
  std::size_t queries_per_thread = 400;
  std::uint64_t seed = 1;
  /// Injections for the run.
  PlanSpec plan;
  /// Supervisor poll interval for crashed-writer restarts.
  std::uint32_t monitor_poll_us = 50;
  /// Submit pacing; `retry_budget` is ignored, the run never sheds an event.
  svc::BackoffPolicy submit_backoff;
  svc::ServiceConfig service;
};

struct ChaosLoadResult {
  /// `label_digest` of a clean labeling of the net fault set and of the
  /// chaotic run's final quiesced snapshot; the acceptance invariant is
  /// `digest_match` (chaos changed nothing about the converged state).
  std::uint64_t clean_digest = 0;
  std::uint64_t chaos_digest = 0;
  bool digest_match = false;
  std::size_t final_faults = 0;
  /// The epoch the chaotic run ended at (defers merge batches, withheld
  /// epochs retry); exposed for reporting, not asserted.
  std::uint64_t chaos_epoch = 0;

  /// Chaotic-run observations.
  PlanStats injected;
  std::uint64_t restarts = 0;
  std::uint64_t submit_retries = 0;
  std::uint64_t chaos_denied = 0;
  std::uint64_t stale_queries_served = 0;
  std::uint64_t max_stale_pending = 0;
  std::size_t queries_ok = 0;
  std::size_t queries_rejected = 0;
  bool epochs_monotone = true;
  /// Staleness watermark after quiesce (must be 0).
  std::uint64_t stale_epochs_pending = 0;

  [[nodiscard]] bool ok() const noexcept {
    return digest_match && epochs_monotone && stale_epochs_pending == 0;
  }
};

[[nodiscard]] ChaosLoadResult run_chaos_load(const ChaosLoadConfig& config);

}  // namespace ocp::chaos
