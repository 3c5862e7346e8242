#include "chaos/harness.hpp"

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "analysis/trial_pool.hpp"
#include "chaos/schedule.hpp"

namespace ocp::chaos {

ChaosLoadResult run_chaos_load(const ChaosLoadConfig& config) {
  svc::SeededChurn churn = svc::seeded_churn(
      config.mesh_side, mesh::Topology::Mesh, config.initial_faults,
      config.events, config.repair_fraction, config.seed);
  const std::vector<std::uint64_t> worker_seeds =
      analysis::fork_trial_seeds(churn.master, config.query_threads);

  ChaosLoadResult result;
  // The control: a clean labeling of the net fault set. The chaotic run
  // must publish exactly this however its batches were delivered.
  result.clean_digest =
      svc::clean_label_digest(churn.net_faults, config.service.ingest);

  // The run: armed plan, racing query threads, supervisor restarts.
  FaultPlan plan(config.plan);
  svc::ServiceConfig chaos_config = config.service;
  chaos_config.queue_capacity =
      std::max(chaos_config.queue_capacity, 2 * config.events + 64);
  chaos_config.ingest.chaos.plan = &plan;
  svc::Service service(churn.initial, chaos_config);

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> restarts{0};
  std::atomic<std::uint64_t> max_stale{0};
  // Supervisor: restart a chaos-killed writer, track the staleness
  // high-water mark while the storm runs.
  std::thread monitor([&] {
    while (!done.load(std::memory_order_relaxed)) {
      if (service.ingest_crashed() && service.restart_ingest()) {
        restarts.fetch_add(1, std::memory_order_relaxed);
      }
      const std::uint64_t stale = service.stale_epochs_pending();
      std::uint64_t seen = max_stale.load(std::memory_order_relaxed);
      while (stale > seen &&
             !max_stale.compare_exchange_weak(seen, stale,
                                              std::memory_order_relaxed)) {
      }
      std::this_thread::sleep_for(
          std::chrono::microseconds(std::max(1u, config.monitor_poll_us)));
    }
  });

  struct WorkerRecord {
    std::size_t ok = 0;
    std::size_t rejected = 0;
    bool monotone = true;
  };
  std::vector<WorkerRecord> records(config.query_threads);
  std::vector<std::thread> workers;
  workers.reserve(config.query_threads);
  for (std::size_t t = 0; t < config.query_threads; ++t) {
    workers.emplace_back([&, t] {
      stats::Rng rng(worker_seeds[t]);
      WorkerRecord& rec = records[t];
      svc::EpochTracker epochs(1);
      for (std::size_t q = 0; q < config.queries_per_thread; ++q) {
        const svc::QueryStep step =
            svc::random_query(service, churn.machine, rng);
        if (step.status == svc::QueryStatus::Ok) {
          ++rec.ok;
          if (!epochs.note(step.shard, step.epoch)) rec.monotone = false;
        } else {
          ++rec.rejected;
        }
      }
    });
  }

  svc::BackoffPolicy backoff = config.submit_backoff;
  if (backoff.base_us == 0) backoff.base_us = 2;  // never spin under chaos
  backoff.retry_budget = 0;  // never shed: the digest check needs every event
  std::uint64_t slept_us = 0;
  for (const svc::FaultEvent& event : churn.stream) {
    static_cast<void>(svc::submit_with_backoff(
        service, event, backoff, result.submit_retries, slept_us));
  }

  for (std::thread& worker : workers) worker.join();

  // Drain the accepted backlog with the plan still ARMED: kill stamps are
  // keyed to publish stamps the epoch counter only reaches while the
  // backlog applies, so disarming while events are still queued would gate
  // off any stamp the storm had not reached yet. The supervisor keeps
  // restarting killed writers; this loop just waits (bounded) for the
  // queue to empty, polling instead of flush() so an adversarial plan
  // cannot wedge the barrier.
  for (int i = 0;
       i < 4000 && (service.ingest_crashed() || service.stats().queue_depth > 0);
       ++i) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }

  // Quiesce the chaotic run: stop injecting, let the supervisor catch any
  // in-flight kill, drain, and retry any withheld publication.
  plan.disarm();
  restarts.fetch_add(quiesce(service));
  done.store(true, std::memory_order_relaxed);
  monitor.join();

  const auto snap = service.snapshot();
  result.chaos_digest = snap->label_digest();
  result.chaos_epoch = snap->epoch();
  result.final_faults = snap->faults().size();
  result.digest_match = result.chaos_digest == result.clean_digest;
  result.stale_epochs_pending = service.stale_epochs_pending();
  result.max_stale_pending = max_stale.load(std::memory_order_relaxed);
  result.restarts = restarts.load(std::memory_order_relaxed);
  const svc::ServiceStats stats = service.stats();
  result.chaos_denied = stats.chaos_denied;
  result.stale_queries_served = stats.stale_queries_served;
  for (const WorkerRecord& rec : records) {
    result.queries_ok += rec.ok;
    result.queries_rejected += rec.rejected;
    result.epochs_monotone = result.epochs_monotone && rec.monotone;
  }
  result.injected = plan.stats();
  return result;
}

}  // namespace ocp::chaos
