#include "chaos/schedule.hpp"

#include <algorithm>
#include <memory>

#include "check/shrink.hpp"

namespace ocp::chaos {

namespace {

/// Retries past this bound mean the schedule live-locked the submitter
/// (e.g. a crashed writer never restarted while the queue filled) — that is
/// itself an invariant violation, reported instead of hung on.
constexpr std::uint64_t kSubmitRetryLimit = 100000;

/// The single-writer repro alphabet, indexed by `OpKind`.
constexpr std::array<OpLetter, 7> kOpAlphabet = {{{'S', true},
                                                  {'P', false},
                                                  {'R', false},
                                                  {'F', false},
                                                  {'Q', true},
                                                  {'Y', false},
                                                  {'K', false}}};

// -- The front-specific half of a schedule run, in one place: plan wiring,
// writer lifecycle and what a quiesced front reports. --------------------

/// The single writer runs under the config's plan; a fleet gets one plan
/// per shard that injects nothing until a KillShard op arms a kill on it.
std::vector<std::unique_ptr<FaultPlan>> make_plans(
    const ScheduleConfig& config, const mesh::Mesh2D&) {
  std::vector<std::unique_ptr<FaultPlan>> plans;
  plans.push_back(std::make_unique<FaultPlan>(config.plan));
  return plans;
}
std::vector<std::unique_ptr<FaultPlan>> make_plans(
    const ShardedScheduleConfig& config, const mesh::Mesh2D& machine) {
  std::vector<std::unique_ptr<FaultPlan>> plans;
  const svc::ShardGrid grid(machine, config.service.shard_rows,
                            config.service.shard_cols);
  for (std::uint32_t s = 0; s < grid.count(); ++s) {
    plans.push_back(
        std::make_unique<FaultPlan>(PlanSpec{.seed = config.seed + s}));
  }
  return plans;
}

void install_plans(svc::ServiceConfig& config,
                   const std::vector<std::unique_ptr<FaultPlan>>& plans) {
  config.ingest.chaos.plan = plans.front().get();
}
void install_plans(svc::ShardedServiceConfig& config,
                   const std::vector<std::unique_ptr<FaultPlan>>& plans) {
  config.shard_chaos.clear();
  for (const auto& plan : plans) config.shard_chaos.push_back({plan.get()});
}

bool crashed(const svc::Service& service) { return service.ingest_crashed(); }
bool crashed(const svc::ShardedService& fleet) {
  return fleet.any_shard_crashed();
}

bool restart(svc::Service& service, std::uint32_t) {
  return service.restart_ingest();
}
bool restart(svc::ShardedService& fleet, std::uint32_t shard) {
  return fleet.restart_shard(shard);
}

/// Restarts crashed writers and flushes until none is down; returns the
/// restarts. The bound is defensive: one pass suffices once disarmed.
template <class Front>
std::uint64_t restart_until_alive(Front& front) {
  std::uint64_t restarts = 0;
  for (int i = 0; i < 8; ++i) {
    for (std::uint32_t s = 0; s < svc::shard_count(front); ++s) {
      if (restart(front, s)) ++restarts;
    }
    front.flush();
    if (!crashed(front)) break;
  }
  return restarts;
}

/// One schedule execution: the seeded churn, the front under its plans,
/// and the invariant bookkeeping every op shares.
template <class Front, class Config>
class Execution {
 public:
  explicit Execution(const Config& config)
      : config_(config),
        churn_(svc::seeded_churn(config.mesh_side, mesh::Topology::Mesh,
                                 config.initial_faults, config.events,
                                 config.repair_fraction, config.seed)),
        query_rng_(churn_.master.fork_seed()),
        plans_(make_plans(config, churn_.machine)),
        front_(churn_.initial, front_config()),
        epochs_(svc::shard_count(front_)) {}

  ScheduleResult run(const auto& schedule) {
    for (const auto& op : schedule) apply(op);
    // Quiesce: no further injections (an armed kill that never fired
    // becomes a no-op), every event delivered, writers back, backlogs
    // drained, withheld publications retried.
    for (const auto& plan : plans_) plan->disarm();
    submit(churn_.stream.size() - next_event_);
    result_.restarts += quiesce(front_);
    finish();
    return std::move(result_);
  }

 private:
  auto front_config() const {
    auto config = config_.service;
    // Room for the whole stream plus crash-requeued backlogs: genuine
    // Overloaded must be impossible so the only denials are chaos's.
    config.queue_capacity =
        std::max(config.queue_capacity, 2 * config_.events + 64);
    install_plans(config, plans_);
    return config;
  }

  void violate(std::string what) {
    result_.violations.push_back(std::move(what));
  }

  void note_epoch(std::uint32_t shard, std::uint64_t epoch,
                  const char* where) {
    const std::uint64_t last = epochs_.last(shard);
    if (!epochs_.note(shard, epoch)) {
      std::ostringstream msg;
      msg << where << ": shard " << shard << " epoch went backwards (" << last
          << " -> " << epoch << ")";
      violate(msg.str());
    }
  }

  void submit(std::size_t n) {
    const svc::BackoffPolicy backoff{.seed = config_.seed,
                                     .retry_budget = kSubmitRetryLimit};
    std::uint64_t slept_us = 0;
    for (; n > 0 && next_event_ < churn_.stream.size(); --n, ++next_event_) {
      switch (svc::submit_with_backoff(front_, churn_.stream[next_event_],
                                       backoff, result_.submit_retries,
                                       slept_us)) {
        case svc::SubmitVerdict::Accepted: continue;
        case svc::SubmitVerdict::Closed:
          violate("submit: queue reported Closed while the service runs");
          return;
        case svc::SubmitVerdict::Exhausted:
          violate("submit: live-locked retrying an Overloaded verdict");
          return;
      }
    }
  }

  void query(std::size_t n) {
    for (std::size_t q = 0; q < n; ++q) {
      const svc::QueryStep step =
          svc::random_query(front_, churn_.machine, query_rng_);
      if (step.status != svc::QueryStatus::Ok) {
        // Degraded-mode guarantee: valid point queries answer from the
        // owner's last good epoch no matter what chaos does to the write
        // side or to a sibling shard.
        std::ostringstream msg;
        msg << "query: expected Ok, got " << svc::to_string(step.status);
        violate(msg.str());
        ++result_.queries_rejected;
      } else {
        ++result_.queries_ok;
        note_epoch(step.shard, step.epoch, "query");
      }
    }
  }

  void flush() {
    front_.flush();
    if (!crashed(front_) && front_.stats().queue_depth != 0) {
      violate("flush: returned with a non-empty queue and a live writer");
    }
  }

  void apply(const Op& op) {
    switch (op.kind) {
      case OpKind::Submit: submit(op.count); break;
      case OpKind::Pause: front_.pause(); break;
      case OpKind::Resume: front_.resume(); break;
      case OpKind::Flush: flush(); break;
      case OpKind::Query: query(op.count); break;
      case OpKind::RetryPublish: front_.retry_publish(); break;
      case OpKind::Restart:
        if (front_.restart_ingest()) ++result_.restarts;
        break;
    }
  }

  void apply(const ShardedOp& op) {
    const std::uint32_t target = op.shard % svc::shard_count(front_);
    switch (op.kind) {
      case ShardedOpKind::Submit: submit(op.count); break;
      case ShardedOpKind::Flush: flush(); break;
      case ShardedOpKind::Query: query(op.count); break;
      case ShardedOpKind::KillShard:
        // Arm the kill at the victim's next publish, then push a burst: the
        // burst is what makes the victim publish (and die) while neighbors
        // keep draining the halo deltas its last good batches emitted.
        plans_[target]->arm_kill(front_.stats().shard_epochs[target] + 1);
        submit(op.count);
        break;
      case ShardedOpKind::RestartShard:
        if (front_.restart_shard(target)) ++result_.restarts;
        break;
    }
  }

  void finish() {
    static_cast<svc::QuiescedState&>(result_) = svc::quiesced_state(front_);
    for (std::uint32_t s = 0; s < result_.shard_epochs.size(); ++s) {
      note_epoch(s, result_.shard_epochs[s], "final");
    }
    for (const auto& plan : plans_) {
      const PlanStats stats = plan->stats();
      result_.injected.denies += stats.denies;
      result_.injected.duplicates += stats.duplicates;
      result_.injected.defers += stats.defers;
      result_.injected.stalls += stats.stalls;
      result_.injected.poisons += stats.poisons;
      result_.injected.kills += stats.kills;
    }
    result_.expected_digest =
        svc::clean_label_digest(churn_.net_faults, config_.service.ingest);
    if (result_.final_digest != result_.expected_digest) {
      std::ostringstream msg;
      msg << "digest: final labeling diverged from the net fault set ("
          << std::hex << result_.final_digest << " != "
          << result_.expected_digest << std::dec << ", "
          << result_.final_faults << " vs " << churn_.net_faults.size()
          << " faults)";
      violate(msg.str());
    }
    if (result_.stale_epochs_pending != 0) {
      violate("staleness: watermark non-zero after quiesce");
    }
  }

  const Config& config_;
  svc::SeededChurn churn_;
  stats::Rng query_rng_;
  std::vector<std::unique_ptr<FaultPlan>> plans_;
  Front front_;
  svc::EpochTracker epochs_;
  std::size_t next_event_ = 0;
  ScheduleResult result_;
};

}  // namespace

std::uint16_t random_burst(stats::Rng& rng, std::size_t max_burst) {
  return static_cast<std::uint16_t>(rng.uniform_int(
      1, static_cast<std::int64_t>(std::max<std::size_t>(1, max_burst))));
}

std::vector<Op> generate_schedule(std::uint64_t seed, std::size_t ops,
                                  std::size_t max_burst) {
  // Submit/query heavy so most schedules actually move state; barriers and
  // lifecycle ops are spice, not the meal.
  static constexpr std::array<std::pair<double, OpKind>, 7> kMix = {
      {{0.32, OpKind::Submit}, {0.64, OpKind::Query}, {0.74, OpKind::Flush},
       {0.82, OpKind::Pause}, {0.92, OpKind::Resume},
       {0.96, OpKind::RetryPublish}, {1.0, OpKind::Restart}}};
  stats::Rng rng(seed);
  std::vector<Op> schedule(ops);
  for (Op& op : schedule) {
    op.kind = pick_kind(kMix, rng.uniform());
    if (kOpAlphabet[static_cast<std::size_t>(op.kind)].counted) {
      op.count = random_burst(rng, max_burst);
    }
  }
  return schedule;
}

std::vector<ShardedOp> generate_sharded_schedule(std::uint64_t seed,
                                                 std::size_t ops,
                                                 std::uint32_t shards,
                                                 std::size_t max_burst) {
  // Kill/restart ops are frequent by single-writer standards: the whole
  // point of the sharded explorer is shards dying mid-gossip.
  static constexpr std::array<std::pair<double, ShardedOpKind>, 5> kMix = {
      {{0.34, ShardedOpKind::Submit}, {0.62, ShardedOpKind::Query},
       {0.74, ShardedOpKind::Flush}, {0.87, ShardedOpKind::KillShard},
       {1.0, ShardedOpKind::RestartShard}}};
  stats::Rng rng(seed);
  std::vector<ShardedOp> schedule(ops);
  for (ShardedOp& op : schedule) {
    op.kind = pick_kind(kMix, rng.uniform());
    if (op.kind != ShardedOpKind::Flush &&
        op.kind != ShardedOpKind::RestartShard) {
      op.count = random_burst(rng, max_burst);
    }
    if (op.kind == ShardedOpKind::KillShard ||
        op.kind == ShardedOpKind::RestartShard) {
      op.shard = static_cast<std::uint8_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(std::max<std::uint32_t>(1, shards)) - 1));
    }
  }
  return schedule;
}

ScheduleResult run_schedule(const ScheduleConfig& config,
                            const std::vector<Op>& schedule) {
  return Execution<svc::Service, ScheduleConfig>(config).run(schedule);
}

ScheduleResult run_schedule(const ShardedScheduleConfig& config,
                            const std::vector<ShardedOp>& schedule) {
  return Execution<svc::ShardedService, ShardedScheduleConfig>(config)
      .run(schedule);
}

std::uint64_t quiesce(svc::Service& service) {
  service.resume();
  const std::uint64_t restarts = restart_until_alive(service);
  service.retry_publish();
  service.flush();
  return restarts;
}

std::uint64_t quiesce(svc::ShardedService& fleet) {
  return restart_until_alive(fleet);
}

std::vector<Op> shrink_schedule(const ScheduleConfig& config,
                                std::vector<Op> schedule, std::size_t* runs,
                                ScheduleOracle oracle) {
  std::size_t executed = 0;
  const auto fails = [&](const std::vector<Op>& candidate) {
    ++executed;
    if (oracle) return oracle(config, candidate);
    return !run_schedule(config, candidate).ok();
  };
  // Not a failing schedule: nothing to shrink.
  if (fails(schedule)) schedule = check::ddmin(std::move(schedule), fails);
  if (runs) *runs = executed;
  return schedule;
}

std::string to_string(const std::vector<Op>& schedule) {
  return render_ops(schedule, kOpAlphabet);
}

std::optional<std::vector<Op>> parse_schedule(std::string_view text) {
  return parse_ops<Op>(text, kOpAlphabet);
}

}  // namespace ocp::chaos
