#include "svc/loadgen.hpp"

#include <algorithm>
#include <chrono>
#include <thread>
#include <vector>

#include "analysis/trial_pool.hpp"
#include "fault/generators.hpp"
#include "stats/histogram.hpp"

namespace ocp::svc {

namespace {

using Clock = std::chrono::steady_clock;

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Per-query-thread outcome, written only by its own thread.
struct WorkerRecord {
  std::size_t ok = 0;
  std::size_t rejected = 0;
  std::size_t batches_ok = 0;
  std::size_t batch_items = 0;
  bool epochs_monotone = true;
  stats::Histogram latency_us{0.0, 1000.0, 2000};
};

mesh::Coord random_node(const mesh::Mesh2D& m, stats::Rng& rng) {
  return m.coord(static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(m.node_count()) - 1)));
}

/// The seeded stream, advancing `shadow` — the fault set the service will
/// hold after each event — so repairs target genuinely faulty nodes (most
/// of the time — duplicate faults still occur and exercise coalescing).
std::vector<FaultEvent> churn_stream(const mesh::Mesh2D& machine,
                                     grid::CellSet& shadow, std::size_t events,
                                     double repair_fraction,
                                     std::uint64_t seed) {
  stats::Rng rng(seed);
  std::vector<FaultEvent> stream;
  stream.reserve(events);
  for (std::size_t i = 0; i < events; ++i) {
    if (!shadow.empty() && rng.uniform() < repair_fraction) {
      const auto members = shadow.to_vector();
      const mesh::Coord node = members[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(members.size()) - 1))];
      shadow.erase(node);
      stream.push_back({EventKind::Repair, node});
    } else {
      const mesh::Coord node = random_node(machine, rng);
      shadow.insert(node);  // no-op when already faulty: a duplicate fault
      stream.push_back({EventKind::Fault, node});
    }
  }
  return stream;
}

std::uint32_t owner_shard(const Service&, mesh::Coord) { return 0; }
std::uint32_t owner_shard(const ShardedService& fleet, mesh::Coord node) {
  return fleet.shard_of(node);
}

}  // namespace

SvcLoadConfig query_heavy_profile(std::size_t query_threads) {
  SvcLoadConfig config;
  config.mesh_side = 32;
  config.initial_faults = 10;
  config.events = 128;
  config.query_threads = query_threads;
  config.queries_per_thread = 2000;
  config.seed = 20010423;
  return config;
}

SvcLoadConfig ingest_heavy_profile(std::size_t query_threads) {
  SvcLoadConfig config = query_heavy_profile(query_threads);
  config.events = 1024;
  config.queries_per_thread = 500;
  return config;
}

SvcLoadConfig mixed_rate_profile(std::size_t query_threads) {
  SvcLoadConfig config = query_heavy_profile(query_threads);
  config.events = 512;
  config.queries_per_thread = 2000;
  return config;
}

std::vector<FaultEvent> generate_event_stream(const mesh::Mesh2D& machine,
                                              const grid::CellSet& initial,
                                              std::size_t events,
                                              double repair_fraction,
                                              std::uint64_t seed) {
  grid::CellSet shadow = initial;
  return churn_stream(machine, shadow, events, repair_fraction, seed);
}

std::uint64_t event_stream_digest(const std::vector<FaultEvent>& events) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  for (const FaultEvent& e : events) {
    mix(static_cast<std::uint64_t>(e.kind) + 1);
    mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(e.node.x)) + 1);
    mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(e.node.y)) + 1);
  }
  return h;
}

SeededChurn seeded_churn(std::int32_t mesh_side, mesh::Topology topology,
                         std::size_t initial_faults, std::size_t events,
                         double repair_fraction, std::uint64_t seed) {
  const mesh::Mesh2D machine(mesh_side, mesh_side, topology);
  stats::Rng master(seed);
  stats::Rng fault_rng(master.fork_seed());
  const std::uint64_t stream_seed = master.fork_seed();
  grid::CellSet initial =
      fault::uniform_random(machine, initial_faults, fault_rng);
  grid::CellSet net = initial;
  std::vector<FaultEvent> stream =
      churn_stream(machine, net, events, repair_fraction, stream_seed);
  const std::uint64_t digest = event_stream_digest(stream);
  return {machine,        std::move(initial), std::move(stream),
          digest,         std::move(net),     std::move(master)};
}

template <class Front>
SubmitVerdict submit_with_backoff(Front& front, const FaultEvent& event,
                                  const BackoffPolicy& backoff,
                                  std::uint64_t& retries,
                                  std::uint64_t& slept_us) {
  for (std::uint64_t attempt = 0;; ++attempt) {
    const SubmitStatus status = front.submit(event);
    if (status == SubmitStatus::Accepted) return SubmitVerdict::Accepted;
    // Shutdown raced the submitter; nothing further can be delivered.
    if (status == SubmitStatus::Closed) return SubmitVerdict::Closed;
    if (backoff.retry_budget != 0 && attempt >= backoff.retry_budget) {
      return SubmitVerdict::Exhausted;
    }
    ++retries;
    const std::uint32_t delay_us = backoff_delay_us(backoff, attempt);
    slept_us += delay_us;
    if (delay_us == 0) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
    }
  }
}

QueryItem random_query_item(const mesh::Mesh2D& machine, stats::Rng& rng) {
  const double pick = rng.uniform();
  const QueryKind kind = pick < 0.5   ? QueryKind::Status
                         : pick < 0.8 ? QueryKind::Region
                                      : QueryKind::Route;
  const mesh::Coord src = random_node(machine, rng);
  const mesh::Coord dst =
      kind == QueryKind::Route ? random_node(machine, rng) : mesh::Coord{};
  return {kind, src, dst};
}

template <class Front>
QueryStep random_query(const Front& front, const mesh::Mesh2D& machine,
                       stats::Rng& rng) {
  const QueryItem item = random_query_item(machine, rng);
  QueryStep step{.shard = owner_shard(front, item.a)};
  const auto take = [&step](const auto& answer) {
    step.status = answer.status;
    step.epoch = answer.epoch;
  };
  switch (item.kind) {
    case QueryKind::Status: take(front.query_status(item.a)); break;
    case QueryKind::Region: take(front.query_region(item.a)); break;
    case QueryKind::Route: take(front.query_route(item.a, item.b)); break;
  }
  return step;
}

std::uint64_t clean_label_digest(const grid::CellSet& faults,
                                 const IngestConfig& ingest) {
  const labeling::MaintainedLabeling clean(faults, ingest.definition);
  return Snapshot::build(0, clean, ingest.hand)->label_digest();
}

QuiescedState quiesced_state(const Service& service) {
  const auto snapshot = service.snapshot();
  return {.final_digest = snapshot->label_digest(),
          .final_faults = snapshot->faults().size(),
          .shard_epochs = {snapshot->epoch()},
          .final_epoch = snapshot->epoch(),
          .epochs_published = service.stats().ingest.epochs_published,
          .stale_epochs_pending = service.stale_epochs_pending()};
}

QuiescedState quiesced_state(const ShardedService& fleet) {
  const ShardedStats stats = fleet.stats();
  QuiescedState state{
      .final_digest = fleet.composite_digest(),
      .shard_epochs = stats.shard_epochs,
      .final_epoch = *std::max_element(stats.shard_epochs.begin(),
                                       stats.shard_epochs.end()),
      .epochs_published = stats.ingest.epochs_published,
      .halo_deltas = stats.halo_deltas,
      .halo_events = stats.halo_events};
  const auto snapshots = fleet.snapshots();
  const mesh::Mesh2D& machine = fleet.shard_grid().machine();
  for (std::size_t i = 0; i < static_cast<std::size_t>(machine.node_count());
       ++i) {
    const mesh::Coord c = machine.coord(i);
    if (snapshots[fleet.shard_of(c)]->faults().contains(c)) {
      ++state.final_faults;
    }
  }
  return state;
}

template SubmitVerdict submit_with_backoff(Service&, const FaultEvent&,
                                           const BackoffPolicy&,
                                           std::uint64_t&, std::uint64_t&);
template SubmitVerdict submit_with_backoff(ShardedService&, const FaultEvent&,
                                           const BackoffPolicy&,
                                           std::uint64_t&, std::uint64_t&);
template QueryStep random_query(const Service&, const mesh::Mesh2D&,
                                stats::Rng&);
template QueryStep random_query(const ShardedService&, const mesh::Mesh2D&,
                                stats::Rng&);

namespace {

// How each front's batch answer reports the epochs it read.
bool note_epochs(EpochTracker& epochs, const BatchAnswer& answer) {
  return epochs.note(0, answer.epoch);
}

bool note_epochs(EpochTracker& epochs, const ShardedBatchAnswer& answer) {
  bool monotone = true;
  for (const CompositeEpoch& e : answer.epochs) {
    monotone = epochs.note(e.shard, e.epoch) && monotone;
  }
  return monotone;
}

template <class Front, class FrontConfig>
SvcLoadResult run_closed_loop(const SvcLoadConfig& config,
                              const FrontConfig& front_config) {
  SeededChurn churn =
      seeded_churn(config.mesh_side, config.topology, config.initial_faults,
                   config.events, config.repair_fraction, config.seed);
  const mesh::Mesh2D& machine = churn.machine;
  const auto worker_seeds =
      analysis::fork_trial_seeds(churn.master, config.query_threads);

  SvcLoadResult result;
  result.stream_digest = churn.stream_digest;
  Front front(churn.initial, front_config);

  // Writer: replays the stream in order with closed-loop backpressure.
  // An `Overloaded` verdict retries under the seeded backoff policy instead
  // of spinning; with the default unbounded budget nothing is ever dropped,
  // so (queue FIFO + retry-until-accepted) keeps the final fault set a pure
  // function of the stream. A finite budget sheds instead — accounted, and
  // forfeiting that purity by design.
  std::thread writer([&] {
    for (const FaultEvent& event : churn.stream) {
      if (submit_with_backoff(front, event, config.submit_backoff,
                              result.submit_retries,
                              result.submit_backoff_us) !=
          SubmitVerdict::Accepted) {
        ++result.submits_shed;
      }
    }
  });

  std::vector<WorkerRecord> records(config.query_threads);
  std::vector<std::thread> workers;
  workers.reserve(config.query_threads);
  const auto start = Clock::now();
  for (std::size_t t = 0; t < config.query_threads; ++t) {
    workers.emplace_back([&, t] {
      stats::Rng rng(worker_seeds[t]);
      WorkerRecord& rec = records[t];
      EpochTracker epochs(shard_count(front));
      for (std::size_t q = 0; q < config.queries_per_thread; ++q) {
        const auto begin = Clock::now();
        if (config.batch_every != 0 && q % config.batch_every == 0) {
          std::vector<QueryItem> items(config.batch_size);
          for (QueryItem& item : items) item = random_query_item(machine, rng);
          const auto answer = front.query_batch(items);
          if (answer.status == QueryStatus::Ok) {
            ++rec.ok;
            ++rec.batches_ok;
            rec.batch_items += answer.items.size();
            if (!note_epochs(epochs, answer)) rec.epochs_monotone = false;
          } else {
            ++rec.rejected;
          }
        } else {
          const QueryStep step = random_query(front, machine, rng);
          if (step.status == QueryStatus::Ok) {
            ++rec.ok;
            if (!epochs.note(step.shard, step.epoch)) {
              rec.epochs_monotone = false;
            }
          } else {
            ++rec.rejected;
          }
        }
        rec.latency_us.add(us_between(begin, Clock::now()));
      }
    });
  }

  for (auto& worker : workers) worker.join();
  writer.join();
  // Quiesce: every accepted event applied (and, on a fleet, every halo
  // delta drained) and its epoch published.
  front.flush();
  const auto end = Clock::now();

  // 0.5us buckets: single queries answer in well under a microsecond, and
  // the overflow counter flags any tail past 1ms rather than hiding it.
  stats::Histogram latency{0.0, 1000.0, 2000};
  std::size_t batches_ok = 0;
  for (const WorkerRecord& rec : records) {
    result.queries_ok += rec.ok;
    result.queries_rejected += rec.rejected;
    result.batch_items += rec.batch_items;
    batches_ok += rec.batches_ok;
    result.epochs_monotone = result.epochs_monotone && rec.epochs_monotone;
    latency.merge(rec.latency_us);
  }
  result.wall_seconds = us_between(start, end) / 1e6;
  // Each batch counts once in queries_ok but delivers batch_size answers;
  // throughput counts delivered answers.
  const double answers = static_cast<double>(result.queries_ok - batches_ok +
                                             result.batch_items);
  result.qps = result.wall_seconds > 0 ? answers / result.wall_seconds : 0.0;
  result.p50_us = latency.median();
  result.p99_us = latency.p99();
  result.latency_overflow = latency.overflow();
  static_cast<QuiescedState&>(result) = quiesced_state(front);
  return result;
}

}  // namespace

SvcLoadResult run_svc_load(const SvcLoadConfig& config) {
  return run_closed_loop<Service>(config, config.service);
}

SvcLoadResult run_sharded_load(const SvcLoadConfig& config,
                               const ShardedServiceConfig& service_config) {
  return run_closed_loop<ShardedService>(config, service_config);
}

}  // namespace ocp::svc
