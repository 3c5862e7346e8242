// Microbenchmarks of the serving runtime (src/svc): ingest churn, the
// query front's hot paths, and the closed-loop load generator end to end.
// Throughput is items_per_second where an item is one applied event
// (ingest) or one delivered answer (queries); the closed-loop benchmarks
// also export the generator's p50/p99 latency as counters, which is where
// the committed qps/p99 table in EXPERIMENTS.md comes from.
#include <benchmark/benchmark.h>

#include <chrono>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "fault/generators.hpp"
#include "svc/loadgen.hpp"
#include "svc/snapshot.hpp"

namespace {

using namespace ocp;

// Fault/repair churn through the single-writer engine: replays a seeded
// 256-event stream in 16-event batches. Items are applied events (net
// fault-set changes). Engine construction (the epoch-0 labeling and
// snapshot) happens outside the measurement region — the numbers are
// epoch-turnover cost only, not construction cost.
void BM_SvcIngestChurn(benchmark::State& state) {
  const auto n = static_cast<std::int32_t>(state.range(0));
  const mesh::Mesh2D m = mesh::Mesh2D::square(n);
  stats::Rng rng(11);
  const auto initial = fault::uniform_random(m, 10, rng);
  const auto stream = svc::generate_event_stream(m, initial, 256, 0.45, 13);

  std::int64_t applied = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto engine = std::make_unique<svc::IngestEngine>(initial);
    state.ResumeTiming();
    for (std::size_t at = 0; at < stream.size(); at += 16) {
      const auto outcome = engine->apply(
          std::span(stream).subspan(at, std::min<std::size_t>(
                                            16, stream.size() - at)));
      applied += static_cast<std::int64_t>(outcome.applied);
    }
    benchmark::DoNotOptimize(engine->snapshot());
    state.PauseTiming();
    engine.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(applied);
  state.SetLabel("items = applied events");
}
BENCHMARK(BM_SvcIngestChurn)->Arg(16)->Arg(32)->Unit(benchmark::kMillisecond);

// Steady-state single-thread query throughput against a fixed snapshot:
// the RCU acquire + O(1) status/region answer path.
void BM_SvcQueryStatus(benchmark::State& state) {
  const mesh::Mesh2D m = mesh::Mesh2D::square(32);
  stats::Rng rng(17);
  svc::Service service(fault::uniform_random(m, 12, rng));

  std::size_t i = 0;
  std::int64_t answered = 0;
  for (auto _ : state) {
    const mesh::Coord c = m.coord(i % static_cast<std::size_t>(m.node_count()));
    i += 131;  // coprime stride: sweep the machine without an RNG in the loop
    const auto answer = service.query_status(c);
    benchmark::DoNotOptimize(answer);
    ++answered;
  }
  state.SetItemsProcessed(answered);
  state.SetLabel("items = answers");
}
BENCHMARK(BM_SvcQueryStatus);

// Route queries against a warmed per-epoch cache: after the first sweep
// every lookup is a shared-lock table hit returning a pooled entry.
void BM_SvcQueryRouteWarm(benchmark::State& state) {
  const mesh::Mesh2D m = mesh::Mesh2D::square(32);
  stats::Rng rng(19);
  svc::Service service(fault::uniform_random(m, 12, rng));

  std::size_t i = 0;
  std::int64_t answered = 0;
  for (auto _ : state) {
    const auto nodes = static_cast<std::size_t>(m.node_count());
    const mesh::Coord src = m.coord(i % 64);  // 64x64 distinct pairs
    const mesh::Coord dst = m.coord(nodes - 1 - (i * 7) % 64);
    i += 1;
    const auto answer = service.query_route(src, dst);
    benchmark::DoNotOptimize(answer);
    ++answered;
  }
  state.SetItemsProcessed(answered);
  state.SetLabel("items = answers");
}
BENCHMARK(BM_SvcQueryRouteWarm);

// Route queries where (nearly) every pair is new: the miss path — route
// computation plus pooled insertion under the exclusive lock. Pairs are
// enumerated so no pair repeats within ~node_count^2 queries, far more
// than a timed run consumes.
void BM_SvcQueryRouteCold(benchmark::State& state) {
  const mesh::Mesh2D m = mesh::Mesh2D::square(32);
  stats::Rng rng(19);
  svc::Service service(fault::uniform_random(m, 12, rng));

  std::size_t i = 0;
  std::int64_t answered = 0;
  const auto nodes = static_cast<std::size_t>(m.node_count());
  for (auto _ : state) {
    const std::size_t src_index = i % nodes;
    const std::size_t stride = 1 + i / nodes;  // new dst sweep per lap
    const mesh::Coord src = m.coord(src_index);
    const mesh::Coord dst = m.coord((src_index + stride) % nodes);
    i += 1;
    const auto answer = service.query_route(src, dst);
    benchmark::DoNotOptimize(answer);
    ++answered;
  }
  state.SetItemsProcessed(answered);
  state.SetLabel("items = answers");
}
BENCHMARK(BM_SvcQueryRouteCold);

// Batched queries: one snapshot acquisition amortized over 8 mixed items.
void BM_SvcQueryBatch8(benchmark::State& state) {
  const mesh::Mesh2D m = mesh::Mesh2D::square(32);
  stats::Rng rng(23);
  svc::Service service(fault::uniform_random(m, 12, rng));
  const std::vector<svc::QueryItem> items = {
      {svc::QueryKind::Status, {1, 1}, {}},
      {svc::QueryKind::Region, {30, 2}, {}},
      {svc::QueryKind::Status, {15, 15}, {}},
      {svc::QueryKind::Route, {0, 0}, {31, 31}},
      {svc::QueryKind::Region, {7, 22}, {}},
      {svc::QueryKind::Status, {29, 30}, {}},
      {svc::QueryKind::Route, {31, 0}, {0, 31}},
      {svc::QueryKind::Status, {3, 27}, {}},
  };

  std::int64_t answered = 0;
  for (auto _ : state) {
    const auto answer = service.query_batch(items);
    benchmark::DoNotOptimize(answer);
    answered += static_cast<std::int64_t>(answer.items.size());
  }
  state.SetItemsProcessed(answered);
  state.SetLabel("items = answers");
}
BENCHMARK(BM_SvcQueryBatch8);

// Shared body for the closed-loop benchmarks: runs the generator to
// completion and reports delivered answers plus the latency histogram.
void run_closed_loop(benchmark::State& state,
                     const svc::SvcLoadConfig& config) {
  std::int64_t answers = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  for (auto _ : state) {
    const svc::SvcLoadResult result = svc::run_svc_load(config);
    // queries_ok counts each batch once; swap that for its delivered items.
    answers += static_cast<std::int64_t>(
        result.queries_ok - result.batch_items / config.batch_size +
        result.batch_items);
    p50 = result.p50_us;
    p99 = result.p99_us;
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(answers);
  state.counters["p50_us"] = p50;
  state.counters["p99_us"] = p99;
  state.SetLabel("items = answers");
}

// The whole runtime under closed-loop load: a writer replaying seeded
// churn against N query threads. Items are delivered answers; the p50/p99
// counters surface the generator's latency histogram (microseconds).
void BM_SvcClosedLoop(benchmark::State& state) {
  run_closed_loop(
      state, svc::query_heavy_profile(static_cast<std::size_t>(state.range(0))));
}
BENCHMARK(BM_SvcClosedLoop)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// Ingest-dominant closed loop: 8x the churn against a light query front —
// throughput here tracks epoch-turnover cost (incremental relabeling and
// copy-on-write publication), not the query hot paths.
void BM_SvcClosedLoopIngestHeavy(benchmark::State& state) {
  run_closed_loop(state, svc::ingest_heavy_profile(
                             static_cast<std::size_t>(state.range(0))));
}
BENCHMARK(BM_SvcClosedLoopIngestHeavy)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// Mixed-rate closed loop: heavy churn AND a full query front racing it —
// the regime where route-cache carry-over and page sharing pay off
// together.
void BM_SvcClosedLoopMixedRate(benchmark::State& state) {
  run_closed_loop(state, svc::mixed_rate_profile(
                             static_cast<std::size_t>(state.range(0))));
}
BENCHMARK(BM_SvcClosedLoopMixedRate)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// Tile-partitioned multi-writer ingest through the deterministic round
// driver: the same seeded 256-event stream as BM_SvcIngestChurn, applied by
// S shards gossiping halo deltas to fixpoint. Items are applied external
// events (halo-derived re-applications are overhead, not work), so the
// items/s column is directly comparable with the single-writer churn
// number; the halo counters quantify what the sharding costs in gossip.
void BM_SvcShardedIngest(benchmark::State& state) {
  const auto shard_count = state.range(0);
  const std::int32_t rows = shard_count >= 4 ? 2 : 1;
  const std::int32_t cols = static_cast<std::int32_t>(shard_count) / rows;
  const mesh::Mesh2D m = mesh::Mesh2D::square(32);
  stats::Rng rng(11);
  const auto initial = fault::uniform_random(m, 10, rng);
  const auto stream = svc::generate_event_stream(m, initial, 256, 0.45, 13);
  const svc::ShardGrid grid(m, rows, cols);

  std::int64_t applied = 0;
  double halo_deltas = 0.0;
  double halo_events = 0.0;
  for (auto _ : state) {
    const svc::ShardedRoundsResult result =
        svc::run_sharded_rounds(grid, initial, stream, 16);
    applied += static_cast<std::int64_t>(result.applied);
    halo_deltas = static_cast<double>(result.halo_deltas);
    halo_events = static_cast<double>(result.halo_events);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(applied);
  state.counters["halo_deltas"] = halo_deltas;
  state.counters["halo_events"] = halo_events;
  state.SetLabel("items = applied external events");
}
BENCHMARK(BM_SvcShardedIngest)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

// The sharded runtime end to end under closed-loop load: S ingest workers
// (one per shard) racing N query threads, queries scatter-gathered against
// the composite epoch vector. Args are (shards, query_threads); the
// 1-shard rows are the degenerate fleet whose gap to BM_SvcClosedLoop is
// the sharding layer's fixed overhead.
void BM_SvcShardedClosedLoop(benchmark::State& state) {
  const auto shard_count = state.range(0);
  svc::ShardedServiceConfig fleet;
  fleet.shard_rows = shard_count >= 4 ? 2 : 1;
  fleet.shard_cols = static_cast<std::int32_t>(shard_count) /
                     fleet.shard_rows;
  const svc::SvcLoadConfig config =
      svc::query_heavy_profile(static_cast<std::size_t>(state.range(1)));

  std::int64_t answers = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  double halo_deltas = 0.0;
  for (auto _ : state) {
    const svc::SvcLoadResult result =
        svc::run_sharded_load(config, fleet);
    answers += static_cast<std::int64_t>(
        result.queries_ok - result.batch_items / config.batch_size +
        result.batch_items);
    p50 = result.p50_us;
    p99 = result.p99_us;
    halo_deltas = static_cast<double>(result.halo_deltas);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(answers);
  state.counters["p50_us"] = p50;
  state.counters["p99_us"] = p99;
  state.counters["halo_deltas"] = halo_deltas;
  state.SetLabel("items = answers");
}
BENCHMARK(BM_SvcShardedClosedLoop)
    ->Args({1, 1})->Args({1, 2})->Args({1, 4})->Args({1, 8})
    ->Args({2, 1})->Args({2, 2})->Args({2, 4})->Args({2, 8})
    ->Args({4, 1})->Args({4, 2})->Args({4, 4})->Args({4, 8})
    ->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

// Epoch turnover against route-cache size: a 64x64 machine at 1% uniform
// faults, one fault toggled per epoch (a fresh node failed, then repaired
// the next epoch), and N random enabled pairs re-warmed into the serving
// epoch before each turnover, outside the timed region. BM_SnapshotNext
// times `Snapshot::next`; BM_SnapshotRetire times dropping the predecessor,
// which reclaims the route-store entries only it could still read. Both use
// manual time, so the re-warm misses never count; `carried` and
// `invalidated` are per-epoch means.
class TurnoverBench {
 public:
  explicit TurnoverBench(std::size_t pairs)
      : machine_(mesh::Mesh2D::square(64)), rng_(21) {
    live_.emplace(fault::uniform_random(machine_, 41, rng_));
    current_ = svc::Snapshot::build(0, *live_);
    while (pairs_.size() < pairs) {
      const mesh::Coord src = random_node();
      const mesh::Coord dst = random_node();
      if (src != dst && current_->status_of(src) == svc::NodeStatus::Enabled &&
          current_->status_of(dst) == svc::NodeStatus::Enabled) {
        pairs_.emplace_back(src, dst);
      }
    }
  }

  /// Re-warms the serving epoch and applies the next toggle to the
  /// labeling; returns the (dirty, padded) tile masks of its delta.
  std::pair<std::uint64_t, std::uint64_t> prepare() {
    for (const auto& [src, dst] : pairs_) (void)current_->route(src, dst);
    labeling::EventDelta delta;
    if (toggled_) {
      delta = live_->remove_fault(*toggled_);
      toggled_.reset();
    } else {
      mesh::Coord node = random_node();
      while (live_->faults().contains(node)) node = random_node();
      delta = live_->add_fault(node);
      toggled_ = node;
    }
    std::uint64_t dirty = 0;
    std::uint64_t padded = 0;
    for (const mesh::Coord c : delta.dirty_cells) {
      dirty |= current_->tiles().bit_of(c);
      padded |= current_->tiles().padded_bits(c);
    }
    return {dirty, padded};
  }

  std::shared_ptr<const svc::Snapshot> next(std::uint64_t dirty,
                                            std::uint64_t padded) {
    return svc::Snapshot::next(*current_, ++epoch_, *live_, dirty, padded);
  }

  /// Installs `next` as the serving epoch; returns the predecessor.
  std::shared_ptr<const svc::Snapshot> publish(
      std::shared_ptr<const svc::Snapshot> next) {
    return std::exchange(current_, std::move(next));
  }

 private:
  mesh::Coord random_node() {
    return {static_cast<std::int32_t>(rng_.uniform_int(0, 63)),
            static_cast<std::int32_t>(rng_.uniform_int(0, 63))};
  }

  mesh::Mesh2D machine_;
  stats::Rng rng_;
  std::optional<labeling::MaintainedLabeling> live_;
  std::shared_ptr<const svc::Snapshot> current_;
  std::vector<std::pair<mesh::Coord, mesh::Coord>> pairs_;
  std::optional<mesh::Coord> toggled_;
  std::uint64_t epoch_ = 0;
};

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

void BM_SnapshotNext(benchmark::State& state) {
  TurnoverBench bench(static_cast<std::size_t>(state.range(0)));
  double carried = 0;
  double invalidated = 0;
  for (auto _ : state) {
    const auto [dirty, padded] = bench.prepare();
    const auto start = std::chrono::steady_clock::now();
    auto next = bench.next(dirty, padded);
    state.SetIterationTime(seconds_since(start));
    carried += static_cast<double>(next->cache_carry_stats().carried);
    invalidated += static_cast<double>(next->cache_carry_stats().invalidated);
    bench.publish(std::move(next));
  }
  state.counters["carried"] =
      benchmark::Counter(carried, benchmark::Counter::kAvgIterations);
  state.counters["invalidated"] =
      benchmark::Counter(invalidated, benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_SnapshotNext)->Arg(0)->Arg(1000)->Arg(4096)->Iterations(200)
    ->UseManualTime()->Unit(benchmark::kMicrosecond);

void BM_SnapshotRetire(benchmark::State& state) {
  TurnoverBench bench(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    const auto [dirty, padded] = bench.prepare();
    std::shared_ptr<const svc::Snapshot> prev =
        bench.publish(bench.next(dirty, padded));
    const auto start = std::chrono::steady_clock::now();
    prev.reset();
    state.SetIterationTime(seconds_since(start));
  }
}
BENCHMARK(BM_SnapshotRetire)->Arg(0)->Arg(1000)->Arg(4096)->Iterations(200)
    ->UseManualTime()->Unit(benchmark::kMicrosecond);

BENCHMARK_MAIN();
