// query_steady: a `svc::Service` under open-loop fault churn with
// closed-loop readers (phase A), then an admission-limited burst (phase B).

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>

#include "check/oracle.hpp"
#include "svc/service.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

// Routing and the query front do the work; the large skewed route pool
// keeps ~4K routes cached, so every epoch's carry-over is costly.
constexpr std::int32_t kSide = 64;
constexpr double kFaultFrac = 0.01;
/// Phase A Poisson event rate, events/s: low enough that the ingest thread
/// stays near 20% busy (one epoch costs about 2 ms with ~3K routes cached).
constexpr double kChurnRate = 100.0;
/// No node is touched twice within this many consecutive events; also the
/// service's max_batch, so no batch can coalesce an event away.
constexpr std::size_t kWindow = 64;
constexpr std::size_t kReaders = 2;
constexpr std::size_t kRoutePool = 4096;
/// Request mix weights: status, region, route, batch-of-8. Status and
/// region reads are the fast population (30%), so op_p50_us falls inside
/// the route-hit population, not on the edge between the two; route
/// misses are ~3.5% of all requests, so op_p99_us falls inside the miss
/// population.
constexpr int kWStatus = 15, kWRegion = 15, kWRoute = 60, kWBatch = 10;
/// Phase B: events submitted as fast as admission allows.
constexpr std::size_t kBurstEvents = 18000;
/// Seconds kept for phase B.
constexpr double kReserveSeconds = 0.5;
/// Traced replay: route lookups between batches (one event per batch, as
/// phase A publishes).
constexpr std::size_t kReplayLookups = 4096;
constexpr std::size_t kBatchItems = 8;
constexpr std::uint64_t kYieldEvery = 32;
/// Freshness windows hold ~500 events each: enough for a per-window p50;
/// the p99 has too few samples beyond it per window and is pooled.
constexpr double kFreshWindowS = 5.0;

struct ReaderResult {
  /// Phase A only, windowed; ops are answers.
  Windowed latency{kWindowS};
  Hist route_hit;
  Hist route_miss;
  std::uint64_t requests = 0;
  std::uint64_t failed = 0;
  bool monotone = true;
};

/// What the on_publish hook sees (ingest thread only).
struct PublishTally {
  std::uint64_t epochs = 0;
  std::uint64_t pages_copied = 0;
  std::uint64_t pages_shared = 0;
  std::uint64_t routes_carried = 0;
  std::uint64_t routes_invalidated = 0;
};

void reader_loop(const svc::Service& service,
                 std::span<const std::pair<mesh::Coord, mesh::Coord>> pool,
                 Freshness& fresh, const std::atomic<bool>& stop,
                 std::uint64_t seed, ThreadTrace* tt, ReaderResult& out) {
  Rng rng(seed);
  const mesh::Mesh2D m = service.snapshot()->machine();
  const auto nodes = static_cast<std::size_t>(m.node_count());
  const svc::IngestEngine& engine = service.engine();
  const int total = kWStatus + kWRegion + kWRoute + kWBatch;
  std::vector<svc::QueryItem> items(kBatchItems);
  std::uint64_t last_epoch = 0;
  Freshness::Probe probe;
  std::uint64_t request = 0;
  const auto check_epoch = [&](svc::QueryStatus st, std::uint64_t epoch) {
    if (st != svc::QueryStatus::Ok) ++out.failed;
    if (epoch < last_epoch) out.monotone = false;
    last_epoch = std::max(last_epoch, epoch);
  };
  while (!stop.load(std::memory_order_relaxed)) {
    ++request;
    const int pick = static_cast<int>(below(rng, static_cast<std::size_t>(total)));
    const mesh::Coord node = m.coord(below(rng, nodes));
    const std::int64_t t0 = now_ns();
    std::uint64_t answers = 1;
    std::uint64_t misses_before = 0;
    std::uint64_t epoch_before = 0;
    {
      Span span(tt, L::QueryAcquire, request);
      const svc::Snapshot& snap = engine.acquire();
      if (snap.epoch() < last_epoch) out.monotone = false;
      fresh.probe(snap, probe);
      last_epoch = std::max(last_epoch, snap.epoch());
      epoch_before = snap.epoch();
      misses_before = snap.route_cache().misses();
    }
    if (pick < kWStatus) {
      Span span(tt, L::QueryStatus, request);
      const svc::StatusAnswer a = service.query_status(node);
      check_epoch(a.status, a.epoch);
    } else if (pick < kWStatus + kWRegion) {
      Span span(tt, L::QueryRegion, request);
      const svc::RegionAnswer a = service.query_region(node);
      check_epoch(a.status, a.epoch);
    } else if (pick < kWStatus + kWRegion + kWRoute) {
      const auto& [src, dst] = pool[skewed(rng, pool.size())];
      if (tt != nullptr) tt->begin(L::QueryRoute, request);
      const svc::RouteAnswer a = service.query_route(src, dst);
      if (tt != nullptr) {
        const std::int64_t dur = tt->end();
        // Hit or miss by the change in the epoch cache's miss counter;
        // skipped when a publish intervened. With two readers a concurrent
        // miss by the other reader can label a hit as a miss.
        const svc::Snapshot& after = engine.acquire();
        if (after.epoch() == epoch_before && a.epoch == epoch_before) {
          (after.route_cache().misses() > misses_before ? out.route_miss
                                                        : out.route_hit)
              .add_ns(dur);
        }
      }
      check_epoch(a.status, a.epoch);
    } else {
      for (svc::QueryItem& item : items) {
        const std::size_t k = below(rng, 3);
        if (k == 2) {
          const auto& [src, dst] = pool[skewed(rng, pool.size())];
          item = {svc::QueryKind::Route, src, dst};
        } else {
          item = {k == 0 ? svc::QueryKind::Status : svc::QueryKind::Region,
                  m.coord(below(rng, nodes)), {}};
        }
      }
      Span span(tt, L::QueryBatch, request);
      const svc::BatchAnswer a = service.query_batch(items);
      check_epoch(a.status, a.epoch);
      answers = a.completed;
    }
    const std::int64_t t1 = now_ns();
    out.latency.add(t1, t1 - t0, answers);
    // Readers never block, so on a host with as many cores as threads a
    // waking ingest or generator thread would wait for a scheduler tick;
    // yielding every kYieldEvery requests bounds that wait to tens of us.
    if (++out.requests % kYieldEvery == 0) std::this_thread::yield();
  }
}

double p99_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[static_cast<std::size_t>(0.99 * static_cast<double>(v.size() - 1))];
}

}  // namespace

Report run_query_steady(const RunConfig& cfg) {
  Report report;
  ThreadTrace* main_tt = thread_trace(cfg.tracer);
  const mesh::Mesh2D machine(kSide, kSide);

  // -- inputs --------------------------------------------------------------
  Rng master(cfg.seed);
  Rng fault_rng(master());
  Rng stream_rng(master());
  Rng sched_rng(master());
  Rng pool_rng(master());
  const std::uint64_t reader_seed = master();
  const grid::CellSet initial = uniform_faults(machine, kFaultFrac, fault_rng);
  const double phase_a_s = std::max(0.5, cfg.seconds - kReserveSeconds);
  const std::vector<std::int64_t> due =
      poisson_schedule(kChurnRate, phase_a_s, sched_rng);
  const std::vector<svc::FaultEvent> events =
      event_stream(initial, due.size() + kBurstEvents, kWindow, stream_rng);
  const auto pool = route_pool(initial, kRoutePool, pool_rng);
  const std::span<const svc::FaultEvent> phase_a(events.data(), due.size());
  const std::span<const svc::FaultEvent> phase_b(events.data() + due.size(),
                                                 kBurstEvents);
  report.note("initial_faults_digest", hex64(digest(initial)));
  report.note("event_stream_digest", hex64(digest(events)));
  report.note("schedule_digest", hex64(digest(due)));
  report.note("route_pool_digest", hex64(digest(pool)));
  report.note("phase_a_events", std::to_string(phase_a.size()));
  report.note("phase_b_events", std::to_string(phase_b.size()));

  // -- set-up: initial fault set -> epoch 0 published ------------------------
  // Sampled on the generator thread while it waits for its next send; the
  // thread-free engine keeps the sample from starting a thread.
  svc::ServiceConfig config;
  config.ingest.definition = kDefinition;
  config.max_batch = kWindow;
  SetupSampler setup([&initial, setup_config = config.ingest] {
    const svc::IngestEngine probe(initial, setup_config);
  });
  setup.maybe_sample();

  Freshness fresh(phase_a, due, events.size() + 2);
  // The per-epoch tallies cover phase A only (the burst would swamp them).
  PublishTally tally;
  std::atomic<bool> tallying{true};
  config.ingest.on_publish = [&fresh, &tally, &tallying](
                                 const svc::Snapshot& snap,
                                 std::span<const mesh::Coord>) {
    fresh.on_publish(snap);
    if (!tallying.load(std::memory_order_relaxed)) return;
    ++tally.epochs;
    tally.pages_copied += snap.page_stats().copied;
    tally.pages_shared += snap.page_stats().shared;
    tally.routes_carried += snap.cache_carry_stats().carried;
    tally.routes_invalidated += snap.cache_carry_stats().invalidated;
  };
  svc::Service service(initial, config);

  // -- readers ---------------------------------------------------------------
  // Phase A starts once the readers have run for 10 ms.
  const std::int64_t a0 = now_ns() + 10'000'000;
  const auto phase_a_ns = static_cast<std::int64_t>(phase_a_s * 1e9);
  fresh.start(a0);
  std::atomic<bool> stop{false};
  std::vector<ReaderResult> results(kReaders);
  for (ReaderResult& r : results) r.latency.start(a0, phase_a_ns);
  std::vector<std::thread> readers;
  for (std::size_t r = 0; r < kReaders; ++r) {
    ThreadTrace* tt = thread_trace(cfg.tracer);
    readers.emplace_back([&, r, tt] {
      reader_loop(service, pool, fresh, stop, reader_seed + r, tt,
                  results[r]);
    });
  }
  int peak_threads = live_threads();

  // -- phase A: open-loop Poisson churn --------------------------------------
  Hist late;
  std::vector<double> depth;  // phase A only
  bool sample_depth = true;
  const auto send = [&](const svc::FaultEvent& ev, OpCount& ops) {
    ++ops.sent;
    for (;;) {
      svc::SubmitStatus st;
      {
        Span span(main_tt, L::QueueSubmit);
        st = service.submit(ev);
      }
      if (st == svc::SubmitStatus::Accepted) break;
      if (st == svc::SubmitStatus::Closed) {
        ++ops.failed;
        return;
      }
      ++ops.retried;
      std::this_thread::yield();
    }
    ++ops.ok;
    if (main_tt != nullptr && sample_depth) {
      depth.push_back(static_cast<double>(service.stats().queue_depth));
    }
  };
  // The generator spins until each send falls due: a sender that sleeps
  // on a VM wakes milliseconds late. It yields while it spins, so a waking
  // ingest thread finds a CPU.
  OpCount& a_ops = report.op("A", "event");
  for (std::size_t i = 0; i < phase_a.size(); ++i) {
    const std::int64_t due_abs = a0 + due[i];
    setup.maybe_sample();
    while (now_ns() < due_abs) std::this_thread::yield();
    const std::int64_t late_ns = now_ns() - due_abs;
    late.add_ns(late_ns);
    ++report.sends;
    if (static_cast<double>(late_ns) > kLateBoundUs * 1e3) ++report.late_sends;
    send(phase_a[i], a_ops);
  }
  const std::int64_t a1 = now_ns();
  sample_depth = false;
  tallying.store(false, std::memory_order_relaxed);
  const svc::ServiceStats stats = service.stats();

  // -- phase B: admission-limited burst -------------------------------------
  OpCount& b_ops = report.op("B", "event");
  const std::int64_t b0 = now_ns();
  std::vector<double> segment_eps;
  const std::size_t segment = phase_b.size() / kBurstSegments;
  for (std::size_t k = 0; k < kBurstSegments; ++k) {
    const std::int64_t s0 = now_ns();
    for (const svc::FaultEvent& ev : phase_b.subspan(k * segment, segment)) {
      send(ev, b_ops);
    }
    {
      Span span(main_tt, L::QueueFlush);
      service.flush();
    }
    segment_eps.push_back(static_cast<double>(segment) /
                          (static_cast<double>(now_ns() - s0) / 1e9));
  }
  const std::int64_t b1 = now_ns();
  peak_threads = std::max(peak_threads, live_threads());

  // Let the readers pick up the last epoch, then stop them.
  for (int i = 0; i < 2000 && fresh.unobserved(fresh.size()) > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();

  // -- end-to-end metrics ----------------------------------------------------
  ReaderResult all;
  all.latency.start(a0, phase_a_ns);
  for (ReaderResult& r : results) {
    all.latency.merge(r.latency);
    all.route_hit.merge(r.route_hit);
    all.route_miss.merge(r.route_miss);
    all.requests += r.requests;
    all.failed += r.failed;
    all.monotone = all.monotone && r.monotone;
  }
  OpCount& q_ops = report.op("A+B", "query");
  q_ops.sent = all.requests;
  q_ops.failed = all.failed;
  q_ops.ok = all.requests - all.failed;
  Windowed fresh_h(kFreshWindowS);
  fresh_h.start(a0, phase_a_ns);
  Hist publish_h, pickup_h;
  fresh.collect(fresh.size(), fresh_h, publish_h, pickup_h);
  setup.report(report);
  report.note("query_p50_windows_us", all.latency.spread_us(0.5));
  report.note("fresh_p50_windows_us", fresh_h.spread_us(0.5));
  report.metric("ops_per_s", all.latency.rate(), "ops/s");
  report.metric("op_p50_us", all.latency.percentile_us(0.50), "us");
  report.metric("op_p99_us", all.latency.percentile_us(0.99), "us");
  report.metric("fresh_p50_us", fresh_h.percentile_us(0.50), "us");
  report.metric("fresh.total_us_p99", fresh_h.percentile_us(0.99), "us");
  report.metric("ingest.burst_eps", second_best(segment_eps), "events/s");
  report.note("phase_b_seconds", std::to_string(static_cast<double>(b1 - b0) / 1e9));
  report.note("phase_a_seconds", std::to_string(static_cast<double>(a1 - a0) / 1e9));
  report.note("query_samples", std::to_string(all.latency.count()));
  report.note("fresh_samples", std::to_string(fresh_h.count()));

  if (fresh.unobserved(fresh.size()) > 0) {
    report.invalid.push_back(std::to_string(fresh.unobserved(fresh.size())) +
                             " phase-A events never observed by a reader");
  }
  const double late_p99 = late.percentile_us(0.99);

  // -- correctness gate ------------------------------------------------------
  const std::shared_ptr<const svc::Snapshot> final_snap = service.snapshot();
  const grid::CellSet expected = apply_events(initial, events);
  report.gate(final_snap->faults() == expected,
              "final fault set differs from the generated stream's");
  const auto rebuilt = svc::Snapshot::build(
      0, ocp::labeling::MaintainedLabeling(expected, kDefinition));
  report.gate(final_snap->label_digest() == rebuilt->label_digest(),
              "final label_digest differs from a fresh build");
  const ocp::check::ViolationReport violations =
      final_snap->validate(kDefinition, ocp::check::kAllChecks);
  report.gate(violations.ok(), "validate: " + violations.to_string());
  report.gate(all.monotone, "a reader saw a decreasing epoch");
  report.note("final_label_digest", hex64(final_snap->label_digest()));

  // -- per-layer (traced run) ------------------------------------------------
  const double epochs = std::max<double>(1.0, static_cast<double>(tally.epochs));
  report.metric("queue.depth_p99", p99_of(depth), "events");
  report.metric("queue.overloaded", static_cast<double>(b_ops.retried + a_ops.retried),
                "count");
  report.metric("ingest.events_per_batch",
                static_cast<double>(stats.ingest.events) /
                    std::max<double>(1.0, static_cast<double>(stats.ingest.batches)),
                "events");
  report.metric("ingest.applied_ratio",
                static_cast<double>(stats.ingest.applied) /
                    std::max<double>(1.0, static_cast<double>(stats.ingest.events)),
                "ratio");
  report.metric("snapshot.pages_copied_per_epoch",
                static_cast<double>(tally.pages_copied) / epochs, "pages");
  report.metric("snapshot.page_share_ratio",
                static_cast<double>(tally.pages_shared) /
                    std::max<double>(1.0, static_cast<double>(tally.pages_copied +
                                                              tally.pages_shared)),
                "ratio");
  report.metric("snapshot.routes_carried_per_epoch",
                static_cast<double>(tally.routes_carried) / epochs, "routes");
  report.metric("snapshot.routes_invalidated_per_epoch",
                static_cast<double>(tally.routes_invalidated) / epochs, "routes");
  const double hits = static_cast<double>(all.route_hit.count());
  const double misses = static_cast<double>(all.route_miss.count());
  report.metric("route.hit_ratio", hits / std::max(1.0, hits + misses), "ratio");
  report.metric("route.hit_us_p50", all.route_hit.percentile_us(0.5), "us");
  report.metric("route.miss_us_p50", all.route_miss.percentile_us(0.5), "us");
  // Entries each epoch's adopt found in its predecessor's cache.
  report.metric("route.cache_entries",
                static_cast<double>(tally.routes_carried + tally.routes_invalidated) /
                    epochs,
                "routes");
  report.metric("fresh.publish_us_p99", publish_h.percentile_us(0.99), "us");
  report.metric("fresh.pickup_us_p99", pickup_h.percentile_us(0.99), "us");
  report.metric("loadgen.late_p99_us", late_p99, "us");

  // No allocator runs on this workload.
  report.metric("alloc.submit_us_p50", 0.0, "us");
  report.metric("alloc.submit_us_p99", 0.0, "us");
  report.metric("alloc.tick_us_p50", 0.0, "us");
  report.metric("alloc.evicted", 0.0, "count");
  report.metric("alloc.replaced_ratio", 0.0, "ratio");
  report.metric("alloc.queue_depth_p99", 0.0, "jobs");
  report.metric("alloc.peak_util", 0.0, "ratio");

  // -- traced fault-path replay ------------------------------------------------
  if (cfg.tracer != nullptr) {
    ReplaySpec replay;
    replay.initial = &initial;
    replay.events = events;
    replay.batch = 1;
    replay.pool = pool;
    replay.lookups_per_batch = kReplayLookups;
    replay.seconds = std::max(0.3, 0.25 * cfg.seconds);
    replay.seed = cfg.seed;
    run_replay(replay, *cfg.tracer, report);
  }
  finish_report(report, peak_threads);
  return report;
}


}  // namespace perfbench
