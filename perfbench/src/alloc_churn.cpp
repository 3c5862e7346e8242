// alloc_churn: a batch scheduler that waits for each placement decision on
// a machine whose faults evict running jobs. One writer thread interleaves
// job submits and virtual ticks with fault batches applied through a
// thread-free `svc::IngestEngine`, whose on_publish hook feeds
// `alloc::AllocEngine::observe_epoch`; one reader polls the allocator's
// published view and the serving snapshot.

#include <algorithm>
#include <atomic>
#include <limits>
#include <memory>
#include <thread>

#include "alloc/oracle.hpp"
#include "check/oracle.hpp"
#include "svc/ingest.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr std::int32_t kSide = 64;
constexpr double kFaultFrac = 0.01;
constexpr std::size_t kWindow = 32;
constexpr std::size_t kJobPool = 65536;
constexpr std::int32_t kMaxJobSide = 8;
constexpr std::uint32_t kMinLife = 4;
constexpr std::uint32_t kMaxLife = 24;
constexpr std::size_t kTickEvery = 16;
/// Deterministic warm phase: submits, and a fault batch every this many.
constexpr std::size_t kWarmSubmits = 4096;
constexpr std::size_t kWarmFaultEvery = 32;
/// Events per fault batch. Fault batches are paced by job count, one every
/// kFaultEvery submits, so the machine's state trajectory is a function of
/// the seed alone: paced by wall time, a faster run would see fewer faults
/// per job and a different placement cost mix.
constexpr std::size_t kFaultBatch = 2;
constexpr std::size_t kFaultEvery = 32;
/// Upper bound on measured submits per second, for sizing the stream.
constexpr double kMaxSubmitRate = 40000.0;
/// Phase B: events applied in batches of kBurstBatch as fast as possible.
constexpr std::size_t kBurstEvents = 18432;
constexpr std::size_t kBurstBatch = 16;
constexpr double kReserveSeconds = 0.8;
/// Freshness windows hold ~450 events each.
constexpr double kFreshWindowS = 0.5;
/// Reader mix weights: status, region, route, batch-of-8 status reads.
constexpr int kWStatus = 40, kWRegion = 30, kWRoute = 5, kWBatch = 25;
constexpr std::size_t kReaderPool = 64;
constexpr std::uint64_t kViewEvery = 64;

/// Boundary-fit, with room enough that no job is rejected or shed: a job
/// that outlives its eviction budget or finds the admission queue full
/// would be a failed operation, and how many there are would depend on how
/// many submits the run's wall time allowed.
ocp::alloc::AllocConfig alloc_config() {
  ocp::alloc::AllocConfig c;
  c.strategy = ocp::alloc::StrategyKind::BoundaryFit;
  c.queue_capacity = 4096;
  c.max_retries = std::numeric_limits<std::uint32_t>::max();
  return c;
}

struct ReaderResult {
  /// Measured phase only, windowed; ops are answers.
  Windowed latency{kWindowS};
  Hist route_hit;
  Hist route_miss;
  std::uint64_t requests = 0;
  /// Folds every answer so the reads cannot be optimized away.
  std::uint64_t sink = 0;
  bool monotone = true;
};

}  // namespace

void Placement::submit(const alloc::JobRequest& job, OpCount& ops) {
  const std::int64_t t0 = now_ns();
  alloc::SubmitResult r;
  {
    Span span(trace, L::AllocSubmit);
    r = engine.submit(job);
  }
  const std::int64_t t1 = now_ns();
  latency.add_ns(t1 - t0);
  if (windows != nullptr) windows->add(t1, t1 - t0);
  ++submits;
  ++ops.sent;
  if (r.outcome == alloc::SubmitOutcome::Rejected) {
    ++ops.failed;
  } else {
    ++ops.ok;
  }
  peak_util = std::max(peak_util, engine.utilization());
  const std::size_t depth = engine.pending().size();
  if (depth >= depth_counts.size()) depth_counts.resize(depth + 1, 0);
  ++depth_counts[depth];
  if (submits % tick_every == 0) {
    const std::int64_t k0 = now_ns();
    {
      Span span(trace, L::AllocTick);
      static_cast<void>(engine.tick());
    }
    tick_latency.add_ns(now_ns() - k0);
    peak_util = std::max(peak_util, engine.utilization());
  }
}

double Placement::queue_depth_p99() const {
  const auto rank = static_cast<std::uint64_t>(0.99 * static_cast<double>(submits));
  std::uint64_t seen = 0;
  for (std::size_t d = 0; d < depth_counts.size(); ++d) {
    seen += depth_counts[d];
    if (seen > rank) return static_cast<double>(d);
  }
  return 0.0;
}

Report run_alloc_churn(const RunConfig& cfg) {
  Report report;
  ThreadTrace* writer_tt = thread_trace(cfg.tracer);
  const mesh::Mesh2D machine(kSide, kSide);

  // -- inputs --------------------------------------------------------------
  Rng master(cfg.seed);
  Rng fault_rng(master());
  Rng stream_rng(master());
  Rng job_rng(master());
  Rng pool_rng(master());
  const std::uint64_t reader_seed = master();
  const grid::CellSet initial = uniform_faults(machine, kFaultFrac, fault_rng);
  const double measured_s = std::max(0.5, cfg.seconds - kReserveSeconds);
  const auto measured_ns = static_cast<std::int64_t>(measured_s * 1e9);
  const std::size_t warm_events = kWarmSubmits / kWarmFaultEvery * kFaultBatch;
  const auto max_batches =
      static_cast<std::size_t>(measured_s * kMaxSubmitRate) / kFaultEvery;
  const std::size_t measured_events = max_batches * kFaultBatch;
  const std::vector<svc::FaultEvent> events = event_stream(
      initial, warm_events + measured_events + kBurstEvents, kWindow, stream_rng);
  const std::vector<alloc::JobRequest> jobs =
      job_stream(kJobPool, kMaxJobSide, kMinLife, kMaxLife, job_rng);
  const auto pool = route_pool(initial, kReaderPool, pool_rng);
  const std::span<const svc::FaultEvent> warm(events.data(), warm_events);
  const std::span<const svc::FaultEvent> measured(events.data() + warm_events,
                                                  measured_events);
  report.note("initial_faults_digest", hex64(digest(initial)));
  report.note("event_stream_digest", hex64(digest(events)));
  report.note("job_digest", hex64(digest(jobs)));
  report.note("route_pool_digest", hex64(digest(pool)));

  // -- set-up: epoch 0 published and the allocator ready -------------------
  svc::IngestConfig ingest_config;
  ingest_config.definition = kDefinition;
  SetupSampler setup([&initial, setup_config = ingest_config] {
    const svc::IngestEngine probe(initial, setup_config);
    const alloc::AllocEngine probe_alloc(*probe.snapshot(), alloc_config());
  });
  setup.maybe_sample();

  Freshness fresh(measured, std::vector<std::int64_t>(measured_events, 0),
                  events.size() + 2);
  std::unique_ptr<alloc::AllocEngine> engine;
  Hist observe_latency;
  std::uint64_t epochs = 0, pages_copied = 0, pages_shared = 0;
  std::uint64_t routes_carried = 0, routes_invalidated = 0;
  ingest_config.on_publish = [&](const svc::Snapshot& snap,
                                 std::span<const mesh::Coord> dirty) {
    fresh.on_publish(snap);
    ++epochs;
    pages_copied += snap.page_stats().copied;
    pages_shared += snap.page_stats().shared;
    routes_carried += snap.cache_carry_stats().carried;
    routes_invalidated += snap.cache_carry_stats().invalidated;
    if (!engine) return;
    const std::int64_t t0 = now_ns();
    {
      Span span(writer_tt, L::AllocObserve);
      static_cast<void>(engine->observe_epoch(snap, dirty));
    }
    observe_latency.add_ns(now_ns() - t0);
  };
  svc::IngestEngine ingest(initial, ingest_config);
  engine = std::make_unique<alloc::AllocEngine>(*ingest.snapshot(), alloc_config());

  // -- reader --------------------------------------------------------------
  std::atomic<bool> stop{false};
  /// Measured-phase start, published to the reader once known.
  std::atomic<std::int64_t> m_start{0};
  ReaderResult rr;
  ThreadTrace* reader_tt = thread_trace(cfg.tracer);
  std::thread reader([&] {
    Rng rng(reader_seed);
    const auto nodes = static_cast<std::size_t>(machine.node_count());
    constexpr int total = kWStatus + kWRegion + kWRoute + kWBatch;
    std::uint64_t last_epoch = 0;
    std::uint64_t last_view_epoch = 0;
    std::uint64_t last_tick = 0;
    Freshness::Probe probe;
    std::uint64_t request = 0;
    bool windows_started = false;
    std::uint64_t& sink = rr.sink;
    while (!stop.load(std::memory_order_relaxed)) {
      ++request;
      const int pick = static_cast<int>(below(rng, total));
      const mesh::Coord node = machine.coord(below(rng, nodes));
      const std::int64_t t0 = now_ns();
      std::uint64_t answers = 1;
      const svc::Snapshot* snap = nullptr;
      {
        Span span(reader_tt, L::QueryAcquire, request);
        snap = &ingest.acquire();
        if (snap->epoch() < last_epoch) rr.monotone = false;
        fresh.probe(*snap, probe);
        last_epoch = snap->epoch();
      }
      // The view slot is a shared_mutex the writer takes exclusively after
      // every state change; a reader re-acquiring it back to back slowed
      // the writer's submits by half, so the reader polls it every
      // kViewEvery requests.
      if (request % kViewEvery == 0) {
        Span span(reader_tt, L::AllocView, request);
        const std::shared_ptr<const alloc::AllocView> view = engine->view();
        if (view->epoch < last_view_epoch || view->tick < last_tick) {
          rr.monotone = false;
        }
        last_view_epoch = view->epoch;
        last_tick = view->tick;
      }
      if (pick < kWStatus) {
        Span span(reader_tt, L::QueryStatus, request);
        sink += static_cast<std::uint64_t>(snap->status_of(node));
      } else if (pick < kWStatus + kWRegion) {
        Span span(reader_tt, L::QueryRegion, request);
        sink += static_cast<std::uint64_t>(snap->region_id_of(node) + 1);
      } else if (pick < kWStatus + kWRegion + kWRoute) {
        const auto& [src, dst] = pool[skewed(rng, pool.size())];
        const std::uint64_t misses = snap->route_cache().misses();
        if (reader_tt != nullptr) reader_tt->begin(L::QueryRoute, request);
        sink += static_cast<std::uint64_t>(snap->route(src, dst).hops());
        if (reader_tt != nullptr) {
          const std::int64_t dur = reader_tt->end();
          (snap->route_cache().misses() > misses ? rr.route_miss : rr.route_hit)
              .add_ns(dur);
        }
      } else {
        Span span(reader_tt, L::QueryBatch, request);
        for (int k = 0; k < 8; ++k) {
          sink += static_cast<std::uint64_t>(
              snap->status_of(machine.coord(below(rng, nodes))));
        }
        answers = 8;
      }
      if (!windows_started) {
        if (const std::int64_t m = m_start.load(std::memory_order_acquire); m != 0) {
          rr.latency.start(m, measured_ns);
          windows_started = true;
        }
      }
      const std::int64_t t1 = now_ns();
      rr.latency.add(t1, t1 - t0, answers);
      ++rr.requests;
    }
  });
  int peak_threads = live_threads();

  // -- phase W: deterministic warm-up; sets peak_util ------------------------
  std::size_t job_cursor = 0;
  std::uint64_t job_cycle = 0;
  const auto next_job = [&] {
    alloc::JobRequest job = jobs[job_cursor];
    job.id += job_cycle * kJobPool;
    if (++job_cursor == jobs.size()) {
      job_cursor = 0;
      ++job_cycle;
    }
    return job;
  };
  std::size_t warm_pos = 0;
  Placement warm_place{*engine, nullptr, kTickEvery};
  OpCount& warm_ops = report.op("W", "job");
  for (std::size_t i = 0; i < kWarmSubmits; ++i) {
    warm_place.submit(next_job(), warm_ops);
    if ((i + 1) % kWarmFaultEvery == 0) {
      static_cast<void>(ingest.apply(warm.subspan(warm_pos, kFaultBatch)));
      warm_pos += kFaultBatch;
    }
  }
  report.metric("alloc.peak_util", warm_place.peak_util, "ratio");
  const alloc::AllocStats warm_stats = engine->stats();
  const std::uint64_t patched0 = engine->index().cells_patched();
  const std::uint64_t epochs0 = epochs;

  // -- phase M: closed-loop jobs, a fault batch every kFaultEvery submits --
  // A batch falls due when the submit that completes its group starts; it
  // runs late by that submit and any tick after it.
  Windowed place_windows(kWindowS);
  Placement place{*engine, writer_tt, kTickEvery};
  place.windows = &place_windows;
  OpCount& m_ops = report.op("M", "job");
  Hist late;
  std::size_t next_batch = 0;
  const std::int64_t m0 = now_ns();
  place_windows.start(m0, measured_ns);
  fresh.start(m0);
  m_start.store(m0, std::memory_order_release);
  const std::int64_t m_end = m0 + measured_ns;
  for (std::int64_t t = m0; t < m_end; t = now_ns()) {
    setup.maybe_sample();
    const bool batch_falls_due = (place.submits + 1) % kFaultEvery == 0;
    place.submit(next_job(), m_ops);
    if (!batch_falls_due || next_batch == max_batches) continue;
    const std::int64_t start = now_ns();
    late.add_ns(start - t);
    ++report.sends;
    if (static_cast<double>(start - t) > kLateBoundUs * 1e3) ++report.late_sends;
    for (std::size_t k = 0; k < kFaultBatch; ++k) {
      fresh.set_due(next_batch * kFaultBatch + k, t - m0);
    }
    Span span(writer_tt, L::IngestApply);
    static_cast<void>(
        ingest.apply(measured.subspan(next_batch * kFaultBatch, kFaultBatch)));
    ++next_batch;
  }
  const std::int64_t m1 = now_ns();
  const std::uint64_t epochs_m = epochs - epochs0;
  const std::uint64_t patched_m = engine->index().cells_patched() - patched0;

  // -- phase B: fault burst through the hooked ingest engine ------------------
  // The stream continues right after the last measured batch sent.
  const std::size_t applied_before_burst = warm_events + next_batch * kFaultBatch;
  const std::span<const svc::FaultEvent> burst(events.data() + applied_before_burst,
                                               kBurstEvents);
  OpCount& b_ops = report.op("B", "event");
  std::vector<double> segment_eps;
  const std::size_t segment = burst.size() / kBurstSegments;
  for (std::size_t k = 0; k < kBurstSegments; ++k) {
    const std::int64_t s0 = now_ns();
    for (std::size_t pos = k * segment; pos < (k + 1) * segment; pos += kBurstBatch) {
      const auto batch =
          burst.subspan(pos, std::min(kBurstBatch, (k + 1) * segment - pos));
      const svc::BatchOutcome out = ingest.apply(batch);
      b_ops.sent += batch.size();
      b_ops.ok += out.applied;
      b_ops.failed += batch.size() - out.applied;
    }
    segment_eps.push_back(static_cast<double>(segment) /
                          (static_cast<double>(now_ns() - s0) / 1e9));
  }
  peak_threads = std::max(peak_threads, live_threads());

  for (int i = 0; i < 2000 && fresh.unobserved(next_batch * kFaultBatch) > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  // -- end-to-end metrics ----------------------------------------------------
  Windowed fresh_h(kFreshWindowS);
  fresh_h.start(m0, measured_ns);
  Hist publish_h, pickup_h;
  fresh.collect(next_batch * kFaultBatch, fresh_h, publish_h, pickup_h);
  OpCount& q_ops = report.op("W+M+B", "query");
  q_ops.sent = rr.requests;
  q_ops.ok = rr.requests;
  const alloc::AllocStats& st = engine->stats();
  OpCount& ev_ops = report.op("M+B", "eviction");
  ev_ops.sent = st.evicted - warm_stats.evicted;
  ev_ops.failed = st.shed - warm_stats.shed;
  ev_ops.ok = ev_ops.sent - ev_ops.failed;
  setup.report(report);
  report.note("place_p50_windows_us", place_windows.spread_us(0.5));
  report.note("query_p50_windows_us", rr.latency.spread_us(0.5));
  report.note("reader_answers_per_s", std::to_string(rr.latency.rate()));
  report.metric("ops_per_s", place_windows.rate(), "ops/s");
  report.metric("op_p50_us", place_windows.percentile_us(0.50), "us");
  report.metric("op_p99_us", place_windows.percentile_us(0.99), "us");
  report.metric("fresh_p50_us", fresh_h.percentile_us(0.50), "us");
  report.metric("fresh.total_us_p99", fresh_h.percentile_us(0.99), "us");
  report.metric("ingest.burst_eps", second_best(segment_eps), "events/s");
  report.note("measured_seconds", std::to_string(static_cast<double>(m1 - m0) / 1e9));
  report.note("measured_submits", std::to_string(place.submits));
  report.note("fault_batches", std::to_string(next_batch));
  report.note("query_samples", std::to_string(rr.latency.count()));
  if (fresh.unobserved(next_batch * kFaultBatch) > 0) {
    report.invalid.push_back(std::to_string(fresh.unobserved(next_batch * kFaultBatch)) +
                             " measured events never observed by the reader");
  }
  const double late_p99 = late.percentile_us(0.99);

  // -- correctness gate at quiesce --------------------------------------------
  const std::shared_ptr<const svc::Snapshot> final_snap = ingest.snapshot();
  const grid::CellSet expected = apply_events(
      initial, std::span<const svc::FaultEvent>(events.data(),
                                                applied_before_burst + b_ops.sent));
  report.gate(final_snap->faults() == expected,
              "final fault set differs from the generated stream's");
  const auto rebuilt = svc::Snapshot::build(
      0, ocp::labeling::MaintainedLabeling(expected, kDefinition));
  report.gate(final_snap->label_digest() == rebuilt->label_digest(),
              "final label_digest differs from a fresh build");
  const ocp::check::ViolationReport violations =
      final_snap->validate(kDefinition, ocp::check::kAllChecks);
  report.gate(violations.ok(), "validate: " + violations.to_string());
  report.gate(rr.monotone, "the reader saw a decreasing epoch or tick");
  const ocp::check::ViolationReport alloc_v =
      alloc::check_engine(*engine, *final_snap);
  report.gate(alloc_v.ok(), "check_engine: " + alloc_v.to_string());
  report.note("final_label_digest", hex64(final_snap->label_digest()));
  report.note("placement_digest", hex64(engine->placement_digest()));

  // -- per-layer ---------------------------------------------------------------
  const svc::IngestStats is = ingest.stats();
  const double ep = std::max<double>(1.0, static_cast<double>(epochs));
  report.metric("queue.depth_p99", 0.0, "events");
  report.metric("queue.overloaded", 0.0, "count");
  report.metric("ingest.events_per_batch",
                static_cast<double>(is.events) /
                    std::max<double>(1.0, static_cast<double>(is.batches)),
                "events");
  report.metric("ingest.applied_ratio",
                static_cast<double>(is.applied) /
                    std::max<double>(1.0, static_cast<double>(is.events)),
                "ratio");
  report.metric("snapshot.pages_copied_per_epoch",
                static_cast<double>(pages_copied) / ep, "pages");
  report.metric("snapshot.page_share_ratio",
                static_cast<double>(pages_shared) /
                    std::max<double>(1.0, static_cast<double>(pages_copied +
                                                              pages_shared)),
                "ratio");
  report.metric("snapshot.routes_carried_per_epoch",
                static_cast<double>(routes_carried) / ep, "routes");
  report.metric("snapshot.routes_invalidated_per_epoch",
                static_cast<double>(routes_invalidated) / ep, "routes");
  const double hits = static_cast<double>(rr.route_hit.count());
  const double misses = static_cast<double>(rr.route_miss.count());
  report.metric("route.hit_ratio", hits / std::max(1.0, hits + misses), "ratio");
  report.metric("route.hit_us_p50", rr.route_hit.percentile_us(0.5), "us");
  report.metric("route.miss_us_p50", rr.route_miss.percentile_us(0.5), "us");
  report.metric("route.cache_entries",
                static_cast<double>(routes_carried + routes_invalidated) / ep,
                "routes");
  report.metric("alloc.submit_us_p50", place.latency.percentile_us(0.50), "us");
  report.metric("alloc.submit_us_p99", place.latency.percentile_us(0.99), "us");
  report.metric("alloc.observe_epoch_us_p50", observe_latency.percentile_us(0.50), "us");
  report.metric("alloc.observe_epoch_us_p99", observe_latency.percentile_us(0.99), "us");
  report.metric("alloc.tick_us_p50", place.tick_latency.percentile_us(0.50), "us");
  report.metric("alloc.cells_patched_per_epoch",
                static_cast<double>(patched_m) /
                    std::max<double>(1.0, static_cast<double>(epochs_m)),
                "cells");
  report.metric("alloc.evicted", static_cast<double>(st.evicted), "count");
  report.metric("alloc.replaced_ratio",
                static_cast<double>(st.replaced) /
                    std::max<double>(1.0, static_cast<double>(st.evicted)),
                "ratio");
  report.metric("alloc.queue_depth_p99", place.queue_depth_p99(), "jobs");
  report.metric("fresh.publish_us_p99", publish_h.percentile_us(0.99), "us");
  report.metric("fresh.pickup_us_p99", pickup_h.percentile_us(0.99), "us");
  report.metric("loadgen.late_p99_us", late_p99, "us");

  if (cfg.tracer != nullptr) {
    ReplaySpec replay;
    replay.initial = &initial;
    replay.events = events;
    replay.batch = kFaultBatch;
    replay.pool = pool;
    replay.lookups_per_batch = kReaderPool;
    replay.seconds = std::max(0.3, 0.25 * cfg.seconds);
    replay.alloc_on_hook = true;
    replay.seed = cfg.seed;
    run_replay(replay, *cfg.tracer, report);
  }
  finish_report(report, peak_threads);
  return report;
}

}  // namespace perfbench
