#include <algorithm>
#include <cstdio>
#include <memory>

#include "grid/tiles.hpp"
#include "svc/ingest.hpp"
#include "workloads.hpp"

namespace perfbench {

void run_replay(const ReplaySpec& spec, Tracer& tracer, Report& report) {
  ThreadTrace* tt = tracer.thread();
  Rng rng(spec.seed ^ 0x5eedULL);

  // Replica one: the layers called one by one.
  ocp::labeling::MaintainedLabeling labeling(*spec.initial, kDefinition);
  std::shared_ptr<const svc::Snapshot> snap = svc::Snapshot::build(0, labeling);
  alloc::AllocEngine alloc1(*snap);
  const ocp::grid::TileGrid tiles(snap->machine());

  // Replica two: the ingest engine, allocator on its publish hook.
  std::unique_ptr<alloc::AllocEngine> alloc2;
  std::int64_t observe2_ns = 0;
  svc::IngestConfig config;
  config.definition = kDefinition;
  if (spec.alloc_on_hook) {
    config.on_publish = [&](const svc::Snapshot& s,
                            std::span<const mesh::Coord> dirty) {
      if (!alloc2) return;
      tt->begin(L::AllocObserve, 0);
      static_cast<void>(alloc2->observe_epoch(s, dirty));
      observe2_ns += tt->end();
    };
  }
  svc::IngestEngine engine(*spec.initial, config);
  if (spec.alloc_on_hook) {
    alloc2 = std::make_unique<alloc::AllocEngine>(*engine.snapshot());
  }

  Hist apply_h, relabel_h, next_h, observe_h;
  std::vector<double> self_us;
  std::int64_t sum_apply = 0, sum_children = 0;
  std::uint64_t dirty_cells = 0, relabels = 0, epochs = 0;
  const std::uint64_t patched0 = alloc1.index().cells_patched();
  std::vector<mesh::Coord> cells;
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(spec.seconds * 1e9);
  std::uint64_t request = 0;
  for (std::size_t pos = 0; pos + spec.batch <= spec.events.size() && now_ns() < deadline;
       pos += spec.batch) {
    const auto batch = spec.events.subspan(pos, spec.batch);
    ++request;

    // The replicas alternate which goes first, so neither always finds the
    // other's working set in the CPU caches.
    observe2_ns = 0;
    svc::BatchOutcome out;
    std::int64_t apply_ns = 0;
    const auto run_ingest = [&] {
      tt->begin(L::IngestApply, request);
      out = engine.apply(batch);
      apply_ns = tt->end();
    };
    if (request % 2 == 0) run_ingest();

    std::int64_t relabel_ns = 0;
    std::uint64_t dirty_tiles = 0, padded_tiles = 0;
    cells.clear();
    for (const svc::FaultEvent& ev : batch) {
      tt->begin(L::CoreRelabel, request);
      const ocp::labeling::EventDelta delta = ev.kind == svc::EventKind::Fault
                                                  ? labeling.add_fault(ev.node)
                                                  : labeling.remove_fault(ev.node);
      const std::int64_t ns = tt->end();
      relabel_ns += ns;
      relabel_h.add_ns(ns);
      ++relabels;
      dirty_cells += delta.dirty_cells.size();
      for (const mesh::Coord c : delta.dirty_cells) {
        dirty_tiles |= tiles.bit_of(c);
        padded_tiles |= tiles.padded_bits(c);
      }
      cells.insert(cells.end(), delta.dirty_cells.begin(), delta.dirty_cells.end());
    }
    tt->begin(L::SnapshotNext, request);
    std::shared_ptr<const svc::Snapshot> next = svc::Snapshot::next(
        *snap, snap->epoch() + 1, labeling, dirty_tiles, padded_tiles);
    const std::int64_t next_ns = tt->end();
    next_h.add_ns(next_ns);
    // Retiring the predecessor (freeing its carried routes) happens outside
    // the span, as in the ingest engine, where the last reader drops it.
    snap = std::move(next);
    tt->begin(L::AllocObserve, request);
    static_cast<void>(alloc1.observe_epoch(*snap, cells));
    observe_h.add_ns(tt->end());
    ++epochs;
    if (request % 2 == 1) run_ingest();

    if (out.published) {
      apply_h.add_ns(apply_ns);
      const std::int64_t children = relabel_ns + next_ns + observe2_ns;
      sum_apply += apply_ns;
      sum_children += children;
      self_us.push_back(static_cast<double>(apply_ns - children) / 1000.0);
    }

    // The same skewed route lookups on both replicas, so their caches carry
    // what a live reader keeps warm.
    for (std::size_t k = 0; k < spec.lookups_per_batch; ++k) {
      const auto& [src, dst] = spec.pool[skewed(rng, spec.pool.size())];
      static_cast<void>(snap->route(src, dst));
      static_cast<void>(engine.acquire().route(src, dst));
    }
  }

  report.gate(snap->label_digest() == engine.snapshot()->label_digest(),
              "replay replicas diverged");
  const ocp::check::ViolationReport v = snap->validate(kDefinition);
  report.gate(v.ok(), "replay validate: " + v.to_string());

  report.metric("ingest.apply_us_p50", apply_h.percentile_us(0.50), "us");
  report.metric("ingest.apply_us_p99", apply_h.percentile_us(0.99), "us");
  report.metric("ingest.self_us_p50", median(self_us), "us");
  report.metric("core.relabel_us_p50", relabel_h.percentile_us(0.50), "us");
  report.metric("core.relabel_us_p99", relabel_h.percentile_us(0.99), "us");
  report.metric("core.dirty_cells_per_event",
                static_cast<double>(dirty_cells) /
                    std::max<double>(1.0, static_cast<double>(relabels)),
                "cells");
  report.metric("snapshot.next_us_p50", next_h.percentile_us(0.50), "us");
  report.metric("snapshot.next_us_p99", next_h.percentile_us(0.99), "us");
  if (!spec.alloc_on_hook) {
    report.metric("alloc.observe_epoch_us_p50", observe_h.percentile_us(0.50), "us");
    report.metric("alloc.observe_epoch_us_p99", observe_h.percentile_us(0.99), "us");
    report.metric("alloc.cells_patched_per_epoch",
                  static_cast<double>(alloc1.index().cells_patched() - patched0) /
                      std::max<double>(1.0, static_cast<double>(epochs)),
                  "cells");
  }

  const double explained =
      sum_apply > 0 ? static_cast<double>(sum_children) / static_cast<double>(sum_apply)
                    : 0.0;
  const bool within = std::abs(1.0 - explained) <= kStageSumBound;
  std::printf(
      "stage-sum check: %zu batches of %zu; relabel + snapshot.next%s = "
      "%.1f%% of IngestEngine::apply (bound +/-%.0f%%): %s\n",
      self_us.size(), spec.batch, spec.alloc_on_hook ? " + observe_epoch" : "",
      100.0 * explained, 100.0 * kStageSumBound, within ? "ok" : "FAILED");
  report.note("stage_sum_explained", std::to_string(explained));
  if (!within) {
    report.invalid.push_back("stage-sum check failed: layers explain " +
                             std::to_string(100.0 * explained) + "% of apply");
  }
}

void finish_report(Report& report, int peak_threads) {
  report.metric("rss_peak_mb", rss_peak_mb(), "MB");
  report.note("peak_threads", std::to_string(peak_threads));
  if (peak_threads > host_threads()) {
    report.invalid.push_back("started " + std::to_string(peak_threads) +
                             " threads on a host with " +
                             std::to_string(host_threads()));
  }
}

}  // namespace perfbench
