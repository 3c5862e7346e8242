// Seeded input generators. Everything the library receives in a run comes
// from here: the initial fault set, fault/repair event streams, Poisson
// send schedules, query request mixes and job streams. Generators use
// std::mt19937_64 directly so the inputs of a seed do not change when the
// library's own random helpers do.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <random>
#include <span>
#include <utility>
#include <vector>

#include "alloc/engine.hpp"
#include "common.hpp"
#include "grid/cell_set.hpp"
#include "svc/event_queue.hpp"
#include "svc/snapshot.hpp"

namespace perfbench {

namespace alloc = ocp::alloc;
namespace grid = ocp::grid;
namespace mesh = ocp::mesh;
namespace svc = ocp::svc;

using Rng = std::mt19937_64;

/// Uniform in [0, 1).
[[nodiscard]] double uniform(Rng& rng);
/// Uniform integer in [0, n).
[[nodiscard]] std::size_t below(Rng& rng, std::size_t n);

/// Exactly round(frac * nodes) distinct faulty nodes, uniform.
[[nodiscard]] grid::CellSet uniform_faults(const mesh::Mesh2D& m, double frac,
                                           Rng& rng);

/// Fault/repair events consistent with a running fault set: a fault always
/// names a healthy node and a repair a faulty one, and no node appears
/// twice within `window` consecutive events. Coalescing can therefore never
/// absorb an event, every event changes the served labeling, and "the
/// snapshot reflects event i" is a test on node i's fault bit alone. The
/// fault count drifts around its initial value.
[[nodiscard]] std::vector<svc::FaultEvent> event_stream(
    const grid::CellSet& initial, std::size_t count, std::size_t window,
    Rng& rng);

/// Poisson send times (ns offsets from phase start) at `rate` per second
/// for `seconds`.
[[nodiscard]] std::vector<std::int64_t> poisson_schedule(double rate,
                                                         double seconds,
                                                         Rng& rng);

/// `n` (src, dst) pairs of distinct nodes that are healthy in `faults`,
/// ordered for `skewed` lookups: index i holds the pair at distance rank
/// frac(0.5 + i * 0.618...) * n. Under u^3 skew index 0 alone takes 6% of
/// the lookups, so with random order the few hot pairs' lengths moved a
/// run's route cost from seed to seed; ordered, every seed's hot pairs sit
/// at the same distance quantiles and only their places differ.
[[nodiscard]] std::vector<std::pair<mesh::Coord, mesh::Coord>> route_pool(
    const grid::CellSet& faults, std::size_t n, Rng& rng);

/// Skewed index into a pool of `n`: u^3 puts most draws on the low indices
/// while every entry stays reachable.
[[nodiscard]] std::size_t skewed(Rng& rng, std::size_t n);

/// Jobs with sides 1..max_side skewed toward small (u^2) and lifetimes
/// uniform in [min_life, max_life] ticks; ids 1..n.
[[nodiscard]] std::vector<alloc::JobRequest> job_stream(
    std::size_t n, std::int32_t max_side, std::uint32_t min_life,
    std::uint32_t max_life, Rng& rng);

/// FNV-1a digests of generated inputs, printed so that two runs can be
/// shown to have had identical inputs.
[[nodiscard]] std::uint64_t digest(const grid::CellSet& faults);
[[nodiscard]] std::uint64_t digest(std::span<const svc::FaultEvent> events);
[[nodiscard]] std::uint64_t digest(std::span<const std::int64_t> times);
[[nodiscard]] std::uint64_t digest(
    std::span<const std::pair<mesh::Coord, mesh::Coord>> pairs);
[[nodiscard]] std::uint64_t digest(
    std::span<const alloc::JobRequest> jobs);

/// The fault set after applying `events` to `initial`.
[[nodiscard]] grid::CellSet apply_events(grid::CellSet faults,
                                         std::span<const svc::FaultEvent> events);

/// True when `snap` already contains the effect of `ev` (see event_stream).
[[nodiscard]] inline bool reflects(const svc::Snapshot& snap,
                                   const svc::FaultEvent& ev) {
  return snap.faults().contains(ev.node) == (ev.kind == svc::EventKind::Fault);
}

/// Fault-to-visible freshness of a probed event prefix. The publishing
/// writer (from the on_publish hook) advances a cursor over the prefix with
/// `reflects` and records, per epoch, how many prefix events that epoch
/// contains; the cursor only ever moves past the events of one batch, so
/// the stream's window keeps the test exact. A reader that acquires an
/// epoch then stamps every prefix event up to that count; the earliest
/// stamp over all readers is the event's first visibility.
class Freshness {
 public:
  /// Per-reader progress.
  struct Probe {
    std::uint64_t epoch = 0;
    std::size_t cursor = 0;
  };

  /// `due_ns[i]` is event i's scheduled send time as an offset from the
  /// phase start passed to `start`. `max_epochs` bounds the epochs the
  /// writer can publish (one per applied batch).
  Freshness(std::span<const svc::FaultEvent> events,
            std::vector<std::int64_t> due_ns, std::size_t max_epochs);

  /// Fixes the phase start (now_ns clock); call before the first send.
  void start(std::int64_t t0_ns) { t0_ns_ = t0_ns; }
  /// Sets event i's due offset when it is known only at send time; call
  /// before sending it, from the sending thread.
  void set_due(std::size_t i, std::int64_t offset_ns) { due_ns_[i] = offset_ns; }

  /// Writer side, from the on_publish hook: stamps publication.
  void on_publish(const svc::Snapshot& snap);
  /// Reader side, after every acquisition.
  void probe(const svc::Snapshot& snap, Probe& probe);

  [[nodiscard]] std::size_t size() const noexcept { return events_.size(); }
  /// Events among the first `sent` that no reader saw (0 after a complete
  /// run).
  [[nodiscard]] std::size_t unobserved(std::size_t sent) const;
  /// Histograms over the first `sent` events: due -> first reader (fresh,
  /// windowed by due time), due -> publish, publish -> first reader
  /// (pickup).
  void collect(std::size_t sent, Windowed& fresh, Hist& publish,
               Hist& pickup) const;

 private:
  static constexpr std::size_t kUnset = ~std::size_t{0};
  std::span<const svc::FaultEvent> events_;
  std::vector<std::int64_t> due_ns_;
  std::int64_t t0_ns_ = 0;
  std::size_t pub_cursor_ = 0;  // writer thread only
  std::vector<std::int64_t> pub_ns_;
  std::size_t max_epochs_;
  /// Prefix events contained in each published epoch (kUnset before the
  /// hook for that epoch ran).
  std::unique_ptr<std::atomic<std::size_t>[]> epoch_end_;
  std::unique_ptr<std::atomic<std::int64_t>[]> seen_ns_;
};

}  // namespace perfbench
