// Versioned per-(src, dst) route memoization.
//
// The routers are pure functions of (src, dst) for a fixed machine and
// blocked set, so steady-state traffic — which keeps asking for routes
// between the same usable endpoints — can be a table lookup instead of a
// fresh wall-following traversal per packet. The cache fills lazily: only
// pairs that are actually requested are ever routed, which keeps the
// footprint proportional to observed traffic rather than node_count².
//
// One route store serves a whole chain of blocked sets (one per serving
// epoch). Each entry holds the pair key, the padded tile footprint the
// route's computation can have probed (the tiles of every path cell plus
// their 4-neighborhoods, see grid::TileGrid), the immutable route, and the
// store version it was computed at (`born`). A `RouteCache` is a thin view
// of the store at one version.
//
// Validity is kept per tile, not per entry. The store stamps each of the
// <= 64 tiles with the last version that dirtied it, and every view keeps
// a copy of those stamps as of its own version. A view accepts an entry
// iff the entry was born at or before the view's version and no tile of
// its footprint was dirtied after it was born — sound because the router
// only ever probes blocked cells inside the footprint. A successor view
// (`RouteCache(router, prev, dirty_tiles)`) takes the next version and
// stamps the dirty tiles, together with every tile dirtied since `prev`'s
// version (successors of one predecessor may branch, e.g. a withheld epoch
// retried; a sibling's changes are changes relative to the new version
// too). The turnover writes no entry and no per-entry cell: it reads the
// dirty tiles' index lists (references listing each live entry's version
// and footprint), counts the entries that die, hands them to reclamation
// and clears those lists. A miss by a view older than the newest version
// inserts an entry born at that view's version; the stamps keep it from
// ever being accepted by a later version whose blocked set differs inside
// its footprint.
//
// Hits take no lock: the table is insert-only open addressing whose slots
// hold the key and an atomic pointer to that key's entries (newest first),
// and a hit is a probe plus the stamp check. A miss routes outside any
// lock and inserts under the store's writer mutex — the only lock. Growth
// swaps in a larger table RCU-style.
//
// Reclamation has two steps. An entry that died at version d is held while
// a live view's version lies in [born, d) — such a view may still serve
// it, so `Snapshot::route` references stay valid for the lifetime of the
// view that returned them. Once no live view can accept it, it is unlinked
// from its chain; unlinked entries and swapped-out tables are freed once
// every lookup that was in flight at the unlink has finished (each lookup
// announces itself in a per-thread slot for its duration); freed entries
// are kept, up to the live count, for later misses to refill, so a
// turnover's worth of dead routes never reaches the allocator as one burst
// of small frees. A view that is
// kept but idle therefore holds only the entries it can accept, never the
// ones born or dead after it. Reclamation runs when a view is destroyed,
// costs O(reclaimed), and never runs inside a lookup or a turnover; it is
// skipped when the writer mutex is busy (the next one picks the work up).
//
// Thread-safe: lookups on any views of one store, turnovers, reclamation
// and view destruction may all run concurrently. The netsim's load sweep
// shares one standalone store across all (load, seed) trials of a fixed
// blocked set; it is never advanced, so its entries never die.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>

#include "routing/router.hpp"

namespace ocp::routing {

class RouteStore;

class RouteCache {
 public:
  /// A view of a fresh store at its first version.
  RouteCache(const Router& router, const mesh::Mesh2D& machine);
  /// The successor view of `prev`: the next version of `prev`'s store,
  /// whose blocked set (served by `router`) differs from `prev`'s only
  /// inside `dirty_tiles` (a grid::TileGrid bitmask, padded by the caller
  /// to every tile a routing decision may have probed). Entries whose
  /// footprint meets the dirty tiles die at the new version; `prev` keeps
  /// serving them. Safe against concurrent lookups on `prev`.
  RouteCache(const Router& router, const RouteCache& prev,
             std::uint64_t dirty_tiles);
  ~RouteCache();

  RouteCache(const RouteCache&) = delete;
  RouteCache& operator=(const RouteCache&) = delete;

  /// The route src -> dst, computed on first request at this version and
  /// remembered. The reference stays valid for this view's lifetime.
  [[nodiscard]] const Route& lookup(mesh::Coord src, mesh::Coord dst) const;

  /// What the turnover into this view did: live entries that survive into
  /// this version vs entries it stamped dead (both zero for a fresh store).
  struct CarryStats {
    std::size_t carried = 0;
    std::size_t invalidated = 0;
  };
  [[nodiscard]] const CarryStats& carry_stats() const noexcept {
    return carry_;
  }

  /// Number of distinct (src, dst) pairs this view accepts. A diagnostic:
  /// it walks the whole table under the writer mutex.
  [[nodiscard]] std::size_t size() const;

  /// Lookups through this view answered from the store / that ran the
  /// router. When two threads miss the same key concurrently both count a
  /// miss (both ran the router), so hits + misses == lookups but misses
  /// can exceed the entries added. Entries another view inserted count as
  /// hits here.
  [[nodiscard]] std::uint64_t hits() const noexcept {
    return hits_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t misses() const noexcept {
    return misses_.load(std::memory_order_relaxed);
  }

  /// Lock acquisitions on this view's lookup paths: reader side (none — a
  /// hit probes the table without a lock) and the writer mutex a miss
  /// takes to insert. The serving layer exports them so contention on
  /// shared cache state is attributable when a closed-loop curve goes flat.
  [[nodiscard]] static constexpr std::uint64_t shared_lock_acquisitions()
      noexcept {
    return 0;
  }
  [[nodiscard]] std::uint64_t exclusive_lock_acquisitions() const noexcept {
    return exclusive_locks_.load(std::memory_order_relaxed);
  }

  /// The store's memory, for gauges: running counters, read without a
  /// lock. `live` entries are valid at the newest version; `awaiting` ones
  /// are dead there and wait until no view can read them; `bytes` counts
  /// entries, routes, tables and the tile index references.
  struct StoreStats {
    std::size_t live = 0;
    std::size_t awaiting = 0;
    std::size_t bytes = 0;
  };
  [[nodiscard]] StoreStats store_stats() const;

 private:
  const Router* router_;  // non-owning
  std::shared_ptr<RouteStore> store_;
  std::uint64_t version_ = 0;
  /// The store's live-view count for `version_`; released on destruction.
  std::atomic<std::uint32_t>* pin_ = nullptr;
  /// Per tile, the last version <= `version_` that dirtied it.
  std::array<std::uint64_t, 64> stamps_{};
  CarryStats carry_;
  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
  mutable std::atomic<std::uint64_t> exclusive_locks_{0};
};

}  // namespace ocp::routing
