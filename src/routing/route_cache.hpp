// Lazy per-(src, dst) route memoization.
//
// The routers are pure functions of (src, dst) for a fixed machine and
// blocked set, so steady-state traffic generation — which keeps asking for
// routes between the same usable endpoints — can be a table lookup instead
// of a fresh wall-following traversal per packet. The cache fills lazily:
// only pairs that are actually requested are ever routed, which keeps the
// footprint proportional to observed traffic rather than node_count².
//
// Every memoized route is allocated once, by the miss that computed it, and
// is immutable and refcounted after that. The table is one flat
// open-addressing array of slots, each holding the (src, dst) key, the
// route pointer and the tile footprint the route's computation consulted —
// the tiles of every path cell plus their 4-neighborhoods (see
// grid::TileGrid). A successor cache serving a changed blocked set
// `adopt()`s every route whose footprint misses the dirty tiles: those
// routes are provably identical under the new blocked set, because the
// router only ever probes blocked cells inside the footprint. Carry-over is
// one pass of mask tests and pointer copies; the two caches then share the
// route, so destroying the old one frees only the routes its successor
// dropped. `lookup_shared` hands out the route's own refcounted handle,
// which keeps it alive past the cache.
//
// Thread-safe: the parallel load-sweep driver (netsim/load_sweep) shares one
// cache across all (load, seed) trials of a sweep, since every trial sees
// the same machine, blocked set and router. Determinism is unaffected —
// routing is deterministic, so the cached route equals the recomputed one
// regardless of which trial populated the entry first.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <vector>

#include "grid/tiles.hpp"
#include "routing/router.hpp"

namespace ocp::routing {

class RouteCache {
 public:
  RouteCache(const Router& router, const mesh::Mesh2D& machine)
      : router_(&router), mesh_(machine), tiles_(machine) {}

  /// The route src -> dst, computed on first request and remembered. The
  /// returned reference stays valid for the cache's lifetime.
  [[nodiscard]] const Route& lookup(mesh::Coord src, mesh::Coord dst) const;

  /// Like `lookup`, but the returned handle owns the route: it shares the
  /// route's own control block (no allocation on a hit) and stays valid
  /// after this cache, and every successor that carried the route, is
  /// destroyed.
  [[nodiscard]] std::shared_ptr<const Route> lookup_shared(
      mesh::Coord src, mesh::Coord dst) const;

  /// What `adopt` did: entries carried into this cache vs dropped because
  /// their footprint intersected the dirty tiles.
  struct AdoptStats {
    std::size_t carried = 0;
    std::size_t invalidated = 0;
  };

  /// Carries `prev`'s entries over to this cache, dropping every entry
  /// whose tile footprint intersects `dirty_tiles` (a grid::TileGrid
  /// bitmask over the shared machine). Sound when the blocked sets backing
  /// the two caches differ only inside the dirty tiles: a surviving route
  /// never probed a changed cell, so recomputing it would yield the same
  /// answer. Carried routes are shared, not copied; on a key this cache
  /// already holds, `prev`'s route wins (the displaced one stays alive
  /// until this cache is destroyed, so `lookup` references hold). Safe
  /// against concurrent lookups on `prev` (which may still be serving);
  /// `prev` must not be this cache.
  AdoptStats adopt(const RouteCache& prev, std::uint64_t dirty_tiles);

  /// Number of distinct (src, dst) pairs routed so far.
  [[nodiscard]] std::size_t size() const;

  /// Lookups answered from the table / lookups that ran the router. When
  /// two threads miss the same key concurrently both count a miss (both
  /// ran the router), so hits + misses == lookups but misses can exceed
  /// size(). Adopted entries count as hits when first re-requested.
  [[nodiscard]] std::uint64_t hits() const noexcept {
    return hits_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t misses() const noexcept {
    return misses_.load(std::memory_order_relaxed);
  }

  /// Mutex acquisitions on the lookup paths since construction: shared
  /// (reader side — one per lookup) and exclusive (miss insertion). These
  /// are the cache's per-query shared-state touches; the serving layer
  /// exports them so contention on the reader lock is attributable when a
  /// closed-loop curve goes flat.
  [[nodiscard]] std::uint64_t shared_lock_acquisitions() const noexcept {
    return shared_locks_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t exclusive_lock_acquisitions() const noexcept {
    return exclusive_locks_.load(std::memory_order_relaxed);
  }

 private:
  using RoutePtr = std::shared_ptr<const Route>;

  /// Open-addressing slot; empty while `route` is null.
  struct Slot {
    std::uint64_t key = 0;
    /// Tiles the route's computation may have probed (path cells and
    /// their neighborhoods, plus both endpoints).
    std::uint64_t tiles = 0;
    RoutePtr route;
  };

  /// Linear-probing table, power-of-two capacity, at most half full.
  class Table {
   public:
    /// The slot holding `key`, or nullptr.
    [[nodiscard]] const Slot* find(std::uint64_t key) const noexcept;
    /// Grows so that `n` entries fit without a further rehash.
    void reserve(std::size_t n);
    /// The slot for `key`: the existing one, or a claimed empty slot
    /// (route still null) that the caller must fill.
    Slot& claim(std::uint64_t key);
    [[nodiscard]] std::size_t size() const noexcept { return count_; }
    [[nodiscard]] const std::vector<Slot>& slots() const noexcept {
      return slots_;
    }

   private:
    [[nodiscard]] std::size_t home(std::uint64_t key) const noexcept;
    std::vector<Slot> slots_;
    std::size_t count_ = 0;
    std::uint32_t shift_ = 64;  // 64 - log2(capacity)
  };

  /// Slow path: routes src -> dst, inserts (or finds a racing insertion)
  /// and returns the route now in the table.
  RoutePtr miss(std::uint64_t key, mesh::Coord src, mesh::Coord dst) const;
  [[nodiscard]] std::uint64_t footprint(const Route& route, mesh::Coord src,
                                        mesh::Coord dst) const;

  const Router* router_;  // non-owning
  mesh::Mesh2D mesh_;
  grid::TileGrid tiles_;
  mutable std::shared_mutex mutex_;
  mutable Table table_;
  /// Routes `adopt` overwrote, kept so `lookup` references stay valid.
  std::vector<RoutePtr> displaced_;
  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
  mutable std::atomic<std::uint64_t> shared_locks_{0};
  mutable std::atomic<std::uint64_t> exclusive_locks_{0};
};

}  // namespace ocp::routing
