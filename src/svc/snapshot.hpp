// The immutable serving artifact of the query runtime (src/svc).
//
// A `Snapshot` freezes one epoch of the labeled machine — fault set, both
// labelings, faulty blocks, disabled regions — together with the derived
// structures queries need at serving speed: a paged per-node status plane
// (O(1) "what is this node", doubling as the blocked set: a node is blocked
// iff its status is not Enabled), a paged per-node region-key plane plus a
// dense key->id table (O(1) "which disabled region am I in"), a
// `FaultRingRouter` over the blocked set, and a per-epoch
// `routing::RouteCache` that memoizes routes lazily.
//
// Epoch turnover is copy-on-write: `next()` builds a successor snapshot
// that shares every serving page whose tile the delta did not touch (see
// pages.hpp) and carries the predecessor's route cache, dropping only the
// entries whose footprint intersects the dirty tiles. Carried routes are
// shared with the predecessor, not copied, so retiring an old epoch frees
// only the routes its successor dropped. The region-key
// indirection exists precisely for this: a region's key (the minimum
// row-major node index of its cells) is stable across events that renumber
// the `regions()` vector without touching the region itself, so pages of
// untouched regions stay shareable; only the small dense key->id table is
// rebuilt per epoch.
//
// Snapshots are published by the single-writer ingest loop through an
// RCU-style `shared_ptr` swap (see ingest.hpp): readers acquire a snapshot,
// answer any number of queries against perfectly consistent state, and drop
// it; old epochs die when their last reader releases them. Nothing in a
// snapshot mutates after publication except the route cache's internal
// memo table, which is thread-safe and invisible to results (routing is
// deterministic).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "check/oracle.hpp"
#include "core/maintenance.hpp"
#include "core/pipeline.hpp"
#include "routing/route_cache.hpp"
#include "svc/pages.hpp"

namespace ocp::svc {

/// What a node is, as served to routers and schedulers. The three-valued
/// collapse of the paper's status lattice: consumers route through Enabled
/// nodes, detour around Disabled ones, and treat Faulty as dead hardware.
enum class NodeStatus : std::uint8_t {
  Enabled = 0,
  /// Nonfaulty but disabled — sacrificed to keep fault regions convex.
  Disabled = 1,
  Faulty = 2,
};

[[nodiscard]] constexpr const char* to_string(NodeStatus s) noexcept {
  switch (s) {
    case NodeStatus::Enabled: return "enabled";
    case NodeStatus::Disabled: return "disabled";
    case NodeStatus::Faulty: return "faulty";
  }
  return "?";
}

class Snapshot {
 public:
  /// Freezes the current state of a maintained labeling as epoch `epoch`.
  /// Every serving page is built fresh and the route cache starts cold.
  [[nodiscard]] static std::shared_ptr<const Snapshot> build(
      std::uint64_t epoch, const labeling::MaintainedLabeling& labeling,
      routing::Hand hand = routing::Hand::Right);

  /// Copy-on-write successor of `prev`: serving pages of tiles outside
  /// `dirty_tiles` are shared with `prev`, dirty ones are rebuilt from
  /// `labeling`, and `prev`'s route cache is carried over minus the entries
  /// whose footprint intersects `padded_dirty_tiles` (the dirty tiles plus
  /// their neighborhoods — what a routing decision can have probed).
  /// Precondition: the labels outside the dirty tiles are identical between
  /// `prev` and `labeling` — exactly what the maintained labeling's
  /// `EventDelta::dirty_cells` guarantees for the accumulated deltas since
  /// `prev` was built.
  [[nodiscard]] static std::shared_ptr<const Snapshot> next(
      const Snapshot& prev, std::uint64_t epoch,
      const labeling::MaintainedLabeling& labeling,
      std::uint64_t dirty_tiles, std::uint64_t padded_dirty_tiles);

  /// Raw-component constructor; prefer `build`. Public so tests can
  /// assemble deliberately inconsistent snapshots and exercise `validate`'s
  /// rejection path.
  Snapshot(std::uint64_t epoch, grid::CellSet faults,
           grid::NodeGrid<labeling::Safety> safety,
           grid::NodeGrid<labeling::Activation> activation,
           std::vector<labeling::FaultyBlock> blocks,
           std::vector<labeling::DisabledRegion> regions, routing::Hand hand);

  Snapshot(const Snapshot&) = delete;
  Snapshot& operator=(const Snapshot&) = delete;

  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }
  [[nodiscard]] const mesh::Mesh2D& machine() const noexcept {
    return faults_.topology();
  }
  [[nodiscard]] const grid::CellSet& faults() const noexcept {
    return faults_;
  }
  /// Union of the disabled regions (faulty and sacrificed nodes): what
  /// routing treats as impassable. Always equals the set of nodes whose
  /// `status_of` is not Enabled.
  [[nodiscard]] const grid::CellSet& blocked() const noexcept {
    return blocked_;
  }
  [[nodiscard]] const grid::NodeGrid<labeling::Safety>& safety()
      const noexcept {
    return safety_;
  }
  [[nodiscard]] const grid::NodeGrid<labeling::Activation>& activation()
      const noexcept {
    return activation_;
  }
  [[nodiscard]] const std::vector<labeling::FaultyBlock>& blocks()
      const noexcept {
    return blocks_;
  }
  [[nodiscard]] const std::vector<labeling::DisabledRegion>& regions()
      const noexcept {
    return regions_;
  }

  /// O(1) from the paged status plane. Precondition: machine().contains(c).
  [[nodiscard]] NodeStatus status_of(mesh::Coord c) const noexcept {
    return status_pages_.at(tiles_, c);
  }

  /// Index into `regions()` of the disabled region containing `c`, or -1
  /// when `c` is enabled. O(1): paged region key, then the per-epoch dense
  /// key->id table.
  [[nodiscard]] std::int32_t region_id_of(mesh::Coord c) const noexcept {
    const std::int32_t key = region_key_pages_.at(tiles_, c);
    return key < 0 ? -1 : key_to_region_[static_cast<std::size_t>(key)];
  }

  /// The disabled region containing `c`, or nullptr when `c` is enabled.
  [[nodiscard]] const labeling::DisabledRegion* region_of(
      mesh::Coord c) const noexcept {
    const std::int32_t id = region_id_of(c);
    return id < 0 ? nullptr : &regions_[static_cast<std::size_t>(id)];
  }

  /// Route over enabled nodes, memoized in this epoch's cache. The
  /// reference is stable for the snapshot's lifetime.
  [[nodiscard]] const routing::Route& route(mesh::Coord src,
                                            mesh::Coord dst) const {
    return cache_.lookup(src, dst);
  }

  [[nodiscard]] const routing::RouteCache& route_cache() const noexcept {
    return cache_;
  }

  /// The tile decomposition the serving pages and cache footprints use.
  [[nodiscard]] const grid::TileGrid& tiles() const noexcept {
    return tiles_;
  }
  /// Tile mask this snapshot was built against: the dirty tiles of the
  /// delta for a `next()` successor, every tile for a fresh `build`.
  /// Consumers deriving incremental structures from epoch turnover (the
  /// allocation layer's free-region index) scan only these tiles.
  [[nodiscard]] std::uint64_t dirty_tiles() const noexcept {
    return dirty_tiles_;
  }
  /// Epoch at which each tile's serving pages were last rebuilt; carried
  /// across `next()` so a page's provenance is inspectable.
  [[nodiscard]] const std::vector<std::uint64_t>& tile_generations()
      const noexcept {
    return tile_generations_;
  }
  /// Serving pages rebuilt vs shared when this snapshot was created (a
  /// fresh `build` counts every page as copied).
  [[nodiscard]] const PageStats& page_stats() const noexcept {
    return page_stats_;
  }
  /// Route-cache entries carried from / invalidated against the
  /// predecessor (both zero for a fresh `build`).
  [[nodiscard]] const routing::RouteCache::AdoptStats& cache_carry_stats()
      const noexcept {
    return cache_carry_stats_;
  }
  /// Test hook: whether tile `t`'s status and region-key pages are shared
  /// with `prev`'s.
  [[nodiscard]] bool shares_pages_with(const Snapshot& prev,
                                       std::uint32_t t) const noexcept {
    return status_pages_.shares_page_with(prev.status_pages_, t) &&
           region_key_pages_.shares_page_with(prev.region_key_pages_, t);
  }

  /// Runs the 16-check invariant oracle against this snapshot's labeling
  /// (convergence checks skip automatically: a snapshot carries no round
  /// statistics). The publish gate of the ingest loop.
  [[nodiscard]] check::ViolationReport validate(
      labeling::SafeUnsafeDef def,
      std::uint32_t checks = check::kAllChecks) const;

  /// FNV-1a digest over the fault/safety/activation planes and the region
  /// structure — the replay-identity fingerprint (epoch-independent).
  [[nodiscard]] std::uint64_t label_digest() const noexcept;

 private:
  /// Shared implementation of `build` (prev == nullptr: all tiles dirty)
  /// and `next`.
  Snapshot(std::uint64_t epoch, const labeling::MaintainedLabeling& labeling,
           const Snapshot* prev, std::uint64_t dirty_tiles,
           std::uint64_t padded_dirty_tiles, routing::Hand hand);
  /// Builds the dense region key->id table from `regions_`.
  void index_regions();

  std::uint64_t epoch_;
  grid::CellSet faults_;
  grid::NodeGrid<labeling::Safety> safety_;
  grid::NodeGrid<labeling::Activation> activation_;
  std::vector<labeling::FaultyBlock> blocks_;
  std::vector<labeling::DisabledRegion> regions_;
  grid::CellSet blocked_;
  grid::TileGrid tiles_;
  routing::Hand hand_;
  routing::FaultRingRouter router_;  // reads blocked_; declared after it
  mutable routing::RouteCache cache_;
  PagedPlane<NodeStatus> status_pages_;
  PagedPlane<std::int32_t> region_key_pages_;
  /// region key (min node index) -> index into regions_, -1 elsewhere;
  /// rebuilt per epoch (O(node_count) ints, the only dense per-epoch work).
  std::vector<std::int32_t> key_to_region_;
  std::uint64_t dirty_tiles_ = ~std::uint64_t{0};
  std::vector<std::uint64_t> tile_generations_;
  PageStats page_stats_;
  routing::RouteCache::AdoptStats cache_carry_stats_;
};

}  // namespace ocp::svc
