#include "svc/snapshot.hpp"

#include <algorithm>

#include "core/regions.hpp"

namespace ocp::svc {

namespace {

std::size_t min_cell_index(const mesh::Mesh2D& m,
                           const labeling::DisabledRegion& region) {
  std::size_t best = static_cast<std::size_t>(m.node_count());
  for (const mesh::Coord c : region.component.cells()) {
    best = std::min(best, m.index(c));
  }
  return best;
}

}  // namespace

Snapshot::Snapshot(std::uint64_t epoch,
                   const labeling::MaintainedLabeling& labeling,
                   const Snapshot* prev, std::uint64_t dirty_tiles,
                   std::uint64_t padded_dirty_tiles, routing::Hand hand)
    : epoch_(epoch),
      faults_(labeling.faults()),
      safety_(labeling.safety()),
      activation_(labeling.activation()),
      blocks_(labeling.blocks()),
      regions_(labeling.regions()),
      blocked_(labeling.disabled()),
      tiles_(faults_.topology()),
      hand_(hand),
      router_(machine(), blocked_, hand),
      // Warm start: the successor view sees every route of `prev`'s store
      // that never probed a dirtied neighborhood — still correct under the
      // new blocked set; the rest die at its version.
      cache_(prev == nullptr
                 ? routing::RouteCache(router_, machine())
                 : routing::RouteCache(router_, prev->cache_,
                                       padded_dirty_tiles)) {
  const auto status_value = [this](mesh::Coord c) {
    if (faults_.contains(c)) return NodeStatus::Faulty;
    return activation_[c] == labeling::Activation::Disabled
               ? NodeStatus::Disabled
               : NodeStatus::Enabled;
  };
  const grid::NodeGrid<std::int32_t>& keys = labeling.region_keys();
  const auto key_value = [&keys](mesh::Coord c) { return keys[c]; };
  dirty_tiles_ = dirty_tiles;
  if (prev == nullptr) {
    status_pages_ =
        PagedPlane<NodeStatus>::build(tiles_, status_value, page_stats_);
    region_key_pages_ =
        PagedPlane<std::int32_t>::build(tiles_, key_value, page_stats_);
    tile_generations_.assign(tiles_.tile_count(), epoch_);
  } else {
    status_pages_ = PagedPlane<NodeStatus>::next(
        prev->status_pages_, tiles_, dirty_tiles, status_value, page_stats_);
    region_key_pages_ = PagedPlane<std::int32_t>::next(
        prev->region_key_pages_, tiles_, dirty_tiles, key_value, page_stats_);
    tile_generations_ = prev->tile_generations_;
    for (std::uint32_t t = 0; t < tiles_.tile_count(); ++t) {
      if ((dirty_tiles >> t) & 1u) tile_generations_[t] = epoch_;
    }
  }
  index_regions();
}

Snapshot::Snapshot(std::uint64_t epoch, grid::CellSet faults,
                   grid::NodeGrid<labeling::Safety> safety,
                   grid::NodeGrid<labeling::Activation> activation,
                   std::vector<labeling::FaultyBlock> blocks,
                   std::vector<labeling::DisabledRegion> regions,
                   routing::Hand hand)
    : epoch_(epoch),
      faults_(std::move(faults)),
      safety_(std::move(safety)),
      activation_(std::move(activation)),
      blocks_(std::move(blocks)),
      regions_(std::move(regions)),
      blocked_(labeling::disabled_cells(activation_)),
      tiles_(faults_.topology()),
      hand_(hand),
      router_(machine(), blocked_, hand),
      cache_(router_, machine()) {
  const auto status_value = [this](mesh::Coord c) {
    if (faults_.contains(c)) return NodeStatus::Faulty;
    return activation_[c] == labeling::Activation::Disabled
               ? NodeStatus::Disabled
               : NodeStatus::Enabled;
  };
  grid::NodeGrid<std::int32_t> keys(machine(), -1);
  for (const labeling::DisabledRegion& region : regions_) {
    const auto key =
        static_cast<std::int32_t>(min_cell_index(machine(), region));
    for (const mesh::Coord c : region.component.cells()) keys[c] = key;
  }
  const auto key_value = [&keys](mesh::Coord c) { return keys[c]; };
  status_pages_ =
      PagedPlane<NodeStatus>::build(tiles_, status_value, page_stats_);
  region_key_pages_ =
      PagedPlane<std::int32_t>::build(tiles_, key_value, page_stats_);
  tile_generations_.assign(tiles_.tile_count(), epoch_);
  index_regions();
}

void Snapshot::index_regions() {
  key_to_region_.assign(static_cast<std::size_t>(machine().node_count()), -1);
  for (std::size_t r = 0; r < regions_.size(); ++r) {
    key_to_region_[min_cell_index(machine(), regions_[r])] =
        static_cast<std::int32_t>(r);
  }
}

std::shared_ptr<const Snapshot> Snapshot::build(
    std::uint64_t epoch, const labeling::MaintainedLabeling& labeling,
    routing::Hand hand) {
  return std::shared_ptr<const Snapshot>(
      new Snapshot(epoch, labeling, nullptr, ~std::uint64_t{0},
                   ~std::uint64_t{0}, hand));
}

std::shared_ptr<const Snapshot> Snapshot::next(
    const Snapshot& prev, std::uint64_t epoch,
    const labeling::MaintainedLabeling& labeling, std::uint64_t dirty_tiles,
    std::uint64_t padded_dirty_tiles) {
  return std::shared_ptr<const Snapshot>(
      new Snapshot(epoch, labeling, &prev, dirty_tiles, padded_dirty_tiles,
                   prev.hand_));
}

check::ViolationReport Snapshot::validate(labeling::SafeUnsafeDef def,
                                          std::uint32_t checks) const {
  // The oracle consumes a PipelineResult; assemble one from the frozen
  // planes. Round statistics stay zeroed, which the oracle reads as
  // "reference engine" and skips the convergence checks for.
  labeling::PipelineResult view{.safety = safety_,
                               .activation = activation_,
                               .blocks = blocks_,
                               .regions = regions_,
                               .safety_stats = {},
                               .activation_stats = {}};
  return check::check_pipeline(
      faults_, view, {.definition = def, .checks = checks});
}

std::uint64_t Snapshot::label_digest() const noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  const std::size_t n = safety_.size();
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t v = faults_.contains_index(i) ? 4u : 0u;
    v |= safety_.at_index(i) == labeling::Safety::Unsafe ? 2u : 0u;
    v |= activation_.at_index(i) == labeling::Activation::Disabled ? 1u : 0u;
    mix(v + 1);
  }
  mix(blocks_.size());
  mix(regions_.size());
  for (const auto& region : regions_) {
    mix(region.size());
    mix(static_cast<std::uint64_t>(region.fault_count));
  }
  return h;
}

}  // namespace ocp::svc
