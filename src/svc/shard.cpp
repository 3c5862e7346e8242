#include "svc/shard.hpp"

#include <algorithm>

namespace ocp::svc {

namespace {

/// Clamped, remainder-front-loaded split of `tiles` tile-slots into
/// `want` contiguous chunks; fills `assign[tile] = chunk`.
std::int32_t split_axis(std::int32_t tiles, std::int32_t want,
                        std::vector<std::uint32_t>& assign) {
  const std::int32_t chunks = std::clamp(want, std::int32_t{1}, tiles);
  assign.resize(static_cast<std::size_t>(tiles));
  const std::int32_t base = tiles / chunks;
  const std::int32_t extra = tiles % chunks;
  std::int32_t tile = 0;
  for (std::int32_t chunk = 0; chunk < chunks; ++chunk) {
    const std::int32_t len = base + (chunk < extra ? 1 : 0);
    for (std::int32_t i = 0; i < len; ++i) {
      assign[static_cast<std::size_t>(tile++)] =
          static_cast<std::uint32_t>(chunk);
    }
  }
  return chunks;
}

IngestConfig with_collection(IngestConfig config) {
  config.collect_applied = true;
  return config;
}

}  // namespace

ShardGrid::ShardGrid(const mesh::Mesh2D& m, std::int32_t rows,
                     std::int32_t cols)
    : tiles_(m) {
  // Clamp the total to 16 shards (acquire-slot capacity): shrink the larger
  // axis first — it has the most slack — until the product fits.
  rows = std::clamp(rows, std::int32_t{1}, tiles_.tiles_y());
  cols = std::clamp(cols, std::int32_t{1}, tiles_.tiles_x());
  while (rows * cols > 16) {
    (rows >= cols ? rows : cols) -= 1;
  }
  rows_ = split_axis(tiles_.tiles_y(), rows, shard_row_of_tile_row_);
  cols_ = split_axis(tiles_.tiles_x(), cols, shard_col_of_tile_col_);
}

Shard::Shard(std::uint32_t index, const ShardGrid& grid, grid::CellSet initial,
             IngestConfig config)
    : index_(index),
      grid_(&grid),
      engine_(std::move(initial), with_collection(std::move(config))),
      versions_(grid.machine(), 0),
      adopted_faulty_(grid.machine(), 0) {}

Shard::ApplyResult Shard::apply(std::span<const FaultEvent> external,
                                std::span<const HaloDelta> halo) {
  ApplyResult result;
  batch_scratch_.assign(external.begin(), external.end());
  // A foreign cell in the external stream is a halo-derived event requeued
  // by a crash. Newer deltas may have been adopted since (and the requeued
  // backlog can span several batches), so replay the latest adopted state,
  // never the stale one the event was derived from.
  const mesh::Mesh2D& machine = grid_->machine();
  for (FaultEvent& event : batch_scratch_) {
    if (machine.contains(event.node) && !grid_->owns(index_, event.node) &&
        versions_[event.node] != 0) {
      event.kind = adopted_faulty_[event.node] != 0 ? EventKind::Fault
                                                    : EventKind::Repair;
    }
  }
  for (const HaloDelta& delta : halo) {
    for (const HaloCellState& state : delta.states) {
      if (grid_->owns(index_, state.cell)) {
        // Single authority on owned cells: gossip never wins, but a sender
        // that holds an outdated state gets the current one back.
        const std::pair belief{delta.source, state.cell};
        if (state.version < versions_[state.cell] &&
            std::find(stale_beliefs_.begin(), stale_beliefs_.end(), belief) ==
                stale_beliefs_.end()) {
          stale_beliefs_.push_back(belief);
        }
        continue;
      }
      std::uint64_t& stored = versions_[state.cell];
      if (state.version <= stored) continue;
      stored = state.version;
      adopted_faulty_[state.cell] = state.faulty ? 1 : 0;
      // Queue the flip unconditionally: an earlier delta in this same batch
      // may hold the opposite state for this cell, pending in the scratch
      // but not yet applied, so the engine's labeling alone cannot tell
      // whether this state is news. The batch coalescer keeps the last
      // event per cell and drops already-satisfied states, so a redundant
      // event costs nothing — whereas skipping a genuine flip here is
      // permanent: the version gate would reject every re-delivery.
      batch_scratch_.push_back(
          {state.faulty ? EventKind::Fault : EventKind::Repair, state.cell});
      ++result.halo_events;
    }
  }
  if (batch_scratch_.empty() &&
      engine_.stale_epochs_pending() == 0) {
    result.outcome.epoch = engine_.snapshot()->epoch();
    answer_stale_beliefs(result);
    return result;
  }

  result.outcome = engine_.apply(batch_scratch_);
  if (result.outcome.crashed) {
    // The labeling rolled back; stale beliefs are answered after replay.
    result.interrupted = batch_scratch_;
    return result;
  }

  // Stamp the owned cells this batch flipped: these are the states the rest
  // of the fleet must be willing to adopt over anything older.
  for (const FaultEvent& event : result.outcome.applied_events) {
    if (grid_->owns(index_, event.node)) {
      versions_[event.node] = ++version_counter_;
    }
  }
  emit_extent(result);
  answer_stale_beliefs(result);
  return result;
}

void Shard::answer_stale_beliefs(ApplyResult& result) {
  const grid::CellSet& faults = engine_.labeling().faults();
  for (const auto& [sender, cell] : stale_beliefs_) {
    result.outgoing.emplace_back(
        sender,
        HaloDelta{index_, {{cell, faults.contains(cell), versions_[cell]}}});
  }
  stale_beliefs_.clear();
}

void Shard::emit_extent(ApplyResult& result) {
  if (result.outcome.dirty_cells.empty()) return;

  // Dedupe the extent and find which foreign shards it touches.
  extent_scratch_ = result.outcome.dirty_cells;
  const mesh::Mesh2D& m = grid_->machine();
  std::sort(extent_scratch_.begin(), extent_scratch_.end(),
            [&m](mesh::Coord a, mesh::Coord b) {
              return m.index(a) < m.index(b);
            });
  extent_scratch_.erase(
      std::unique(extent_scratch_.begin(), extent_scratch_.end()),
      extent_scratch_.end());
  // The extent is the merged unsafe component — faulty and unsafe cells
  // only, so on a replica that has not yet heard the foreign half of a
  // seam-spanning block it never *contains* foreign cells. The boundary
  // test therefore also walks each dirty cell's mesh neighbors (which
  // follows torus wrap links): a component one hop from foreign territory
  // can change labels there, so its owner must hear about it.
  std::vector<std::uint32_t> targets;
  const auto add_owner = [&](mesh::Coord c) {
    const std::uint32_t owner = grid_->shard_of(c);
    if (owner != index_ &&
        std::find(targets.begin(), targets.end(), owner) == targets.end()) {
      targets.push_back(owner);
    }
  };
  for (const mesh::Coord c : extent_scratch_) {
    add_owner(c);
    for (const mesh::Link& l : m.neighbors(c)) add_owner(l.to);
  }
  if (targets.empty()) return;
  std::sort(targets.begin(), targets.end());

  // Every touched neighbor gets the whole extent (see header: a receiver
  // needs the full component, including third-party cells, to relabel a
  // seam-spanning region identically).
  HaloDelta delta;
  delta.source = index_;
  delta.states.reserve(extent_scratch_.size());
  const grid::CellSet& faults = engine_.labeling().faults();
  for (const mesh::Coord c : extent_scratch_) {
    delta.states.push_back({c, faults.contains(c), versions_[c]});
  }
  result.outgoing.reserve(targets.size());
  for (const std::uint32_t target : targets) {
    result.outgoing.emplace_back(target, delta);
  }
}

}  // namespace ocp::svc
