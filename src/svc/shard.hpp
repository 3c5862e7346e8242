// Tile-partitioned sharding of the serving runtime: ownership geometry,
// typed halo deltas, and the per-shard single-writer world.
//
// `ShardGrid` splits the machine's tile decomposition (grid/tiles.hpp) into
// an S_r x S_c grid of contiguous tile-aligned rectangles; every cell has
// exactly one owning shard, and shard seams always coincide with tile
// seams, so a shard's snapshot pages are either fully owned or fully
// foreign. `Shard` is one shard's writer: an `IngestEngine` over a
// full-machine `MaintainedLabeling` replica that is *authoritative only on
// the shard's owned cells* — the rest of the replica is the ghost halo,
// kept approximately current by gossip. The paper's protocol has the same
// shape: each node maintains fault information locally and learns about
// remote faults through rounds of neighbor exchanges; a shard here plays
// the role of a node-group, and a `HaloDelta` is one exchange.
//
// The halo protocol (why it converges — DESIGN.md §13 carries the full
// argument):
//
//  * After applying a batch, a shard inspects the batch's dirty extent —
//    every cell whose served label may have changed, as reported by the
//    maintenance layer. If any extent cell is owned by another shard, that
//    shard is sent a `HaloDelta` carrying the fault state of the ENTIRE
//    extent (not only the receiver-owned slice): an extent is a merged
//    unsafe component or an old block footprint, and the receiver needs the
//    whole component's faults — including third-party-owned ones the sender
//    itself learned by gossip — to relabel its side of a seam-spanning
//    region identically.
//  * Relayed knowledge can be stale, so every cell state travels with a
//    version: the owner of a cell stamps it from a per-shard monotone
//    counter each time an event flips it, and a receiver adopts a non-owned
//    cell's state only when the carried version exceeds the one it stored
//    (`Shard::versions_`). Entries for cells the receiver owns are skipped
//    outright — a shard is the single authority on its own cells and never
//    lets gossip overwrite them. Version 0 (never flipped since
//    construction) needs no exchange: both sides still hold the identical
//    initial state.
//  * An owned cell arriving with an OLDER version than the owner's stamp
//    is a stale belief in the sender's replica: the owner flipped the cell
//    after the sender last heard of it, in a batch whose extent never
//    reached the sender. The sender relays the cell only because its own
//    labeling now uses it, so the owner answers with the cell's current
//    state and version. Without that answer the stale state would stand
//    forever — the owner's later extents need not include the cell at all
//    (a repaired cell far from every seam is in none) — and the sender
//    would keep serving labels derived from it.
//  * Adopting a state means feeding a synthetic fault/repair event through
//    the shard's own engine (`set_fault_state` semantics: idempotent,
//    state-asserting), which relabels, republished-snapshots, and — when
//    the resulting dirty extent again crosses a seam — emits follow-up
//    deltas. Shards therefore iterate to a fixpoint exactly like the
//    paper's exchange rounds; at quiesce (no queued events, no in-flight
//    deltas) every shard's replica agrees with the single-writer engine on
//    every component that overlaps its owned cells, which is all its
//    snapshot is ever asked about.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "grid/tiles.hpp"
#include "svc/ingest.hpp"

namespace ocp::svc {

/// Tile-aligned S_r x S_c partition of the machine. Rows split the tile
/// rows into contiguous chunks (sizes differing by at most one, remainder
/// front-loaded), columns likewise; requested extents are clamped to the
/// tile counts and the total shard count to 16 (the thread-local acquire
/// slot capacity — see IngestEngine::acquire).
class ShardGrid {
 public:
  ShardGrid(const mesh::Mesh2D& m, std::int32_t rows, std::int32_t cols);

  [[nodiscard]] const grid::TileGrid& tiles() const noexcept { return tiles_; }
  [[nodiscard]] const mesh::Mesh2D& machine() const noexcept {
    return tiles_.machine();
  }
  [[nodiscard]] std::int32_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::int32_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::uint32_t count() const noexcept {
    return static_cast<std::uint32_t>(rows_ * cols_);
  }

  /// Owning shard of a node; precondition: machine().contains(c).
  [[nodiscard]] std::uint32_t shard_of(mesh::Coord c) const noexcept {
    const auto tx = static_cast<std::size_t>(c.x >> tiles_.shift());
    const auto ty = static_cast<std::size_t>(c.y >> tiles_.shift());
    return shard_row_of_tile_row_[ty] * static_cast<std::uint32_t>(cols_) +
           shard_col_of_tile_col_[tx];
  }

  [[nodiscard]] bool owns(std::uint32_t shard, mesh::Coord c) const noexcept {
    return shard_of(c) == shard;
  }

 private:
  grid::TileGrid tiles_;
  std::int32_t rows_;
  std::int32_t cols_;
  std::vector<std::uint32_t> shard_col_of_tile_col_;  // size tiles_x
  std::vector<std::uint32_t> shard_row_of_tile_row_;  // size tiles_y
};

/// One cell's asserted fault state inside a halo delta, with the version
/// its owner last stamped it with (see protocol notes above).
struct HaloCellState {
  mesh::Coord cell;
  bool faulty = false;
  std::uint64_t version = 0;
};

/// One boundary exchange: the full dirty extent of one applied batch, as
/// fault states + versions, addressed to a shard whose owned cells the
/// extent touched.
struct HaloDelta {
  /// Emitting shard's index. Owners address their stale-belief answers to
  /// it, so it must be the emitter's; receivers do not treat any sender as
  /// more authoritative — versions decide.
  std::uint32_t source = 0;
  std::vector<HaloCellState> states;
};

/// One shard's single-writer world: engine + halo bookkeeping. Thread-free
/// like `IngestEngine`; `ShardedService` serializes `apply` calls on the
/// shard's worker thread, the deterministic round driver calls it inline.
class Shard {
 public:
  /// `config.collect_applied` is forced on — the dirty extent is how halo
  /// deltas are derived.
  Shard(std::uint32_t index, const ShardGrid& grid, grid::CellSet initial,
        IngestConfig config);

  struct ApplyResult {
    BatchOutcome outcome;
    /// Deltas to deliver: the extent, once per touched shard in ascending
    /// order, then one answer per stale belief. Empty when the batch's
    /// dirty extent stayed inside the shard and no belief was stale.
    std::vector<std::pair<std::uint32_t, HaloDelta>> outgoing;
    /// Synthetic events derived from incoming halo deltas this call (the
    /// gossip overhead a fixpoint round pays, for stats).
    std::size_t halo_events = 0;
    /// Only on a crash: the exact batch the engine was interrupted on
    /// (external events plus the halo-derived ones), which the caller must
    /// requeue after `outcome.requeue` — the version gate has already
    /// recorded the halo entries, so the deltas themselves cannot simply be
    /// redelivered.
    std::vector<FaultEvent> interrupted;
  };

  /// Applies one batch: external events first, then events derived from
  /// `halo` (version-gated, own cells skipped). External events in a
  /// shard's queue address owned cells and halo-derived events address
  /// foreign cells, so the two halves never coalesce against each other;
  /// the halo half coming second still matters after a crash replay, when
  /// the requeued backlog holds *old* halo-derived events that a newer
  /// delta in the same batch must win against (the engine's coalescer keeps
  /// the last event per cell). Such requeued foreign-cell events replay the
  /// state last adopted for the cell, so a delta adopted in an earlier
  /// batch wins too.
  ApplyResult apply(std::span<const FaultEvent> external,
                    std::span<const HaloDelta> halo);

  [[nodiscard]] std::uint32_t index() const noexcept { return index_; }
  [[nodiscard]] IngestEngine& engine() noexcept { return engine_; }
  [[nodiscard]] const IngestEngine& engine() const noexcept { return engine_; }

 private:
  /// Sends the batch's deduped dirty extent to every shard it touches.
  void emit_extent(ApplyResult& result);
  /// Answers every recorded stale belief with the cell's current state.
  void answer_stale_beliefs(ApplyResult& result);

  std::uint32_t index_;
  const ShardGrid* grid_;
  IngestEngine engine_;
  /// Last version adopted (foreign cells) or stamped (owned cells) per
  /// cell. Lives outside the engine on purpose: an engine crash discards
  /// unpublished labeling progress, but what this shard has *heard* (and
  /// told others) is not lost in the crash — the requeued backlog replays
  /// against the same version knowledge.
  grid::NodeGrid<std::uint64_t> versions_;
  /// The fault state adopted with each foreign cell's version (1 = faulty).
  /// Crash replay of requeued halo-derived events reads it, so the replay
  /// converges to the newest state heard however the backlog is batched.
  grid::NodeGrid<std::uint8_t> adopted_faulty_;
  /// Monotone stamp source for this shard's owned-cell flips. Never reset
  /// (survives engine crashes), so receivers' version gates stay correct
  /// across replays.
  std::uint64_t version_counter_ = 0;
  /// (sender, owned cell) pairs a delta carried at an outdated version,
  /// answered with the cell's current state by the next apply that does
  /// not crash.
  std::vector<std::pair<std::uint32_t, mesh::Coord>> stale_beliefs_;
  std::vector<FaultEvent> batch_scratch_;
  std::vector<mesh::Coord> extent_scratch_;
};

}  // namespace ocp::svc
