// Sharded serving runtime: shard-grid geometry, halo-exchange convergence
// and the composite-digest-equals-single-writer invariant.
//
// The load-bearing assertion, repeated across every seam geometry and in the
// property sweeps: after the fleet reaches fixpoint, `composite_label_digest`
// over the per-shard snapshots is bit-identical to the `label_digest` a
// single-writer engine publishes when fed the very same event stream. That
// pins the whole halo protocol — versioned adoption, full-extent deltas,
// owner authority — because the digest folds every label plane plus the
// block/region structure, and a seam-spanning region reconstructed from
// stale or partial gossip would shift it.

#include "svc/sharded_service.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "fault/generators.hpp"
#include "stats/rng.hpp"
#include "svc/loadgen.hpp"

namespace ocp::svc {
namespace {

using mesh::Coord;
using mesh::Mesh2D;
using mesh::Topology;

/// Single-writer reference: the same stream through one IngestEngine with
/// the same batching cap.
std::uint64_t single_writer_digest(const grid::CellSet& initial,
                                   std::span<const FaultEvent> stream,
                                   std::size_t max_batch = 256) {
  IngestEngine engine(initial, {});
  for (std::size_t i = 0; i < stream.size(); i += max_batch) {
    const std::size_t take = std::min(max_batch, stream.size() - i);
    (void)engine.apply(stream.subspan(i, take));
  }
  return engine.snapshot()->label_digest();
}

std::vector<FaultEvent> faults_at(std::initializer_list<Coord> cells) {
  std::vector<FaultEvent> events;
  for (const Coord c : cells) events.push_back({EventKind::Fault, c});
  return events;
}

/// A solid rectangle of faults [x0, x1] x [y0, y1].
std::vector<FaultEvent> fault_rect(std::int32_t x0, std::int32_t x1,
                                   std::int32_t y0, std::int32_t y1) {
  std::vector<FaultEvent> events;
  for (std::int32_t y = y0; y <= y1; ++y) {
    for (std::int32_t x = x0; x <= x1; ++x) {
      events.push_back({EventKind::Fault, {x, y}});
    }
  }
  return events;
}

void expect_rounds_match_single_writer(const Mesh2D& m, std::int32_t rows,
                                       std::int32_t cols,
                                       std::span<const FaultEvent> stream,
                                       std::size_t max_batch = 256) {
  const grid::CellSet initial(m);
  const ShardGrid grid(m, rows, cols);
  const ShardedRoundsResult sharded =
      run_sharded_rounds(grid, initial, stream, max_batch);
  EXPECT_EQ(sharded.composite_digest,
            single_writer_digest(initial, stream, max_batch))
      << rows << "x" << cols << " shards, " << stream.size() << " events";
}

// -- shard grid geometry ----------------------------------------------------

TEST(ShardGridTest, PartitionsEveryCellExactlyOnce) {
  const Mesh2D m(32, 32);
  const ShardGrid grid(m, 2, 2);
  ASSERT_EQ(grid.count(), 4u);
  for (std::size_t i = 0; i < static_cast<std::size_t>(m.node_count()); ++i) {
    const Coord c = m.coord(i);
    const std::uint32_t owner = grid.shard_of(c);
    ASSERT_LT(owner, grid.count());
    std::size_t owners = 0;
    for (std::uint32_t s = 0; s < grid.count(); ++s) {
      if (grid.owns(s, c)) ++owners;
    }
    EXPECT_EQ(owners, 1u);
    EXPECT_TRUE(grid.owns(owner, c));
  }
}

TEST(ShardGridTest, DegenerateRowAndColumnGrids) {
  const Mesh2D m(32, 32);
  const ShardGrid row(m, 1, 4);
  EXPECT_EQ(row.rows(), 1);
  EXPECT_EQ(row.cols(), 4);
  const ShardGrid col(m, 4, 1);
  EXPECT_EQ(col.rows(), 4);
  EXPECT_EQ(col.cols(), 1);
  // A 1xS split assigns whole tile columns: x decides everything.
  for (std::int32_t y = 0; y < 32; y += 7) {
    EXPECT_EQ(row.shard_of({3, y}), row.shard_of({3, 0}));
  }
}

TEST(ShardGridTest, ClampsToTileGridAndSlotCapacity) {
  const Mesh2D m(32, 32);
  // Far more shards than tiles: clamped to the tile grid, then to 16 total
  // (the acquire-slot capacity the service's pin sets size against).
  const ShardGrid grid(m, 64, 64);
  EXPECT_LE(grid.count(), 16u);
  EXPECT_GE(grid.count(), 1u);
  const ShardGrid one(m, 1, 1);
  EXPECT_EQ(one.count(), 1u);
}

// -- seam geometries: digest equality vs the single writer ------------------

// A crash requeues the interrupted batch's halo-derived events as plain
// events, and the requeued backlog can span several batches. A newer delta
// adopted in between must win over such a stale event whichever batch the
// event lands in: the shard replays the state it adopted last.
TEST(ShardTest, CrashReplayedHaloEventsYieldToNewerAdoptedStates) {
  const Mesh2D m(32, 32);
  const ShardGrid grid(m, 1, 2);
  Shard shard(0, grid, grid::CellSet(m), IngestConfig{});
  const Coord foreign{20, 6};
  ASSERT_FALSE(grid.owns(0, foreign));

  const auto deliver = [&](bool faulty, std::uint64_t version) {
    const HaloDelta delta{.source = 1, .states = {{foreign, faulty, version}}};
    (void)shard.apply({}, std::span(&delta, 1));
  };
  deliver(true, 1);
  ASSERT_TRUE(shard.engine().labeling().faults().contains(foreign));
  deliver(false, 2);
  ASSERT_FALSE(shard.engine().labeling().faults().contains(foreign));

  // The fault event derived from version 1, replayed after version 2.
  const FaultEvent stale{EventKind::Fault, foreign};
  (void)shard.apply(std::span(&stale, 1), {});
  EXPECT_FALSE(shard.engine().labeling().faults().contains(foreign));
}

TEST(ShardedRoundsTest, BlockSpanningVerticalSeam) {
  const Mesh2D m(32, 32);
  // 1x2 shards: the vertical seam sits at a tile boundary (x = 16); the
  // block straddles it.
  const auto events = fault_rect(14, 17, 5, 8);
  expect_rounds_match_single_writer(m, 1, 2, events);
}

TEST(ShardedRoundsTest, BlockSpanningHorizontalSeam) {
  const Mesh2D m(32, 32);
  const auto events = fault_rect(5, 8, 14, 17);
  expect_rounds_match_single_writer(m, 2, 1, events);
}

TEST(ShardedRoundsTest, BlockSpanningCornerSeam) {
  const Mesh2D m(32, 32);
  // 2x2 shards: the block covers the four-corner point (16, 16) — every
  // shard owns a piece and must converge on the same component.
  const auto events = fault_rect(14, 17, 14, 17);
  expect_rounds_match_single_writer(m, 2, 2, events);
}

TEST(ShardedRoundsTest, TilesNarrowerThanFaultyBlock) {
  const Mesh2D m(32, 32);
  // 1x4 shards on a 32-mesh: each shard is 8 cells wide, the block is 12 —
  // wider than any single shard, so the halo extent must relay through a
  // middle shard that owns none of the block's endpoints.
  const auto events = fault_rect(6, 17, 10, 12);
  expect_rounds_match_single_writer(m, 1, 4, events);
}

TEST(ShardedRoundsTest, SmallBatchesForceMultiRoundGossip) {
  const Mesh2D m(32, 32);
  // max_batch 1: every event is its own round, halo deltas interleave with
  // later external events — the digest must still converge.
  const auto events = fault_rect(14, 17, 14, 17);
  expect_rounds_match_single_writer(m, 2, 2, events, 1);
}

TEST(ShardedRoundsTest, TorusWrapSeamCoincidingWithShardSeam) {
  const Mesh2D m(32, 32, Topology::Torus);
  // On a torus, x = 31 and x = 0 are adjacent; with 1x2 shards the wrap
  // seam IS a shard seam (first and last tile columns are different
  // shards). A block spanning the wrap must come out whole.
  std::vector<FaultEvent> events;
  for (std::int32_t y = 4; y <= 6; ++y) {
    for (const std::int32_t x : {30, 31, 0, 1}) {
      events.push_back({EventKind::Fault, {x, y}});
    }
  }
  expect_rounds_match_single_writer(m, 1, 2, events);
}

TEST(ShardedRoundsTest, RepairsRetractAcrossSeams) {
  const Mesh2D m(32, 32);
  // Grow a seam-spanning block, then repair the middle column: the two
  // remnants must relabel identically on both sides.
  auto events = fault_rect(14, 17, 5, 8);
  for (std::int32_t y = 5; y <= 8; ++y) {
    events.push_back({EventKind::Repair, {16, y}});
  }
  expect_rounds_match_single_writer(m, 1, 2, events, 4);
}

TEST(ShardedRoundsTest, CountsHaloTrafficOnlyWhenSeamsAreTouched) {
  const Mesh2D m(32, 32);
  const grid::CellSet initial(m);
  const ShardGrid grid(m, 2, 2);
  // Interior faults whose dirty extents stay inside one shard: no gossip.
  const auto interior = faults_at({{4, 4}, {26, 5}});
  const ShardedRoundsResult quiet =
      run_sharded_rounds(grid, initial, interior);
  EXPECT_EQ(quiet.halo_deltas, 0u);
  EXPECT_EQ(quiet.halo_events, 0u);
  EXPECT_EQ(quiet.applied, 2u);
  // A seam-touching block gossips.
  const auto seam = fault_rect(15, 16, 4, 5);
  const ShardedRoundsResult loud = run_sharded_rounds(grid, initial, seam);
  EXPECT_GT(loud.halo_deltas, 0u);
}

// -- property sweeps --------------------------------------------------------

TEST(ShardedRoundsTest, PropertyRandomChurnMatchesSingleWriter) {
  for (const Topology topology : {Topology::Mesh, Topology::Torus}) {
    const Mesh2D m(32, 32, topology);
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      stats::Rng rng(seed);
      const grid::CellSet initial = fault::uniform_random(m, 12, rng);
      const auto stream =
          generate_event_stream(m, initial, 160, 0.45, seed * 977 + 5);
      const std::uint64_t expected = [&] {
        IngestEngine engine(initial, {});
        for (std::size_t i = 0; i < stream.size(); i += 32) {
          const std::size_t take = std::min<std::size_t>(32, stream.size() - i);
          (void)engine.apply(std::span(stream).subspan(i, take));
        }
        return engine.snapshot()->label_digest();
      }();
      for (const auto& [rows, cols] :
           {std::pair{1, 1}, {1, 2}, {2, 2}, {4, 1}, {2, 4}}) {
        const ShardGrid grid(m, rows, cols);
        const ShardedRoundsResult result =
            run_sharded_rounds(grid, initial, stream, 32);
        EXPECT_EQ(result.composite_digest, expected)
            << "seed " << seed << ", " << rows << "x" << cols << " shards, "
            << (topology == Topology::Torus ? "torus" : "mesh");
      }
    }
  }
}

TEST(ShardedRoundsTest, LongSingleEventChurnMatchesSingleWriter) {
  // Long churn applied one event per batch: an owner repairs a fault whose
  // component touches no seam, so no delta reaches the other replicas, and
  // later faults merge the stale copy into a component one of them labels
  // its own cells with. Only the owner can correct that belief — it answers
  // when the stale copy comes back in the believer's extent.
  for (const Topology topology : {Topology::Mesh, Topology::Torus}) {
    const Mesh2D m(32, 32, topology);
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      stats::Rng rng(seed);
      const grid::CellSet initial = fault::uniform_random(m, 10, rng);
      const auto stream =
          generate_event_stream(m, initial, 600, 0.45, seed * 31 + 1);
      const std::uint64_t expected = single_writer_digest(initial, stream, 1);
      for (const auto& [rows, cols] :
           {std::pair{1, 2}, {2, 2}, {2, 4}, {4, 4}}) {
        const ShardGrid grid(m, rows, cols);
        EXPECT_EQ(run_sharded_rounds(grid, initial, stream, 1).composite_digest,
                  expected)
            << "seed " << seed << ", " << rows << "x" << cols << " shards, "
            << (topology == Topology::Torus ? "torus" : "mesh");
      }
    }
  }
}

TEST(ShardedRoundsTest, DeterministicAcrossRepeatRuns) {
  const Mesh2D m(32, 32);
  stats::Rng rng(11);
  const grid::CellSet initial = fault::uniform_random(m, 10, rng);
  const auto stream = generate_event_stream(m, initial, 120, 0.4, 777);
  const ShardGrid grid(m, 2, 2);
  const ShardedRoundsResult a = run_sharded_rounds(grid, initial, stream, 16);
  const ShardedRoundsResult b = run_sharded_rounds(grid, initial, stream, 16);
  EXPECT_EQ(a.composite_digest, b.composite_digest);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.halo_deltas, b.halo_deltas);
  EXPECT_EQ(a.halo_events, b.halo_events);
  EXPECT_EQ(a.applied, b.applied);
}

// -- threaded service -------------------------------------------------------

TEST(ShardedServiceTest, SubmitFlushQueryAcrossShards) {
  const Mesh2D m(32, 32);
  ShardedService service(grid::CellSet(m),
                         {.shard_rows = 2, .shard_cols = 2});
  ASSERT_EQ(service.shard_grid().count(), 4u);
  // One fault per shard.
  for (const Coord c : {Coord{4, 4}, {20, 4}, {4, 20}, {20, 20}}) {
    ASSERT_EQ(service.submit({EventKind::Fault, c}), SubmitStatus::Accepted);
  }
  service.flush();
  for (const Coord c : {Coord{4, 4}, {20, 4}, {4, 20}, {20, 20}}) {
    const StatusAnswer answer = service.query_status(c);
    EXPECT_EQ(answer.status, QueryStatus::Ok);
    EXPECT_EQ(answer.node, NodeStatus::Faulty);
    EXPECT_GE(answer.epoch, 1u);
  }
  EXPECT_EQ(service.query_status({0, 0}).node, NodeStatus::Enabled);
  const auto stats = service.stats();
  EXPECT_EQ(stats.events_accepted, 4u);
  EXPECT_EQ(stats.queue_depth, 0u);
}

TEST(ShardedServiceTest, SeamBlockConvergesToSingleWriterDigest) {
  const Mesh2D m(32, 32);
  const grid::CellSet initial(m);
  const auto events = fault_rect(14, 17, 14, 17);
  ShardedService service(initial, {.shard_rows = 2, .shard_cols = 2});
  for (const FaultEvent& e : events) {
    ASSERT_EQ(service.submit(e), SubmitStatus::Accepted);
  }
  // Threaded gossip needs iterated flushes only in theory — the barrier
  // already waits for empty inboxes — but a crashed-free flush must land at
  // the fixpoint in one call.
  service.flush();
  EXPECT_EQ(service.composite_digest(), single_writer_digest(initial, events));
  EXPECT_GT(service.stats().halo_deltas, 0u);
}

TEST(ShardedServiceTest, InvalidCoordinatesAnswerTyped) {
  const Mesh2D m(32, 32);
  ShardedService service(grid::CellSet(m), {.shard_rows = 2, .shard_cols = 2});
  EXPECT_EQ(service.query_status({-1, 5}).status,
            QueryStatus::InvalidArgument);
  EXPECT_EQ(service.query_region({99, 0}).status,
            QueryStatus::InvalidArgument);
  EXPECT_EQ(service.query_route({0, 0}, {99, 99}).status,
            QueryStatus::InvalidArgument);
  // Submitting an out-of-machine event is never fatal: it routes to shard 0
  // and is counted invalid there.
  EXPECT_EQ(service.submit({EventKind::Fault, {-3, -3}}),
            SubmitStatus::Accepted);
  service.flush();
  EXPECT_EQ(service.stats().ingest.invalid, 1u);
}

TEST(ShardedServiceTest, CrossShardRouteStitchesDelivered) {
  const Mesh2D m(32, 32);
  ShardedService service(grid::CellSet(m), {.shard_rows = 2, .shard_cols = 2});
  // A wall straddling the center forces the route to interact with labels
  // owned by several shards.
  for (const FaultEvent& e : fault_rect(12, 19, 15, 16)) {
    ASSERT_EQ(service.submit(e), SubmitStatus::Accepted);
  }
  service.flush();
  const RouteAnswer answer = service.query_route({2, 2}, {29, 29});
  ASSERT_EQ(answer.status, QueryStatus::Ok);
  ASSERT_TRUE(answer.route.delivered());
  // The stitched path is a genuine walk: 4-neighbor steps from src to dst.
  ASSERT_GE(answer.route.path.size(), 2u);
  EXPECT_EQ(answer.route.path.front(), (Coord{2, 2}));
  EXPECT_EQ(answer.route.path.back(), (Coord{29, 29}));
  for (std::size_t i = 1; i < answer.route.path.size(); ++i) {
    const Coord a = answer.route.path[i - 1];
    const Coord b = answer.route.path[i];
    EXPECT_EQ(std::abs(a.x - b.x) + std::abs(a.y - b.y), 1)
        << "hop " << i << " is not a mesh step";
    // Never through a faulty cell.
    EXPECT_NE(service.query_status(b).node, NodeStatus::Faulty);
  }
}

TEST(ShardedServiceTest, BatchCarriesCompositeEpochVector) {
  const Mesh2D m(32, 32);
  ShardedService service(grid::CellSet(m), {.shard_rows = 2, .shard_cols = 2});
  ASSERT_EQ(service.submit({EventKind::Fault, {4, 4}}),
            SubmitStatus::Accepted);
  service.flush();
  const std::vector<QueryItem> items = {
      {QueryKind::Status, {4, 4}, {}},     // shard 0
      {QueryKind::Status, {20, 20}, {}},   // shard 3
      {QueryKind::Region, {4, 5}, {}},     // shard 0 again: same pin
  };
  const ShardedBatchAnswer answer = service.query_batch(items);
  ASSERT_EQ(answer.status, QueryStatus::Ok);
  EXPECT_EQ(answer.completed, 3u);
  EXPECT_EQ(answer.items[0].node, NodeStatus::Faulty);
  ASSERT_EQ(answer.epochs.size(), 2u);  // only shards the batch touched
  EXPECT_LT(answer.epochs[0].shard, answer.epochs[1].shard);
  EXPECT_GE(answer.epochs[0].epoch, 1u);  // shard 0 applied the fault
}

TEST(ShardedServiceTest, LoadHarnessMatchesSingleWriterAtEveryThreadCount) {
  for (const Topology topology : {Topology::Mesh, Topology::Torus}) {
    SvcLoadConfig config = query_heavy_profile(1);
    config.topology = topology;
    config.events = 96;
    config.queries_per_thread = 150;
    const SvcLoadResult reference = run_svc_load(config);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                      std::size_t{8}}) {
      config.query_threads = threads;
      const SvcLoadResult sharded = run_sharded_load(
          config, {.shard_rows = 2, .shard_cols = 2});
      EXPECT_EQ(sharded.stream_digest, reference.stream_digest);
      EXPECT_EQ(sharded.final_digest, reference.final_digest)
          << threads << " query threads, "
          << (topology == Topology::Torus ? "torus" : "mesh");
      EXPECT_TRUE(sharded.epochs_monotone);
      EXPECT_EQ(sharded.submits_shed, 0u);
    }
  }
}

TEST(ShardedServiceTest, OneShardFleetMatchesSingleWriterService) {
  SvcLoadConfig config = query_heavy_profile(2);
  config.events = 64;
  config.queries_per_thread = 100;
  const SvcLoadResult reference = run_svc_load(config);
  const SvcLoadResult one =
      run_sharded_load(config, {.shard_rows = 1, .shard_cols = 1});
  EXPECT_EQ(one.final_digest, reference.final_digest);
  EXPECT_EQ(one.halo_deltas, 0u);  // nobody to gossip with
}

TEST(ShardedServiceTest, CompositeDigestHelperAgreesWithServiceAccessor) {
  const Mesh2D m(32, 32);
  ShardedService service(grid::CellSet(m), {.shard_rows = 2, .shard_cols = 2});
  for (const FaultEvent& e : fault_rect(15, 16, 15, 16)) {
    ASSERT_EQ(service.submit(e), SubmitStatus::Accepted);
  }
  service.flush();
  EXPECT_EQ(service.composite_digest(),
            composite_label_digest(service.shard_grid(), service.snapshots()));
}

// Golden pins of the canned profiles on a 2x2 fleet, recorded before the
// closed-loop driver was shared between the two serving fronts. The stream
// digests equal the single-writer pins (same seed forks) and the composite
// digests equal the single-writer final digests (the sharding invariant).
TEST(ShardedServiceTest, ProfileDigestsArePinnedOnATwoByTwoFleet) {
  struct Pin {
    const char* name;
    SvcLoadConfig (*profile)(std::size_t);
    std::uint64_t stream_digest;
    std::uint64_t final_digest;
  };
  const Pin pins[] = {
      {"query_heavy", query_heavy_profile, 0xe85aa916f1dd70fcULL,
       0x4a2cf5abcde3e9b3ULL},
      {"ingest_heavy", ingest_heavy_profile, 0xec4111b5e5a5d7b1ULL,
       0x35ae30b9294d006dULL},
      {"mixed_rate", mixed_rate_profile, 0xe4f5a50c7300dbacULL,
       0x588c970c7f90156fULL},
  };
  for (const Pin& pin : pins) {
    SvcLoadConfig config = pin.profile(1);
    config.queries_per_thread = 100;
    const auto result =
        run_sharded_load(config, {.shard_rows = 2, .shard_cols = 2});
    EXPECT_EQ(result.stream_digest, pin.stream_digest) << pin.name;
    EXPECT_EQ(result.final_digest, pin.final_digest) << pin.name;
  }
}

}  // namespace
}  // namespace ocp::svc
