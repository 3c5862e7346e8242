#include "svc/snapshot.hpp"

#include <gtest/gtest.h>

#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "chaos/plan.hpp"
#include "core/regions.hpp"
#include "fault/generators.hpp"
#include "svc/ingest.hpp"

namespace ocp::svc {
namespace {

using mesh::Coord;
using mesh::Mesh2D;

TEST(SnapshotTest, StatusOfMatchesLabelingForEveryNode) {
  const Mesh2D m(16, 16);
  stats::Rng rng(7);
  const auto faults = fault::uniform_random(m, 18, rng);
  const labeling::MaintainedLabeling live(faults);
  const auto snap = Snapshot::build(3, live);

  EXPECT_EQ(snap->epoch(), 3u);
  for (std::size_t i = 0; i < static_cast<std::size_t>(m.node_count()); ++i) {
    const Coord c = m.coord(i);
    const NodeStatus got = snap->status_of(c);
    if (faults.contains(c)) {
      EXPECT_EQ(got, NodeStatus::Faulty);
    } else if (live.activation()[c] == labeling::Activation::Disabled) {
      EXPECT_EQ(got, NodeStatus::Disabled);
    } else {
      EXPECT_EQ(got, NodeStatus::Enabled);
    }
  }
  EXPECT_EQ(snap->blocked(), labeling::disabled_cells(live.activation()));
}

TEST(SnapshotTest, RegionIndexAgreesWithRegionList) {
  const Mesh2D m(16, 16);
  stats::Rng rng(11);
  const auto faults = fault::uniform_random(m, 20, rng);
  const labeling::MaintainedLabeling live(faults);
  const auto snap = Snapshot::build(0, live);

  // Every region cell maps back to its own region id; every enabled node
  // maps to -1.
  for (std::size_t r = 0; r < snap->regions().size(); ++r) {
    for (const Coord c : snap->regions()[r].component.cells()) {
      ASSERT_EQ(snap->region_id_of(c), static_cast<std::int32_t>(r));
      ASSERT_EQ(snap->region_of(c), &snap->regions()[r]);
    }
  }
  for (std::size_t i = 0; i < static_cast<std::size_t>(m.node_count()); ++i) {
    const Coord c = m.coord(i);
    if (snap->status_of(c) == NodeStatus::Enabled) {
      ASSERT_EQ(snap->region_id_of(c), -1);
      ASSERT_EQ(snap->region_of(c), nullptr);
    }
  }
}

TEST(SnapshotTest, RoutesAreMemoizedAndStable) {
  const Mesh2D m(12, 12);
  const labeling::MaintainedLabeling live(grid::CellSet{m, {{5, 5}, {6, 5}}});
  const auto snap = Snapshot::build(0, live);

  const routing::Route& first = snap->route({0, 0}, {11, 11});
  EXPECT_TRUE(first.delivered());
  // References into the per-epoch cache are stable for its lifetime.
  EXPECT_EQ(&snap->route({0, 0}, {11, 11}), &first);
  EXPECT_EQ(snap->route_cache().hits(), 1u);
  EXPECT_EQ(snap->route_cache().misses(), 1u);
}

// Snapshot::next shares the predecessor's clean route-cache entries rather
// than copying them: a carried pair is the same Route object in both
// epochs, an invalidated pair is recomputed, and once the predecessor
// snapshot is destroyed the carried routes still equal a fresh route under
// the successor's blocked set.
TEST(SnapshotTest, NextSharesCarriedRoutesWithItsPredecessor) {
  const Mesh2D m(32, 32);
  labeling::MaintainedLabeling live(grid::CellSet{m, {{16, 16}}});
  auto prev = Snapshot::build(0, live);

  const Coord far_src{1, 1}, far_dst{6, 2};
  const Coord near_src{12, 16}, near_dst{22, 16};
  const routing::Route& far_prev = prev->route(far_src, far_dst);
  const routing::Route& near_prev = prev->route(near_src, near_dst);
  const Coord extra = near_prev.path[near_prev.path.size() / 2];

  const grid::TileGrid& tiles = prev->tiles();
  std::uint64_t dirty = 0;
  std::uint64_t padded = 0;
  for (const Coord c : live.add_fault(extra).dirty_cells) {
    dirty |= tiles.bit_of(c);
    padded |= tiles.padded_bits(c);
  }
  const auto next = Snapshot::next(*prev, 1, live, dirty, padded);
  ASSERT_EQ(next->cache_carry_stats().carried, 1u);
  ASSERT_EQ(next->cache_carry_stats().invalidated, 1u);

  EXPECT_EQ(&next->route(far_src, far_dst), &far_prev);
  const routing::Route& near_next = next->route(near_src, near_dst);
  EXPECT_NE(&near_next, &near_prev);

  prev.reset();
  const routing::FaultRingRouter fresh(m, next->blocked());
  EXPECT_EQ(next->route(far_src, far_dst).path,
            fresh.route(far_src, far_dst).path);
  EXPECT_EQ(next->route(near_src, near_dst).path,
            fresh.route(near_src, near_dst).path);
}

TEST(SnapshotTest, ValidatePassesOnWellFormedLabeling) {
  const Mesh2D m(16, 16);
  stats::Rng rng(3);
  const auto faults = fault::uniform_random(m, 16, rng);
  const labeling::MaintainedLabeling live(faults);
  const auto snap = Snapshot::build(0, live);
  const auto report = snap->validate(labeling::SafeUnsafeDef::Def2b);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(SnapshotTest, ValidateRejectsInconsistentLabeling) {
  // Assemble a deliberately broken snapshot through the raw constructor: a
  // faulty node whose safety plane claims Safe and whose activation plane
  // claims Enabled, with no blocks or regions extracted. This is exactly
  // the kind of engine bug the publish gate exists to catch.
  const Mesh2D m(8, 8);
  const grid::CellSet faults{m, {{3, 3}}};
  const grid::NodeGrid<labeling::Safety> safety(m, labeling::Safety::Safe);
  const grid::NodeGrid<labeling::Activation> activation(
      m, labeling::Activation::Enabled);
  const Snapshot broken(5, faults, safety, activation, {}, {},
                        routing::Hand::Right);
  const auto report = broken.validate(labeling::SafeUnsafeDef::Def2b);
  EXPECT_FALSE(report.ok());
}

TEST(SnapshotTest, LabelDigestIsEpochIndependentAndLabelSensitive) {
  const Mesh2D m(12, 12);
  stats::Rng rng(5);
  const auto faults = fault::uniform_random(m, 10, rng);
  labeling::MaintainedLabeling live(faults);

  const auto a = Snapshot::build(1, live);
  const auto b = Snapshot::build(99, live);
  EXPECT_EQ(a->label_digest(), b->label_digest());

  // Any labeling change must move the digest.
  grid::CellSet more = faults;
  for (std::size_t i = 0; i < static_cast<std::size_t>(m.node_count()); ++i) {
    if (!more.contains(m.coord(i))) {
      more.insert(m.coord(i));
      break;
    }
  }
  const labeling::MaintainedLabeling other(more);
  EXPECT_NE(a->label_digest(), Snapshot::build(1, other)->label_digest());
}

/// (dirty, padded) tile masks of one event's delta — what IngestEngine
/// accumulates for a publication.
std::pair<std::uint64_t, std::uint64_t> masks_of(
    const grid::TileGrid& tiles, const labeling::EventDelta& delta) {
  std::uint64_t dirty = 0;
  std::uint64_t padded = 0;
  for (const Coord c : delta.dirty_cells) {
    dirty |= tiles.bit_of(c);
    padded |= tiles.padded_bits(c);
  }
  return {dirty, padded};
}

// Route-store versions are internal to the store, not snapshot epochs: a
// withheld epoch and its retry share an epoch number, and a caller may
// even hand `next` a smaller epoch. Each successor still gets its own
// version, serves only routes valid for its blocked set, and carries the
// clean ones as hits.
TEST(SnapshotTest, RouteVersionsAreStoreInternalNotEpochs) {
  const Mesh2D m(64, 64);  // 8x8 tiles: each delta stays local
  labeling::MaintainedLabeling live{grid::CellSet(m)};
  const auto base = Snapshot::build(7, live);
  const grid::TileGrid& tiles = base->tiles();
  const Coord near_src{36, 2}, near_dst{36, 60};
  const Coord far_src{4, 50}, far_dst{12, 50};
  const std::size_t straight = 59;  // cells on the fault-free near path
  (void)base->route(far_src, far_dst);

  // Attempt 1 at epoch 8 with a fault on the near pair's path, withheld:
  // its routes stay in the store.
  auto [dirty_a, padded_a] = masks_of(tiles, live.add_fault({36, 36}));
  {
    const auto withheld = Snapshot::next(*base, 8, live, dirty_a, padded_a);
    EXPECT_NE(withheld->route(near_src, near_dst).path.size(), straight)
        << "the fault forces a detour";
  }
  // The fault is repaired and a different one lands; the retry reuses
  // epoch 8 and must diff against `base`, so it carries both deltas.
  auto [dirty_r, padded_r] = masks_of(tiles, live.remove_fault({36, 36}));
  auto [dirty_b, padded_b] = masks_of(tiles, live.add_fault({60, 4}));
  const auto retry =
      Snapshot::next(*base, 8, live, dirty_a | dirty_r | dirty_b,
                     padded_a | padded_r | padded_b);
  const routing::FaultRingRouter retry_router(m, retry->blocked());
  EXPECT_EQ(retry->route(near_src, near_dst).path,
            retry_router.route(near_src, near_dst).path);
  EXPECT_EQ(retry->route(near_src, near_dst).path.size(), straight);

  // An epoch number that moves backwards changes nothing either.
  auto [dirty_c, padded_c] = masks_of(tiles, live.add_fault({60, 60}));
  const auto back = Snapshot::next(*retry, 3, live, dirty_c, padded_c);
  EXPECT_EQ(back->epoch(), 3u);
  EXPECT_GE(back->cache_carry_stats().carried, 1u);
  EXPECT_EQ(&back->route(far_src, far_dst), &base->route(far_src, far_dst));
  EXPECT_EQ(back->route_cache().hits(), 1u);
  const routing::FaultRingRouter back_router(m, back->blocked());
  EXPECT_EQ(back->route(far_src, far_dst).path,
            back_router.route(far_src, far_dst).path);
}

/// Probe pairs over the whole machine, for sweeps that compare every
/// served route with a fresh one.
std::vector<std::pair<Coord, Coord>> probe_pairs(const Mesh2D& m) {
  std::vector<std::pair<Coord, Coord>> pairs;
  for (std::int32_t sy = 0; sy < m.height(); sy += 3) {
    for (std::int32_t sx = 0; sx < m.width(); sx += 3) {
      for (std::int32_t k = 1; k < 4; ++k) {
        const Coord src{sx, sy};
        const Coord dst{(sx + 5 * k) % m.width(), (sy + 7 * k) % m.height()};
        if (src != dst) pairs.emplace_back(src, dst);
      }
    }
  }
  return pairs;
}

/// Every probe pair `snap` serves equals a fresh route over its blocked
/// set (pairs with a blocked endpoint included).
void expect_routes_fresh(const Snapshot& snap,
                         const std::vector<std::pair<Coord, Coord>>& pairs) {
  const routing::FaultRingRouter fresh(snap.machine(), snap.blocked());
  for (const auto& [src, dst] : pairs) {
    const routing::Route expected = fresh.route(src, dst);
    const routing::Route& served = snap.route(src, dst);
    ASSERT_EQ(served.status, expected.status)
        << "epoch " << snap.epoch() << " " << mesh::to_string(src) << " -> "
        << mesh::to_string(dst);
    ASSERT_EQ(served.path, expected.path)
        << "epoch " << snap.epoch() << " " << mesh::to_string(src) << " -> "
        << mesh::to_string(dst);
  }
}

// A chaos-poisoned publish is withheld and retried: the retry branches
// from the epoch still serving, next to the withheld attempt. A reader
// that stays on the old epoch keeps missing and inserting while both newer
// versions exist. Every route either epoch serves must equal a fresh
// route over that epoch's blocked set.
TEST(SnapshotTest, WithheldThenRetriedEpochServesOnlyFreshRoutes) {
  const Mesh2D m(24, 24);
  chaos::FaultPlan plan({.poison_publish = 1.0, .max_poisons = 1});
  IngestConfig config;
  config.chaos.plan = &plan;
  IngestEngine engine(grid::CellSet{m, {{3, 20}}}, config);
  const std::shared_ptr<const Snapshot> old = engine.snapshot();
  const auto pairs = probe_pairs(m);
  const std::size_t half = pairs.size() / 2;
  const std::vector<std::pair<Coord, Coord>> first(pairs.begin(),
                                                   pairs.begin() + static_cast<std::ptrdiff_t>(half));
  expect_routes_fresh(*old, first);

  const FaultEvent fault[] = {{EventKind::Fault, {12, 12}}};
  ASSERT_FALSE(engine.apply(fault).published);
  ASSERT_EQ(engine.stale_epochs_pending(), 1u);
  // The old epoch's reader misses on the rest of the pairs now, with the
  // withheld version already in the store.
  expect_routes_fresh(*old, pairs);

  const FaultEvent second[] = {{EventKind::Fault, {5, 6}}};
  ASSERT_TRUE(engine.apply(second).published);
  const std::shared_ptr<const Snapshot> retried = engine.snapshot();
  EXPECT_EQ(retried->epoch(), 1u);
  EXPECT_TRUE(retried->faults().contains({12, 12}));
  EXPECT_GT(retried->cache_carry_stats().invalidated, 0u);
  expect_routes_fresh(*retried, pairs);
  expect_routes_fresh(*old, pairs);
}

// A route reference taken from a snapshot stays valid while that snapshot
// lives, through 100 later publish/retire cycles in which the route's own
// entry is invalidated and reclamation keeps running. ASan turns a
// premature free into a failure here.
TEST(SnapshotTest, RouteReferenceSurvivesOneHundredPublishCycles) {
  const Mesh2D m(16, 16);
  IngestEngine engine{grid::CellSet(m)};
  const std::shared_ptr<const Snapshot> held = engine.snapshot();
  const Coord src{8, 1}, dst{8, 14};
  const routing::Route& route = held->route(src, dst);
  const std::vector<Coord> expected = route.path;
  const auto pairs = probe_pairs(m);

  std::uint64_t dead_at_first_epoch = 0;
  for (int cycle = 0; cycle < 100; ++cycle) {
    // Toggle a node on the held route's path: its entry dies at once.
    const Coord node{8, 2 + cycle % 12};
    const FaultEvent event[] = {
        {engine.snapshot()->faults().contains(node) ? EventKind::Repair
                                                    : EventKind::Fault,
         node}};
    ASSERT_TRUE(engine.apply(event).published);
    if (cycle == 0) {
      dead_at_first_epoch = engine.snapshot()->cache_carry_stats().invalidated;
    }
    const Snapshot& now = engine.acquire();
    for (std::size_t i = static_cast<std::size_t>(cycle) % 7; i < pairs.size();
         i += 7) {
      (void)now.route(pairs[i].first, pairs[i].second);
    }
  }
  EXPECT_EQ(dead_at_first_epoch, 1u);
  EXPECT_EQ(route.path, expected);
  EXPECT_EQ(&held->route(src, dst), &route);
  EXPECT_EQ(held->route_cache().misses(), 1u);
}

/// A 32x32 single-fault churn: a pool of 48 reader pairs and 24 nodes
/// toggled in turn, one per epoch.
struct Churn {
  Churn() {
    stats::Rng rng(17);
    const auto coord = [&rng] {
      return Coord{static_cast<std::int32_t>(rng.uniform_int(0, 31)),
                   static_cast<std::int32_t>(rng.uniform_int(0, 31))};
    };
    while (pool.size() < 48) {
      const Coord src = coord();
      const Coord dst = coord();
      if (src != dst) pool.emplace_back(src, dst);
    }
    for (int i = 0; i < 24; ++i) candidates.push_back(coord());
  }
  /// Publishes epoch `e`'s toggle, then looks every pool pair up through
  /// `engine.acquire()` and records the store gauges.
  void step(IngestEngine& engine, int e) {
    const Coord node =
        candidates[static_cast<std::size_t>(e) % candidates.size()];
    const FaultEvent event[] = {
        {engine.labeling().faults().contains(node) ? EventKind::Repair
                                                   : EventKind::Fault,
         node}};
    ASSERT_TRUE(engine.apply(event).published);
    const Snapshot& now = engine.acquire();
    for (const auto& [src, dst] : pool) (void)now.route(src, dst);
    const IngestStats stats = engine.stats();
    peak_live = std::max(peak_live, stats.route_entries_live);
    peak_entries = std::max(
        peak_entries, stats.route_entries_live + stats.route_entries_awaiting);
    peak_bytes = std::max(peak_bytes, stats.route_bytes);
  }

  const Mesh2D m{32, 32};
  std::vector<std::pair<Coord, Coord>> pool;
  std::vector<Coord> candidates;
  std::uint64_t peak_live = 0;
  std::uint64_t peak_entries = 0;
  std::uint64_t peak_bytes = 0;
};

constexpr int kChurnEpochs = 10'000;

// 10^4 single-fault epochs with readers that re-acquire — one every epoch,
// one every 4 epochs — keep the route store bounded: live entries never
// exceed the working set, and live plus awaiting-reclamation entries stay
// within a small constant factor of it.
TEST(SnapshotTest, RouteStoreStaysBoundedOverTenThousandEpochs) {
  Churn churn;
  IngestEngine engine{grid::CellSet(churn.m)};
  std::shared_ptr<const Snapshot> slow_reader = engine.snapshot();
  for (int e = 0; e < kChurnEpochs; ++e) {
    churn.step(engine, e);
    if (e % 4 == 0) slow_reader = engine.snapshot();
  }
  EXPECT_LE(churn.peak_live, churn.pool.size());
  EXPECT_LE(churn.peak_entries, 8 * churn.pool.size())
      << "dead entries must be reclaimed as readers move on";
  EXPECT_GT(churn.peak_bytes, 0u);
  EXPECT_LE(churn.peak_bytes, std::uint64_t{1} << 20);
}

// A reader thread that acquires once and then stays idle keeps its epoch
// pinned in its acquire slot for as long as it lives. The store must stay
// bounded anyway: the idle epoch holds only the routes it can serve, and
// every route born and dead after it is reclaimed while 10^4 epochs
// publish.
TEST(SnapshotTest, IdleReaderPinsOnlyTheRoutesItCanServe) {
  Churn churn;
  IngestEngine engine{grid::CellSet(churn.m)};
  std::mutex mu;
  std::condition_variable cv;
  bool acquired = false;
  bool done = false;
  std::thread idle([&] {
    const Snapshot& pinned = engine.acquire();
    for (const auto& [src, dst] : churn.pool) (void)pinned.route(src, dst);
    std::unique_lock lock(mu);
    acquired = true;
    cv.notify_all();
    cv.wait(lock, [&] { return done; });
  });
  {
    std::unique_lock lock(mu);
    cv.wait(lock, [&] { return acquired; });
  }
  for (int e = 0; e < kChurnEpochs; ++e) churn.step(engine, e);
  {
    std::lock_guard lock(mu);
    done = true;
  }
  cv.notify_all();
  idle.join();
  EXPECT_LE(churn.peak_live, churn.pool.size());
  EXPECT_LE(churn.peak_entries, 4 * churn.pool.size())
      << "the idle epoch may hold its own routes, nothing born after it";
  EXPECT_LE(churn.peak_bytes, std::uint64_t{1} << 20);
}

}  // namespace
}  // namespace ocp::svc
