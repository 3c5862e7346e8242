#include "svc/snapshot.hpp"

#include <gtest/gtest.h>

#include "core/regions.hpp"
#include "fault/generators.hpp"

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

}  // namespace
}  // namespace ocp::svc
