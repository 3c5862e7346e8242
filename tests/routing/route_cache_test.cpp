#include "routing/route_cache.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "grid/tiles.hpp"

namespace ocp::routing {
namespace {

using mesh::Coord;
using mesh::Mesh2D;

TEST(RouteCacheTest, CachedRouteEqualsDirectRoute) {
  const Mesh2D m(12, 12);
  const grid::CellSet blocked{m, {{5, 5}, {6, 5}}};
  const FaultRingRouter router(m, blocked);
  RouteCache cache(router, m);

  const Route& cached = cache.lookup({1, 2}, {9, 8});
  const Route direct = router.route({1, 2}, {9, 8});
  EXPECT_EQ(cached.status, direct.status);
  EXPECT_EQ(cached.path, direct.path);
  // Second lookup returns the same stored object.
  EXPECT_EQ(&cache.lookup({1, 2}, {9, 8}), &cached);
}

TEST(RouteCacheTest, HitMissCountersAreExactSingleThreaded) {
  const Mesh2D m(8, 8);
  const grid::CellSet blocked(m);
  const XYRouter router(m, blocked);
  RouteCache cache(router, m);

  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
  (void)cache.lookup({0, 0}, {7, 7});
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 0u);
  (void)cache.lookup({0, 0}, {7, 7});
  (void)cache.lookup({0, 0}, {7, 7});
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 2u);
  (void)cache.lookup({7, 7}, {0, 0});  // direction matters: a new pair
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.size(), 2u);
}

// 8 threads hammering ONE key: every lookup must be accounted as exactly one
// hit or one miss (the counters are atomic), the table ends up with a single
// entry, and at least one thread took the miss path. Run under
// OCP_SANITIZE=thread (ctest -L tsan) this also races the lock-free hit
// path against the insert path.
TEST(RouteCacheTest, ConcurrentSameKeyLookupsAccountEveryLookup) {
  const Mesh2D m(16, 16);
  const grid::CellSet blocked(m);
  const XYRouter router(m, blocked);
  RouteCache cache(router, m);

  constexpr int kThreads = 8;
  constexpr int kLookups = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache] {
      for (int i = 0; i < kLookups; ++i) {
        const Route& r = cache.lookup({1, 1}, {14, 13});
        ASSERT_TRUE(r.delivered());
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(cache.size(), 1u);
  // Concurrent first lookups may each count a miss (both ran the router;
  // the insert is try_emplace so the table still has one entry), but no
  // lookup may vanish and no lookup may count twice.
  EXPECT_EQ(cache.hits() + cache.misses(),
            static_cast<std::uint64_t>(kThreads) * kLookups);
  EXPECT_GE(cache.misses(), 1u);
  EXPECT_LE(cache.misses(), static_cast<std::uint64_t>(kThreads));
}

// 8 threads over DISTINCT key sets (each thread owns its own sources): the
// table must hold every pair exactly once and the counter identity
// hits + misses == lookups must survive concurrent inserts of different
// keys resizing the map under the unique lock.
TEST(RouteCacheTest, ConcurrentDistinctKeyLookupsAccountEveryLookup) {
  const Mesh2D m(16, 16);
  const grid::CellSet blocked(m);
  const XYRouter router(m, blocked);
  RouteCache cache(router, m);

  constexpr int kThreads = 8;
  constexpr int kDests = 24;
  constexpr int kRounds = 50;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      const Coord src{t, 2 * t};  // per-thread source: disjoint key sets
      for (int round = 0; round < kRounds; ++round) {
        for (int d = 0; d < kDests; ++d) {
          const Coord dst{15 - d % 4, d / 4 + 8};
          if (dst == src) continue;
          (void)cache.lookup(src, dst);
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  std::uint64_t expected_lookups = 0;
  std::uint64_t expected_pairs = 0;
  for (int t = 0; t < kThreads; ++t) {
    const Coord src{t, 2 * t};
    for (int d = 0; d < kDests; ++d) {
      const Coord dst{15 - d % 4, d / 4 + 8};
      if (dst == src) continue;
      ++expected_pairs;
      expected_lookups += kRounds;
    }
  }
  EXPECT_EQ(cache.size(), expected_pairs);
  EXPECT_EQ(cache.hits() + cache.misses(), expected_lookups);
  // Each distinct pair missed at least once; keys are disjoint across
  // threads, so there is no cross-thread double-miss and the count is exact.
  EXPECT_EQ(cache.misses(), expected_pairs);
  EXPECT_EQ(cache.hits(), expected_lookups - expected_pairs);
}

// Epoch rollover with every tile dirty invalidates wholesale: the successor
// starts empty, its first lookups miss and recompute, and the predecessor
// keeps its entries and counters.
TEST(RouteCacheTest, FullyDirtyAdoptCarriesNothingAndRepopulates) {
  const Mesh2D m(8, 8);
  const grid::CellSet blocked(m);
  const XYRouter router(m, blocked);
  RouteCache prev(router, m);

  (void)prev.lookup({0, 0}, {7, 7});
  (void)prev.lookup({1, 1}, {6, 6});
  ASSERT_EQ(prev.size(), 2u);

  RouteCache next(router, prev, ~std::uint64_t{0});
  const auto stats = next.carry_stats();
  EXPECT_EQ(stats.carried, 0u);
  EXPECT_EQ(stats.invalidated, 2u);
  EXPECT_EQ(next.size(), 0u);
  EXPECT_EQ(prev.size(), 2u);
  EXPECT_EQ(prev.misses(), 2u);

  // The next lookup repopulates: a fresh miss, not a stale hit, and a new
  // object rather than the predecessor's.
  const Route& recomputed = next.lookup({0, 0}, {7, 7});
  EXPECT_EQ(next.misses(), 1u);
  EXPECT_EQ(next.hits(), 0u);
  EXPECT_EQ(next.size(), 1u);
  EXPECT_NE(&recomputed, &prev.lookup({0, 0}, {7, 7}));
  EXPECT_EQ(recomputed.path, router.route({0, 0}, {7, 7}).path);
}

// A route reference handed out by one view stays valid after that view is
// destroyed for as long as a successor that carried the entry lives: the
// successor serves the very same object.
TEST(RouteCacheTest, CarriedReferenceOutlivesTheViewThatComputedIt) {
  const Mesh2D m(8, 8);
  const grid::CellSet blocked(m);
  const XYRouter router(m, blocked);

  auto first = std::make_unique<RouteCache>(router, m);
  const Route& held = first->lookup({0, 0}, {7, 7});
  const RouteCache second(router, *first, 0);
  ASSERT_EQ(second.carry_stats().carried, 1u);
  first.reset();  // retiring reclaims; the carried entry stays
  EXPECT_EQ(&second.lookup({0, 0}, {7, 7}), &held);
  EXPECT_TRUE(held.delivered());
  EXPECT_EQ(held.path, router.route({0, 0}, {7, 7}).path);
}

// 6 readers look up on whichever view is current while one writer keeps
// publishing successors (each dirtying a rotating tile) and dropping its
// reference to the old one, so older views are destroyed — and reclaim —
// underneath readers, often on a reader thread, when that reader held the
// last reference. Readers keep a few (view, route) pairs and re-check them
// once the chain is done, so a route freed while its view lived would
// surface. Every answer must equal a fresh route. Run under ctest -L tsan
// this checks the lock-free hit path against turnover and reclamation.
TEST(RouteCacheTest, ConcurrentAdoptChainAndSharedLookupsStaySafe) {
  const Mesh2D m(16, 16);
  const grid::CellSet blocked{m, {{7, 7}, {8, 7}}};
  const FaultRingRouter router(m, blocked);
  const grid::TileGrid tiles(m);

  std::mutex slot_mutex;
  std::shared_ptr<const RouteCache> current =
      std::make_shared<RouteCache>(router, m);
  const auto acquire = [&] {
    std::lock_guard lock(slot_mutex);
    return current;
  };

  constexpr int kReaders = 6;
  constexpr int kLookups = 500;
  constexpr int kEpochs = 200;
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  threads.reserve(kReaders + 1);
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&, t] {
      struct Kept {
        Coord src, dst;
        std::shared_ptr<const RouteCache> view;
        const Route* route;
      };
      std::vector<Kept> kept;
      for (int i = 0; i < kLookups || !stop.load(); ++i) {
        const Coord src{t, (t + i) % 16};
        const Coord dst{15 - i % 3, (i / 3) % 16};
        if (src == dst) continue;
        const auto view = acquire();
        const Route& route = view->lookup(src, dst);
        ASSERT_TRUE(route.delivered());
        ASSERT_FALSE(route.path.empty());
        if (i % 64 == 0) kept.push_back({src, dst, view, &route});
      }
      for (const Kept& k : kept) {
        ASSERT_EQ(k.route->path, router.route(k.src, k.dst).path);
      }
    });
  }
  threads.emplace_back([&] {
    for (int e = 0; e < kEpochs; ++e) {
      auto next = std::make_shared<RouteCache>(
          router, *acquire(),
          std::uint64_t{1}
              << (static_cast<std::uint32_t>(e) % tiles.tile_count()));
      EXPECT_GE(next->size(), next->carry_stats().carried);
      std::lock_guard lock(slot_mutex);
      current = std::move(next);
    }
    stop.store(true);
  });
  for (auto& th : threads) th.join();

  // The survivor of the chain still answers every carried pair correctly.
  for (int t = 0; t < kReaders; ++t) {
    const Coord src{t, t};
    const Coord dst{15, 15};
    EXPECT_EQ(current->lookup(src, dst).path, router.route(src, dst).path);
  }
}

// Carry-over across an epoch boundary: entries whose footprint avoids the
// dirty tiles move to the successor cache and serve as hits; entries that
// touched the dirty tiles are dropped and recompute against the new router.
TEST(RouteCacheTest, AdoptCarriesCleanEntriesAndDropsDirtyOnes) {
  const Mesh2D m(32, 32);
  const grid::CellSet old_blocked{m, {{16, 16}, {17, 16}}};
  const FaultRingRouter old_router(m, old_blocked);
  RouteCache old_cache(old_router, m);

  const Coord far_src{1, 1}, far_dst{6, 2};       // top-left corner traffic
  const Coord near_src{12, 16}, near_dst{22, 16};  // crosses the fault
  (void)old_cache.lookup(far_src, far_dst);
  const Route near_before = old_cache.lookup(near_src, near_dst);
  ASSERT_EQ(old_cache.size(), 2u);

  // New epoch: a fault lands in the middle of the near route's old path, so
  // that route must change. Dirty tiles = the changed cell's padded
  // footprint, exactly what the ingest layer hands over.
  const Coord extra = near_before.path[near_before.path.size() / 2];
  ASSERT_NE(extra, near_src);
  ASSERT_NE(extra, near_dst);
  grid::CellSet new_blocked = old_blocked;
  new_blocked.insert(extra);
  const FaultRingRouter new_router(m, new_blocked);
  const grid::TileGrid tiles(m);
  const RouteCache new_cache(new_router, old_cache, tiles.padded_bits(extra));
  const auto stats = new_cache.carry_stats();

  EXPECT_EQ(stats.carried, 1u);
  EXPECT_EQ(stats.invalidated, 1u);
  EXPECT_EQ(new_cache.size(), 1u);

  // The carried entry answers as a hit and equals a fresh computation.
  const std::uint64_t hits_before = new_cache.hits();
  const Route& carried = new_cache.lookup(far_src, far_dst);
  EXPECT_EQ(new_cache.hits(), hits_before + 1);
  const Route fresh = new_router.route(far_src, far_dst);
  EXPECT_EQ(carried.status, fresh.status);
  EXPECT_EQ(carried.path, fresh.path);

  // The dropped entry recomputes under the new blocked set — and differs
  // from the old epoch's answer (the detour grew), proving invalidation was
  // necessary.
  const Route& recomputed = new_cache.lookup(near_src, near_dst);
  EXPECT_EQ(recomputed.path, new_router.route(near_src, near_dst).path);
  EXPECT_NE(recomputed.path, near_before.path);
}

// Carry-over shares entries instead of copying them: a carried pair is the
// very same Route object in both epochs, an invalidated pair recomputes
// into a distinct one, and the carried routes stay correct under the new
// blocked set once the predecessor is gone.
TEST(RouteCacheTest, CarriedEntriesAreSharedNotCopied) {
  const Mesh2D m(32, 32);
  const grid::CellSet old_blocked{m, {{16, 16}, {17, 16}}};
  const FaultRingRouter old_router(m, old_blocked);
  auto prev = std::make_unique<RouteCache>(old_router, m);

  const Coord far_src{1, 1}, far_dst{6, 2};
  const Coord near_src{12, 16}, near_dst{22, 16};
  const Route& far_prev = prev->lookup(far_src, far_dst);
  const Route& near_prev = prev->lookup(near_src, near_dst);
  const Coord extra = near_prev.path[near_prev.path.size() / 2];

  grid::CellSet new_blocked = old_blocked;
  new_blocked.insert(extra);
  const FaultRingRouter new_router(m, new_blocked);
  const grid::TileGrid tiles(m);
  const RouteCache next(new_router, *prev, tiles.padded_bits(extra));
  const auto stats = next.carry_stats();
  ASSERT_EQ(stats.carried, 1u);
  ASSERT_EQ(stats.invalidated, 1u);

  EXPECT_EQ(&next.lookup(far_src, far_dst), &far_prev)
      << "a carried pair must be the predecessor's object, not a copy";
  const Route& near_next = next.lookup(near_src, near_dst);
  EXPECT_NE(&near_next, &near_prev)
      << "an invalidated pair must be recomputed into a new object";

  prev.reset();
  EXPECT_EQ(next.lookup(far_src, far_dst).path,
            new_router.route(far_src, far_dst).path);
  EXPECT_EQ(next.lookup(near_src, near_dst).path,
            new_router.route(near_src, near_dst).path);
  EXPECT_EQ(next.misses(), 1u);
}

// The flat table starts small and rehashes as misses land. 6 threads walk
// one shared pair list from different offsets, so lookups mix hits with
// racing misses on the same keys while the table grows through several
// rehashes. Every answer must equal a fresh route, and the table must end
// with exactly one entry per distinct pair. Runs under ctest -L tsan.
TEST(RouteCacheTest, FlatTableGrowsUnderConcurrentHitsAndMisses) {
  const Mesh2D m(16, 16);
  const grid::CellSet blocked{m, {{7, 7}, {8, 7}, {3, 11}}};
  const FaultRingRouter router(m, blocked);
  RouteCache cache(router, m);

  struct Probe {
    Coord src, dst;
    Route expected;
  };
  std::vector<Probe> probes;
  for (int sy = 0; sy < 16; sy += 2) {
    for (int sx = 0; sx < 16; sx += 2) {
      for (int k = 0; k < 10; ++k) {
        const Coord src{sx, sy};
        const Coord dst{(sx + 3 * k + 5) % 16, (sy + 7 * k + 1) % 16};
        if (src == dst || blocked.contains(src) || blocked.contains(dst)) {
          continue;
        }
        probes.push_back({src, dst, router.route(src, dst)});
      }
    }
  }
  ASSERT_GE(probes.size(), 500u) << "enough pairs to force several rehashes";

  constexpr int kThreads = 6;
  constexpr int kRounds = 3;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::size_t n = probes.size();
      for (int round = 0; round < kRounds; ++round) {
        for (std::size_t i = 0; i < n; ++i) {
          const Probe& p = probes[(i + static_cast<std::size_t>(t) * n /
                                           kThreads) %
                                  n];
          const Route& route = cache.lookup(p.src, p.dst);
          ASSERT_EQ(route.status, p.expected.status);
          ASSERT_EQ(route.path, p.expected.path);
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  std::set<std::pair<std::size_t, std::size_t>> distinct;
  for (const Probe& p : probes) {
    distinct.emplace(m.index(p.src), m.index(p.dst));
  }
  EXPECT_EQ(cache.size(), distinct.size());
  EXPECT_EQ(cache.hits() + cache.misses(),
            static_cast<std::uint64_t>(kThreads) * kRounds * probes.size());
  EXPECT_GE(cache.misses(), distinct.size());
}

// Exhaustive soundness sweep: carry over every pair of a dense probe set,
// then check each surviving entry against a fresh computation under the
// changed blocked set. Any footprint under-approximation would surface as a
// stale path here.
TEST(RouteCacheTest, AdoptedEntriesMatchFreshRoutesExhaustively) {
  for (const auto topology : {mesh::Topology::Mesh, mesh::Topology::Torus}) {
    const Mesh2D m(16, 16, topology);
    const grid::CellSet old_blocked{m, {{4, 4}}};
    const FaultRingRouter old_router(m, old_blocked);
    RouteCache old_cache(old_router, m);

    std::vector<std::pair<Coord, Coord>> pairs;
    for (int sy = 0; sy < 16; sy += 3) {
      for (int sx = 0; sx < 16; sx += 3) {
        for (int dy = 1; dy < 16; dy += 5) {
          for (int dx = 2; dx < 16; dx += 5) {
            const Coord src{sx, sy}, dst{dx, dy};
            if (src == dst || old_blocked.contains(src) ||
                old_blocked.contains(dst)) {
              continue;
            }
            pairs.emplace_back(src, dst);
            (void)old_cache.lookup(src, dst);
          }
        }
      }
    }

    const grid::CellSet new_blocked{m, {{4, 4}, {11, 12}}};
    const FaultRingRouter new_router(m, new_blocked);
    const grid::TileGrid tiles(m);
    const RouteCache new_cache(new_router, old_cache,
                               tiles.padded_bits({11, 12}));
    const auto stats = new_cache.carry_stats();
    ASSERT_EQ(stats.carried + stats.invalidated, pairs.size());
    ASSERT_GE(stats.carried, 1u);

    const std::uint64_t size_after_turnover = new_cache.size();
    for (const auto& [src, dst] : pairs) {
      const Route& served = new_cache.lookup(src, dst);
      const Route fresh = new_router.route(src, dst);
      ASSERT_EQ(served.status, fresh.status)
          << "topology " << static_cast<int>(topology) << " "
          << mesh::to_string(src) << " -> " << mesh::to_string(dst);
      ASSERT_EQ(served.path, fresh.path)
          << "topology " << static_cast<int>(topology) << " "
          << mesh::to_string(src) << " -> " << mesh::to_string(dst);
    }
    // Carried entries were hits; invalidated ones missed and repopulated.
    EXPECT_EQ(new_cache.hits(), stats.carried);
    EXPECT_EQ(new_cache.misses(), stats.invalidated);
    EXPECT_EQ(size_after_turnover, stats.carried);
  }
}

// Turnover must tolerate the previous view still serving (and inserting)
// concurrently — the ingest thread publishes the next epoch while query
// threads keep hitting the current one. Every successor here branches from
// the same predecessor, so each also stamps its siblings' masks; whatever a
// successor accepts must equal a fresh route.
TEST(RouteCacheTest, AdoptRacesLookupsOnThePreviousEpochSafely) {
  const Mesh2D m(16, 16);
  const grid::CellSet blocked{m, {{7, 7}}};
  const FaultRingRouter router(m, blocked);
  RouteCache prev(router, m);

  constexpr int kReaders = 4;
  constexpr int kAdopts = 50;
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&prev, &stop, t] {
      for (int i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        const Coord src{t, (t + i) % 16};
        const Coord dst{15 - i % 4, (i / 4) % 16};
        if (src == dst) continue;
        ASSERT_FALSE(prev.lookup(src, dst).path.empty());
      }
    });
  }
  const grid::TileGrid tiles(m);
  for (int i = 0; i < kAdopts; ++i) {
    const RouteCache next(router, prev, tiles.padded_bits({7, 7}));
    EXPECT_GE(next.size(), next.carry_stats().carried);
    for (int t = 0; t < kReaders; ++t) {
      const Coord src{t, t};
      const Coord dst{15 - i % 4, (i / 4) % 16};
      if (src == dst) continue;
      ASSERT_EQ(next.lookup(src, dst).path, router.route(src, dst).path);
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : readers) th.join();
}

// Hits probe the store without a lock; only a miss takes the writer mutex,
// once, to insert.
TEST(RouteCacheTest, HitsTakeNoLockAndMissesTakeTheWriterMutexOnce) {
  const Mesh2D m(8, 8);
  const grid::CellSet blocked(m);
  const XYRouter router(m, blocked);
  RouteCache cache(router, m);
  for (int i = 0; i < 10; ++i) (void)cache.lookup({0, 0}, {7, 7});
  (void)cache.lookup({7, 7}, {0, 0});
  EXPECT_EQ(cache.hits(), 9u);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.exclusive_lock_acquisitions(), 2u);
}

// Two successors of one predecessor (a withheld epoch and its retry): the
// second must stamp the first's dirty tiles as well as its own. Sibling A
// routes a pair around its fault; sibling B never had that fault, so
// serving A's detour to B would be stale.
TEST(RouteCacheTest, BranchingSuccessorStampsItsSiblingsMasks) {
  const Mesh2D m(64, 64);  // 8x8 tiles: masks stay local
  const grid::TileGrid tiles(m);
  const grid::CellSet none(m);
  const FaultRingRouter base_router(m, none);
  RouteCache prev(base_router, m);

  const Coord src{36, 2}, dst{36, 60};
  const Coord fa{36, 36}, fb{4, 4};
  const grid::CellSet blocked_a{m, {fa}};
  const FaultRingRouter router_a(m, blocked_a);
  std::vector<Coord> detour;
  {
    const RouteCache a(router_a, prev, tiles.padded_bits(fa));
    detour = a.lookup(src, dst).path;
    ASSERT_EQ(detour, router_a.route(src, dst).path);
  }  // withheld: the view dies, its entry stays in the store

  const grid::CellSet blocked_b{m, {fb}};
  const FaultRingRouter router_b(m, blocked_b);
  ASSERT_EQ(tiles.padded_bits(fb) & tiles.padded_bits(fa), 0u);
  ASSERT_EQ(tiles.padded_bits(fb) & tiles.padded_bits(src), 0u)
      << "only A's mask may meet the pair's footprint";
  const RouteCache b(router_b, prev, tiles.padded_bits(fb));
  EXPECT_EQ(b.carry_stats().invalidated, 1u)
      << "A's entry meets A's mask, which B must stamp too";
  const Route& served = b.lookup(src, dst);
  EXPECT_EQ(served.path, router_b.route(src, dst).path);
  EXPECT_NE(served.path, detour);
  EXPECT_EQ(b.misses(), 1u);
}

// A reader still on an old version misses after a newer version exists.
// Its entry is born at the old version, so the newer view — whose stamps
// show a tile of the footprint dirtied since — never serves it; an entry no
// later mask meets is live, served to the newer view, and indexed for
// later turnovers.
TEST(RouteCacheTest, StaleReaderInsertNeverReachesAVersionItWasNotComputedFor) {
  const Mesh2D m(64, 64);  // 8x8 tiles: masks stay local
  const grid::TileGrid tiles(m);
  const grid::CellSet none(m);
  const FaultRingRouter old_router(m, none);
  RouteCache stale(old_router, m);

  const Coord fault{36, 36};
  const grid::CellSet blocked{m, {fault}};
  const FaultRingRouter new_router(m, blocked);
  RouteCache fresh(new_router, stale, tiles.padded_bits(fault));

  const Coord near_src{36, 2}, near_dst{36, 60};  // crosses the new fault
  const Coord far_src{4, 4}, far_dst{4, 12};      // nowhere near it
  const Route& old_near = stale.lookup(near_src, near_dst);
  const Route& old_far = stale.lookup(far_src, far_dst);
  EXPECT_EQ(stale.misses(), 2u);
  EXPECT_EQ(old_near.path, old_router.route(near_src, near_dst).path);

  const Route& new_near = fresh.lookup(near_src, near_dst);
  EXPECT_NE(&new_near, &old_near);
  EXPECT_EQ(new_near.path, new_router.route(near_src, near_dst).path);
  EXPECT_NE(new_near.path, old_near.path);
  EXPECT_EQ(&fresh.lookup(far_src, far_dst), &old_far);
  EXPECT_EQ(fresh.hits(), 1u);
  EXPECT_EQ(fresh.misses(), 1u);
  EXPECT_EQ(&stale.lookup(near_src, near_dst), &old_near);

  // The stale reader's live entry is indexed: a later fault on its path
  // kills it like any other.
  const Coord on_far_path{4, 8};
  grid::CellSet later_blocked = blocked;
  later_blocked.insert(on_far_path);
  const FaultRingRouter later_router(m, later_blocked);
  const RouteCache later(later_router, fresh, tiles.padded_bits(on_far_path));
  EXPECT_EQ(later.lookup(far_src, far_dst).path,
            later_router.route(far_src, far_dst).path);
  EXPECT_EQ(later.misses(), 1u);
}

// Reclamation (run as views retire) frees a dead entry once no live view
// can accept it — no live version lies between its birth and its death —
// and no lookup is in flight; a reference held through a live view stays
// intact meanwhile. A view kept alive but idle holds only the entries it
// accepts: entries born and dead after it are freed as the views that
// could serve them retire. ASan turns a premature free into a failure.
TEST(RouteCacheTest, ReclaimFreesOnlyWhatNoLiveViewCanReach) {
  const Mesh2D m(8, 8);
  const grid::CellSet blocked(m);
  const XYRouter router(m, blocked);
  auto v0 = std::make_unique<RouteCache>(router, m);
  const Route& held = v0->lookup({0, 0}, {7, 7});
  (void)v0->lookup({1, 1}, {6, 6});
  const std::vector<Coord> expected = held.path;

  auto v1 = std::make_unique<RouteCache>(router, *v0, ~std::uint64_t{0});
  EXPECT_EQ(v1->store_stats().live, 0u);
  EXPECT_EQ(v1->store_stats().awaiting, 2u);  // v0 still reads both
  EXPECT_EQ(held.path, expected);
  EXPECT_EQ(&v0->lookup({0, 0}, {7, 7}), &held);

  v0.reset();  // nothing accepts them any more
  EXPECT_EQ(v1->store_stats().awaiting, 0u);
  const auto idle = std::make_unique<RouteCache>(router, *v1, 0);
  v1.reset();
  const Route& kept = idle->lookup({0, 0}, {7, 7});
  EXPECT_EQ(kept.path, expected);
  EXPECT_EQ(idle->store_stats().live, 1u);

  // `idle` stays alive while 50 later versions each add a route and die.
  auto cur = std::make_unique<RouteCache>(router, *idle, ~std::uint64_t{0});
  EXPECT_EQ(cur->store_stats().awaiting, 1u);  // `idle` may still serve it
  for (int i = 0; i < 50; ++i) {
    (void)cur->lookup({0, 0}, {7, 7});
    auto next = std::make_unique<RouteCache>(router, *cur, ~std::uint64_t{0});
    cur = std::move(next);
    EXPECT_LE(cur->store_stats().awaiting, 2u) << "cycle " << i;
  }
  EXPECT_EQ(&idle->lookup({0, 0}, {7, 7}), &kept);
  EXPECT_EQ(kept.path, expected);
  EXPECT_GT(cur->store_stats().bytes, 0u);
}

}  // namespace
}  // namespace ocp::routing
