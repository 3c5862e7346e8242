#include "routing/route_cache.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <mutex>
#include <utility>

namespace ocp::routing {

namespace {

std::uint64_t pair_key(const mesh::Mesh2D& m, mesh::Coord src,
                       mesh::Coord dst) {
  return static_cast<std::uint64_t>(m.index(src)) *
             static_cast<std::uint64_t>(m.node_count()) +
         static_cast<std::uint64_t>(m.index(dst));
}

constexpr std::size_t kMinCapacity = 16;

}  // namespace

std::size_t RouteCache::Table::home(std::uint64_t key) const noexcept {
  // Fibonacci hashing: pair keys are dense row-major products, so the
  // multiply spreads neighboring pairs across the whole table.
  return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
}

const RouteCache::Slot* RouteCache::Table::find(
    std::uint64_t key) const noexcept {
  if (count_ == 0) return nullptr;
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = home(key);; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (!slot.route) return nullptr;
    if (slot.key == key) return &slot;
  }
}

void RouteCache::Table::reserve(std::size_t n) {
  if (2 * n <= slots_.size()) return;
  const std::size_t capacity = std::bit_ceil(std::max(2 * n, kMinCapacity));
  std::vector<Slot> old = std::exchange(slots_, std::vector<Slot>(capacity));
  shift_ = 64 - static_cast<std::uint32_t>(std::countr_zero(capacity));
  const std::size_t mask = capacity - 1;
  for (Slot& slot : old) {
    if (!slot.route) continue;
    std::size_t i = home(slot.key);
    while (slots_[i].route) i = (i + 1) & mask;
    slots_[i] = std::move(slot);
  }
}

RouteCache::Slot& RouteCache::Table::claim(std::uint64_t key) {
  reserve(count_ + 1);
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = home(key);
  while (slots_[i].route && slots_[i].key != key) i = (i + 1) & mask;
  Slot& slot = slots_[i];
  if (!slot.route) {
    slot.key = key;
    ++count_;
  }
  return slot;
}

const Route& RouteCache::lookup(mesh::Coord src, mesh::Coord dst) const {
  const std::uint64_t key = pair_key(mesh_, src, dst);
  {
    shared_locks_.fetch_add(1, std::memory_order_relaxed);
    std::shared_lock lock(mutex_);
    if (const Slot* slot = table_.find(key)) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      // Stable for the cache's lifetime: the table owns a reference to the
      // route, and a rehash moves only the pointer.
      return *slot->route;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  return *miss(key, src, dst);
}

std::shared_ptr<const Route> RouteCache::lookup_shared(mesh::Coord src,
                                                       mesh::Coord dst) const {
  const std::uint64_t key = pair_key(mesh_, src, dst);
  {
    shared_locks_.fetch_add(1, std::memory_order_relaxed);
    std::shared_lock lock(mutex_);
    if (const Slot* slot = table_.find(key)) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      // The route's own handle: a hit never allocates and contends only
      // with readers of the same route.
      return slot->route;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  return miss(key, src, dst);
}

RouteCache::RoutePtr RouteCache::miss(std::uint64_t key, mesh::Coord src,
                                      mesh::Coord dst) const {
  // Route outside any lock (wall-following can be slow); insertion races
  // are benign because both threads computed the identical route.
  auto fresh = std::make_shared<const Route>(router_->route(src, dst));
  const std::uint64_t tiles = footprint(*fresh, src, dst);

  exclusive_locks_.fetch_add(1, std::memory_order_relaxed);
  std::unique_lock lock(mutex_);
  Slot& slot = table_.claim(key);
  if (!slot.route) {
    slot.tiles = tiles;
    slot.route = std::move(fresh);
  }
  return slot.route;
}

std::uint64_t RouteCache::footprint(const Route& route, mesh::Coord src,
                                    mesh::Coord dst) const {
  // Everything the router can have probed: it consults the blocked set only
  // at the endpoints and at 4-neighbors of cells it visited, and every
  // visited cell is on the recorded path.
  std::uint64_t bits = 0;
  if (mesh_.contains(src)) bits |= tiles_.padded_bits(src);
  if (mesh_.contains(dst)) bits |= tiles_.padded_bits(dst);
  for (const mesh::Coord c : route.path) bits |= tiles_.padded_bits(c);
  return bits;
}

RouteCache::AdoptStats RouteCache::adopt(const RouteCache& prev,
                                         std::uint64_t dirty_tiles) {
  assert(&prev != this && "a cache cannot adopt itself");
  AdoptStats stats;
  // `prev` may still be serving: concurrent misses insert under its
  // exclusive lock, so holding its shared lock freezes the table for the
  // whole pass. Lock order (prev shared, then self exclusive) is safe
  // because adoption only ever flows old epoch -> new epoch.
  std::shared_lock prev_lock(prev.mutex_);
  std::unique_lock lock(mutex_);
  table_.reserve(table_.size() + prev.table_.size());
  for (const Slot& from : prev.table_.slots()) {
    if (!from.route) continue;
    if ((from.tiles & dirty_tiles) != 0) {
      ++stats.invalidated;
      continue;
    }
    Slot& to = table_.claim(from.key);
    if (to.route) displaced_.push_back(std::move(to.route));
    to.tiles = from.tiles;
    to.route = from.route;
    ++stats.carried;
  }
  return stats;
}

std::size_t RouteCache::size() const {
  std::shared_lock lock(mutex_);
  return table_.size();
}

}  // namespace ocp::routing
