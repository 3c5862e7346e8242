#include "routing/route_cache.hpp"

#include <algorithm>
#include <bit>
#include <deque>
#include <limits>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

#include "grid/tiles.hpp"

namespace ocp::routing {

namespace {

/// Slot key of a never-claimed slot; pair keys are < node_count².
constexpr std::uint64_t kEmptyKey = std::numeric_limits<std::uint64_t>::max();
constexpr std::size_t kMinCapacity = 16;
/// Stale tile references tolerated beyond the live ones before
/// reclamation compacts the tile index.
constexpr std::size_t kStaleSlack = 1024;
/// Versions whose stamped masks the writer keeps, so deciding whether an
/// entry born that recently is still live is one mask test.
constexpr std::size_t kRecent = 256;
/// A reader slot's era while its thread is not inside a lookup.
constexpr std::uint64_t kQuiescent = std::numeric_limits<std::uint64_t>::max();

using Stamps = std::array<std::uint64_t, 64>;

/// Process-wide registry of lookup announcements, for freeing unlinked
/// memory only once no lookup that could still be walking it is running.
/// A lookup stores the current era in its thread's slot for its duration;
/// the reclaimer bumps the era after unlinking and frees what it unlinked
/// once every slot is quiescent or announces a later era. All accesses on
/// both sides are sequentially consistent, so either the reclaimer's scan
/// sees a lookup's announcement or that lookup's loads see the unlink.
class Readers {
 public:
  struct Slot {
    alignas(64) std::atomic<std::uint64_t> era{kQuiescent};
    std::atomic<bool> taken{true};
    Slot* next = nullptr;
  };

  static Readers& instance() {
    static Readers* const readers = new Readers;  // outlives every thread
    return *readers;
  }

  /// This thread's slot, claimed on first use and released at thread exit.
  Slot& mine() {
    thread_local Slot* slot = nullptr;
    if (slot == nullptr) [[unlikely]] slot = claim();
    return *slot;
  }

  [[nodiscard]] std::uint64_t era() const noexcept { return era_.load(); }
  /// Ends the current era; returns it (the tag of what was just unlinked).
  std::uint64_t bump() noexcept { return era_.fetch_add(1); }

  /// The oldest era an in-flight lookup announced, kQuiescent if none.
  [[nodiscard]] std::uint64_t oldest_active() const noexcept {
    std::uint64_t oldest = kQuiescent;
    for (const Slot* s = head_.load(); s != nullptr; s = s->next) {
      oldest = std::min(oldest, s->era.load());
    }
    return oldest;
  }

 private:
  struct Release {
    Slot* slot = nullptr;
    ~Release() {
      if (slot != nullptr) slot->taken.store(false, std::memory_order_release);
    }
  };

  Slot* claim() {
    Slot* slot = nullptr;
    for (Slot* s = head_.load(std::memory_order_acquire); s != nullptr;
         s = s->next) {
      bool expected = false;
      if (s->taken.compare_exchange_strong(expected, true,
                                           std::memory_order_acquire)) {
        slot = s;
        break;
      }
    }
    if (slot == nullptr) {
      slot = new Slot;  // never freed: slots are reused across threads
      slot->next = head_.load(std::memory_order_relaxed);
      while (!head_.compare_exchange_weak(slot->next, slot,
                                          std::memory_order_release,
                                          std::memory_order_relaxed)) {
      }
    }
    thread_local Release release;
    release.slot = slot;
    return slot;
  }

  std::atomic<Slot*> head_{nullptr};
  std::atomic<std::uint64_t> era_{1};
};

/// `counter += delta` for a counter only the writer-mutex holder changes
/// but that gauges read without the lock.
void bump(std::atomic<std::size_t>& counter, std::ptrdiff_t delta) {
  counter.store(counter.load(std::memory_order_relaxed) +
                    static_cast<std::size_t>(delta),
                std::memory_order_relaxed);
}

}  // namespace

class RouteStore {
 public:
  /// One memoized route. Immutable while linked except `older` (relinked
  /// when the entry after it in its key's chain is unlinked); the writer
  /// refills a freed entry for a later insert (see `spare_`).
  struct Entry {
    Entry(std::uint64_t k, std::uint64_t b, std::uint64_t t, Route r)
        : key(k), born(b), tiles(t), route(std::move(r)) {}
    std::uint64_t key;
    /// The version the route was computed at.
    std::uint64_t born;
    /// The padded tile footprint.
    std::uint64_t tiles;
    Route route;
    /// The next entry of the same key (chains run newest first).
    std::atomic<Entry*> older{nullptr};
  };

  explicit RouteStore(const mesh::Mesh2D& machine)
      : mesh_(machine), tiles_(machine), table_(new Table(kMinCapacity)) {
    pins_.try_emplace(0);
    bump(bytes_, static_cast<std::ptrdiff_t>(Table::bytes(kMinCapacity)));
  }

  RouteStore(const RouteStore&) = delete;
  RouteStore& operator=(const RouteStore&) = delete;

  ~RouteStore() {
    // No view is left, so nothing reads concurrently: free every chain of
    // the current table (dead-but-linked entries included), then what
    // reclamation had already unlinked.
    Table* table = table_.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i <= table->mask; ++i) {
      Entry* e = table->slots[i].head.load(std::memory_order_relaxed);
      while (e != nullptr) {
        delete std::exchange(e, e->older.load(std::memory_order_relaxed));
      }
    }
    delete table;
    for (const Retired& r : retired_) {
      delete r.entry;
      delete r.table;
    }
    for (Entry* e : spare_) delete e;
  }

  /// The live-view count of the first version (the constructing view's).
  [[nodiscard]] std::atomic<std::uint32_t>* first_pin() {
    return &pins_.begin()->second.views;
  }

  [[nodiscard]] std::uint64_t key(mesh::Coord src,
                                  mesh::Coord dst) const noexcept {
    return static_cast<std::uint64_t>(mesh_.index(src)) *
               static_cast<std::uint64_t>(mesh_.node_count()) +
           static_cast<std::uint64_t>(mesh_.index(dst));
  }

  [[nodiscard]] std::uint64_t footprint(const Route& route, mesh::Coord src,
                                        mesh::Coord dst) const {
    // Everything the router can have probed: it consults the blocked set
    // only at the endpoints and at 4-neighbors of cells it visited, and
    // every visited cell is on the recorded path.
    std::uint64_t bits = 0;
    if (mesh_.contains(src)) bits |= tiles_.padded_bits(src);
    if (mesh_.contains(dst)) bits |= tiles_.padded_bits(dst);
    for (const mesh::Coord c : route.path) bits |= tiles_.padded_bits(c);
    return bits;
  }

  /// Whether a view at `version` with tile stamps `stamps` accepts an
  /// entry born at `born` with footprint `tiles`.
  [[nodiscard]] static bool valid(std::uint64_t born, std::uint64_t tiles,
                                  std::uint64_t version,
                                  const Stamps& stamps) noexcept {
    if (born > version) return false;
    for (std::uint64_t bits = tiles; bits != 0; bits &= bits - 1) {
      if (stamps[static_cast<std::size_t>(std::countr_zero(bits))] > born) {
        return false;
      }
    }
    return true;
  }

  /// Lock-free: the entry for `key` a view at `version` accepts, or
  /// nullptr.
  [[nodiscard]] const Entry* find(std::uint64_t key, std::uint64_t version,
                                  const Stamps& stamps) const noexcept {
    Readers& readers = Readers::instance();
    Readers::Slot& me = readers.mine();
    me.era.store(readers.era());
    const Entry* found = nullptr;
    const Table* table = table_.load();
    for (std::size_t i = table->home(key);; i = (i + 1) & table->mask) {
      const Slot& slot = table->slots[i];
      const std::uint64_t k = slot.key.load(std::memory_order_acquire);
      if (k == kEmptyKey) break;
      if (k != key) continue;
      for (const Entry* e = slot.head.load(); e != nullptr;
           e = e->older.load()) {
        if (valid(e->born, e->tiles, version, stamps)) {
          found = e;
          break;
        }
      }
      break;
    }
    me.era.store(kQuiescent, std::memory_order_release);
    return found;
  }

  /// Inserts the route a miss at `version` computed, or returns the entry
  /// that view accepts if a racing miss inserted one first.
  const Entry& insert(std::uint64_t key, std::uint64_t version,
                      const Stamps& stamps, std::uint64_t tiles, Route route) {
    std::lock_guard lock(mu_);
    Slot& slot = claim(key);
    for (const Entry* e = slot.head.load(std::memory_order_relaxed);
         e != nullptr; e = e->older.load(std::memory_order_relaxed)) {
      if (valid(e->born, e->tiles, version, stamps)) return *e;
    }
    Entry* entry = nullptr;
    if (spare_.empty()) {
      entry = new Entry(key, version, tiles, std::move(route));
    } else {
      entry = spare_.back();
      spare_.pop_back();
      bump(bytes_, -static_cast<std::ptrdiff_t>(bytes_of(*entry)));
      entry->key = key;
      entry->born = version;
      entry->tiles = tiles;
      entry->route = std::move(route);
    }
    entry->older.store(slot.head.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
    bump(bytes_, static_cast<std::ptrdiff_t>(bytes_of(*entry)));
    if (valid(version, tiles, head_, last_)) {
      bump(live_, 1);
      live_refs_ += static_cast<std::size_t>(std::popcount(tiles));
      add_refs(static_cast<std::size_t>(std::popcount(tiles)));
      for (std::uint64_t bits = tiles; bits != 0; bits &= bits - 1) {
        by_tile_[static_cast<std::size_t>(std::countr_zero(bits))].push_back(
            {entry, version, tiles});
      }
    } else {
      // A stale view's miss that a newer version already changed: only
      // views from `version` up to at most the newest can accept it.
      bump(awaiting_, 1);
      dying_.push_back({entry, version, head_ + 1});
    }
    slot.head.store(entry, std::memory_order_release);
    return *entry;
  }

  struct Advance {
    std::uint64_t version;
    std::atomic<std::uint32_t>* pin;
    RouteCache::CarryStats stats;
  };

  /// Opens the version after `parent` (a live view's version): stamps the
  /// tiles of `dirty` and every tile dirtied since `parent`, into
  /// `stamps`, and hands the entries that die to reclamation. O(tile
  /// references on the dirty tiles), reading only the tile lists.
  Advance advance(std::uint64_t parent, std::uint64_t dirty, Stamps& stamps) {
    std::lock_guard lock(mu_);
    std::uint64_t mask = dirty;
    for (std::size_t t = 0; t < last_.size(); ++t) {
      if (last_[t] > parent) mask |= std::uint64_t{1} << t;
    }
    refresh_since();
    const std::uint64_t version = head_ + 1;
    std::size_t invalidated = 0;
    for (std::uint64_t bits = mask; bits != 0; bits &= bits - 1) {
      // Every live entry on a dirty tile's list dies, so the walk empties
      // the list. An entry on several dirty tiles is counted on the first
      // of them; references to entries already dead are skipped.
      const auto tile = static_cast<std::size_t>(std::countr_zero(bits));
      std::vector<Ref>& list = by_tile_[tile];
      for (const Ref& ref : list) {
        if (static_cast<std::size_t>(std::countr_zero(ref.tiles & mask)) !=
                tile ||
            !alive(ref)) {
          continue;
        }
        dying_.push_back({ref.entry, ref.born, version});
        live_refs_ -= static_cast<std::size_t>(std::popcount(ref.tiles));
        ++invalidated;
      }
      add_refs(-static_cast<std::ptrdiff_t>(list.size()));
      list.clear();
    }
    for (std::uint64_t bits = mask; bits != 0; bits &= bits - 1) {
      last_[static_cast<std::size_t>(std::countr_zero(bits))] = version;
    }
    head_ = version;
    recent_[version % kRecent] = mask;
    stamps = last_;
    bump(live_, -static_cast<std::ptrdiff_t>(invalidated));
    bump(awaiting_, static_cast<std::ptrdiff_t>(invalidated));
    Pin& pin = pins_.try_emplace(pins_.end(), version)->second;
    return {version,
            &pin.views,
            {.carried = live_.load(std::memory_order_relaxed),
             .invalidated = invalidated}};
  }

  /// Unlinks the dead entries no live view accepts, and frees what no
  /// in-flight lookup can still be walking. O(reclaimed), plus the dead
  /// entries of a released view re-examined once, plus a compaction of
  /// the tile index amortized over the stale references it drops. Returns
  /// at once when the writer mutex is busy.
  void reclaim() {
    std::unique_lock lock(mu_, std::try_to_lock);
    if (!lock.owns_lock()) return;
    // Released versions: their held entries may have no acceptor left.
    live_pins_.clear();
    for (auto it = pins_.begin(); it != pins_.end();) {
      if (it->second.views.load(std::memory_order_acquire) == 0) {
        dying_.insert(dying_.end(), it->second.held.begin(),
                      it->second.held.end());
        it = pins_.erase(it);
      } else {
        live_pins_.emplace_back(it->first, &it->second);
        ++it;
      }
    }
    // An entry is held by the newest live version in [born, dead), which
    // may still serve it; with none, no view ever will again.
    bool unlinked = false;
    for (const Dead& d : dying_) {
      const auto holder = std::lower_bound(
          live_pins_.begin(), live_pins_.end(), d.dead,
          [](const auto& pin, std::uint64_t v) { return pin.first < v; });
      if (holder != live_pins_.begin() && std::prev(holder)->first >= d.born) {
        std::prev(holder)->second->held.push_back(d);
      } else {
        unlink(*d.entry);
        unlinked = true;
      }
    }
    dying_.clear();
    if (unlinked) {
      const std::uint64_t tag = Readers::instance().bump();
      for (auto it = retired_.rbegin(); it != retired_.rend() && it->tag == 0;
           ++it) {
        it->tag = tag;
      }
    }
    free_retired();
    if (tile_refs_ > 2 * live_refs_ + kStaleSlack) compact();
  }

  [[nodiscard]] RouteCache::StoreStats stats() const noexcept {
    return {.live = live_.load(std::memory_order_relaxed),
            .awaiting = awaiting_.load(std::memory_order_relaxed),
            .bytes = bytes_.load(std::memory_order_relaxed)};
  }

  /// Distinct keys a view at `version` accepts.
  [[nodiscard]] std::size_t visible(std::uint64_t version,
                                    const Stamps& stamps) const {
    std::lock_guard lock(mu_);
    const Table* table = table_.load(std::memory_order_relaxed);
    std::size_t n = 0;
    for (std::size_t i = 0; i <= table->mask; ++i) {
      for (const Entry* e =
               table->slots[i].head.load(std::memory_order_relaxed);
           e != nullptr; e = e->older.load(std::memory_order_relaxed)) {
        if (valid(e->born, e->tiles, version, stamps)) {
          ++n;
          break;
        }
      }
    }
    return n;
  }

 private:
  /// A table slot: claimed once for one key (readers see the key with
  /// acquire), then the head of that key's entry chain.
  struct Slot {
    std::atomic<std::uint64_t> key{kEmptyKey};
    std::atomic<Entry*> head{nullptr};
  };

  /// Insert-only linear-probing table, power-of-two capacity, at most half
  /// of it claimed.
  struct Table {
    explicit Table(std::size_t capacity)
        : slots(new Slot[capacity]),
          mask(capacity - 1),
          shift(64 - static_cast<std::uint32_t>(std::countr_zero(capacity))) {}
    [[nodiscard]] std::size_t home(std::uint64_t key) const noexcept {
      // Fibonacci hashing: pair keys are dense row-major products, so the
      // multiply spreads neighboring pairs across the whole table.
      return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> shift);
    }
    static std::size_t bytes(std::size_t capacity) {
      return sizeof(Table) + capacity * sizeof(Slot);
    }
    std::unique_ptr<Slot[]> slots;
    std::size_t mask;
    std::uint32_t shift;
    std::size_t used = 0;  // claimed slots
  };

  /// A tile-list reference: the entry with copies of what deciding whether
  /// it is still live needs, so a walk never touches a dead (possibly
  /// freed) entry.
  struct Ref {
    Entry* entry;
    std::uint64_t born;
    std::uint64_t tiles;
  };

  /// A dead entry with its validity interval [born, dead), kept beside
  /// the entry so turnover never writes to it. `dead` may be an upper
  /// bound (a stale miss already dead at the newest version).
  struct Dead {
    Entry* entry;
    std::uint64_t born;
    std::uint64_t dead;
  };

  /// One live version: how many views read it, and the dead entries it
  /// keeps (it may still serve them).
  struct Pin {
    std::atomic<std::uint32_t> views{1};
    std::vector<Dead> held;
  };

  /// An unlinked entry or a swapped-out table, freed once no lookup that
  /// started before era `tag` ends is in flight (0: tag not yet set).
  struct Retired {
    std::uint64_t tag = 0;
    Entry* entry = nullptr;
    Table* table = nullptr;
  };

  static std::size_t bytes_of(const Entry& e) {
    return sizeof(Entry) + e.route.path.capacity() * sizeof(mesh::Coord) +
           e.route.phase.capacity();
  }

  void add_refs(std::ptrdiff_t n) {
    tile_refs_ += static_cast<std::size_t>(n);
    bump(bytes_, n * static_cast<std::ptrdiff_t>(sizeof(Ref)));
  }

  /// The current table's slot for `key`, or nullptr.
  [[nodiscard]] Slot* slot_of(std::uint64_t key) {
    Table* table = table_.load(std::memory_order_relaxed);
    for (std::size_t i = table->home(key);; i = (i + 1) & table->mask) {
      const std::uint64_t k =
          table->slots[i].key.load(std::memory_order_relaxed);
      if (k == key) return &table->slots[i];
      if (k == kEmptyKey) return nullptr;
    }
  }

  /// The current table's slot for `key`, claimed if it has none (growing
  /// the table first when it would pass half full).
  Slot& claim(std::uint64_t key) {
    if (Slot* slot = slot_of(key)) return *slot;
    Table* table = table_.load(std::memory_order_relaxed);
    if (2 * (table->used + 1) > table->mask + 1) table = grow();
    std::size_t i = table->home(key);
    while (table->slots[i].key.load(std::memory_order_relaxed) != kEmptyKey) {
      i = (i + 1) & table->mask;
    }
    ++table->used;
    table->slots[i].key.store(key, std::memory_order_release);
    return table->slots[i];
  }

  /// Swaps in a table with room for twice the keys that still have
  /// entries; the old one stays readable until no lookup can be on it.
  Table* grow() {
    Table* old = table_.load(std::memory_order_relaxed);
    std::size_t keys = 0;
    for (std::size_t i = 0; i <= old->mask; ++i) {
      if (old->slots[i].head.load(std::memory_order_relaxed) != nullptr) {
        ++keys;
      }
    }
    const std::size_t capacity =
        std::bit_ceil(std::max(4 * (keys + 1), kMinCapacity));
    auto* table = new Table(capacity);
    for (std::size_t i = 0; i <= old->mask; ++i) {
      Entry* head = old->slots[i].head.load(std::memory_order_relaxed);
      if (head == nullptr) continue;
      const std::uint64_t key =
          old->slots[i].key.load(std::memory_order_relaxed);
      std::size_t j = table->home(key);
      while (table->slots[j].key.load(std::memory_order_relaxed) !=
             kEmptyKey) {
        j = (j + 1) & table->mask;
      }
      table->slots[j].head.store(head, std::memory_order_relaxed);
      table->slots[j].key.store(key, std::memory_order_relaxed);
      ++table->used;
    }
    bump(bytes_, static_cast<std::ptrdiff_t>(Table::bytes(capacity)));
    table_.store(table);
    retired_.push_back({.tag = Readers::instance().bump(), .table = old});
    return table;
  }

  /// Takes `e` out of its key's chain; lookups already on it may finish.
  void unlink(Entry& e) {
    Slot* slot = slot_of(e.key);
    std::atomic<Entry*>* link = &slot->head;
    for (Entry* cur = link->load(std::memory_order_relaxed); cur != &e;
         cur = link->load(std::memory_order_relaxed)) {
      link = &cur->older;
    }
    link->store(e.older.load(std::memory_order_relaxed));
    retired_.push_back({.entry = &e});
  }

  /// Frees the retired entries and tables no in-flight lookup can reach.
  /// Entries are kept as spares, up to the live count, for later inserts
  /// to refill: a turnover's worth of route frees at once would otherwise
  /// leave the allocator's small-chunk lists long for whichever thread
  /// allocates next.
  void free_retired() {
    const std::uint64_t oldest = Readers::instance().oldest_active();
    const std::size_t spare_cap = live_.load(std::memory_order_relaxed) + 64;
    while (!retired_.empty() && retired_.front().tag != 0 &&
           retired_.front().tag < oldest) {
      const Retired r = retired_.front();
      retired_.pop_front();
      if (r.entry != nullptr) {
        bump(awaiting_, -1);
        if (spare_.size() < spare_cap) {
          spare_.push_back(r.entry);
        } else {
          bump(bytes_, -static_cast<std::ptrdiff_t>(bytes_of(*r.entry)));
          delete r.entry;
        }
      }
      if (r.table != nullptr) {
        bump(bytes_,
             -static_cast<std::ptrdiff_t>(Table::bytes(r.table->mask + 1)));
        delete r.table;
      }
    }
  }

  /// Recomputes `since_` for the current `head_`.
  void refresh_since() {
    since_[0] = 0;
    const std::size_t span =
        static_cast<std::size_t>(std::min<std::uint64_t>(head_, kRecent - 1));
    for (std::size_t d = 1; d <= span; ++d) {
      since_[d] = since_[d - 1] | recent_[(head_ - d + 1) % kRecent];
    }
  }

  /// Whether the entry behind `ref` is valid at `head_`; needs `since_`
  /// fresh for `head_`.
  [[nodiscard]] bool alive(const Ref& ref) const noexcept {
    const std::uint64_t age = head_ - ref.born;
    if (age < kRecent) return (ref.tiles & since_[age]) == 0;
    return valid(ref.born, ref.tiles, head_, last_);
  }

  /// Drops every tile reference to a dead entry.
  void compact() {
    refresh_since();
    for (std::vector<Ref>& list : by_tile_) {
      const std::size_t before = list.size();
      std::erase_if(list, [this](const Ref& ref) { return !alive(ref); });
      add_refs(static_cast<std::ptrdiff_t>(list.size()) -
               static_cast<std::ptrdiff_t>(before));
    }
  }

  mesh::Mesh2D mesh_;
  grid::TileGrid tiles_;
  /// Guards everything below except the table pointer readers load, the
  /// atomics of slots, entries and pins, and the gauge counters.
  mutable std::mutex mu_;
  std::atomic<Table*> table_;
  std::uint64_t head_ = 0;  // newest version
  /// Per tile, the last version that dirtied it (as of `head_`).
  Stamps last_{};
  /// The mask version v stamped, at v % kRecent, for the newest kRecent
  /// versions.
  std::array<std::uint64_t, kRecent> recent_{};
  /// since_[d]: the tiles stamped after version head_ - d (d < kRecent and
  /// <= head_), as of the last refresh_since().
  std::array<std::uint64_t, kRecent> since_{};
  /// Live versions (and released ones not yet reaped), by version.
  std::map<std::uint64_t, Pin> pins_;
  std::vector<std::pair<std::uint64_t, Pin*>> live_pins_;  // reclaim scratch
  /// Dead entries not yet assigned to a holder or unlinked.
  std::vector<Dead> dying_;
  /// Per tile, references to the entries whose footprint covers it: every
  /// live one, plus stale ones a walk or a compaction has yet to drop.
  std::array<std::vector<Ref>, 64> by_tile_;
  std::size_t tile_refs_ = 0;  // references in by_tile_
  std::size_t live_refs_ = 0;  // of which name a live entry
  std::deque<Retired> retired_;  // by tag; untagged ones at the back
  std::vector<Entry*> spare_;    // freed entries kept for reuse
  std::atomic<std::size_t> live_{0};      // entries valid at head_
  std::atomic<std::size_t> awaiting_{0};  // dead, not yet freed
  std::atomic<std::size_t> bytes_{0};
};

RouteCache::RouteCache(const Router& router, const mesh::Mesh2D& machine)
    : router_(&router),
      store_(std::make_shared<RouteStore>(machine)),
      pin_(store_->first_pin()) {}

RouteCache::RouteCache(const Router& router, const RouteCache& prev,
                       std::uint64_t dirty_tiles)
    : router_(&router), store_(prev.store_) {
  const RouteStore::Advance next =
      store_->advance(prev.version_, dirty_tiles, stamps_);
  version_ = next.version;
  pin_ = next.pin;
  carry_ = next.stats;
}

RouteCache::~RouteCache() {
  // The last touch of the pin: reclamation may drop it as soon as it
  // reads zero.
  pin_->fetch_sub(1, std::memory_order_release);
  store_->reclaim();
}

const Route& RouteCache::lookup(mesh::Coord src, mesh::Coord dst) const {
  const std::uint64_t key = store_->key(src, dst);
  if (const RouteStore::Entry* entry = store_->find(key, version_, stamps_)) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    return entry->route;
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  // Route outside any lock (wall-following can be slow); insertion races
  // are benign because both threads computed the identical route.
  Route fresh = router_->route(src, dst);
  const std::uint64_t tiles = store_->footprint(fresh, src, dst);
  exclusive_locks_.fetch_add(1, std::memory_order_relaxed);
  return store_->insert(key, version_, stamps_, tiles, std::move(fresh)).route;
}

std::size_t RouteCache::size() const {
  return store_->visible(version_, stamps_);
}

RouteCache::StoreStats RouteCache::store_stats() const {
  return store_->stats();
}

}  // namespace ocp::routing
