#include "streams.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace perfbench {

namespace {

struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void mix(std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  }
  void mix(mesh::Coord c) {
    mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(c.x)) << 32 |
        static_cast<std::uint32_t>(c.y));
  }
};

}  // namespace

double uniform(Rng& rng) {
  return std::uniform_real_distribution<double>(0.0, 1.0)(rng);
}

std::size_t below(Rng& rng, std::size_t n) {
  return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng);
}

grid::CellSet uniform_faults(const mesh::Mesh2D& m, double frac, Rng& rng) {
  const auto nodes = static_cast<std::size_t>(m.node_count());
  const auto want =
      static_cast<std::size_t>(std::llround(frac * static_cast<double>(nodes)));
  grid::CellSet faults(m);
  while (faults.size() < want) faults.insert(m.coord(below(rng, nodes)));
  return faults;
}

std::vector<svc::FaultEvent> event_stream(const grid::CellSet& initial,
                                          std::size_t count, std::size_t window,
                                          Rng& rng) {
  const mesh::Mesh2D& m = initial.topology();
  const auto nodes = static_cast<std::size_t>(m.node_count());
  const double target = std::max<double>(1.0, static_cast<double>(initial.size()));
  // Faulty nodes as a swap-remove vector (O(1) random pick), plus the index
  // of the last event that touched each node.
  std::vector<std::size_t> faulty;
  std::vector<std::size_t> pos(nodes, std::numeric_limits<std::size_t>::max());
  initial.for_each([&](mesh::Coord c) {
    pos[m.index(c)] = faulty.size();
    faulty.push_back(m.index(c));
  });
  constexpr auto kNever = std::numeric_limits<std::size_t>::max();
  std::vector<std::size_t> last(nodes, kNever);
  const auto free_at = [&](std::size_t node, std::size_t i) {
    return last[node] == kNever || i - last[node] >= window;
  };

  std::vector<svc::FaultEvent> events;
  events.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    // Repairs become likelier as the fault count rises above its start.
    const double p_repair = std::clamp(
        0.5 + 2.0 * (static_cast<double>(faulty.size()) - target) / target, 0.1,
        0.9);
    bool done = false;
    if (!faulty.empty() && uniform(rng) < p_repair) {
      for (int attempt = 0; attempt < 64 && !done; ++attempt) {
        const std::size_t node = faulty[below(rng, faulty.size())];
        if (!free_at(node, i)) continue;
        const std::size_t p = pos[node];
        pos[faulty.back()] = p;
        faulty[p] = faulty.back();
        faulty.pop_back();
        pos[node] = kNever;
        last[node] = i;
        events.push_back({svc::EventKind::Repair, m.coord(node)});
        done = true;
      }
    }
    while (!done) {
      const std::size_t node = below(rng, nodes);
      if (pos[node] != kNever || !free_at(node, i)) continue;
      pos[node] = faulty.size();
      faulty.push_back(node);
      last[node] = i;
      events.push_back({svc::EventKind::Fault, m.coord(node)});
      done = true;
    }
  }
  return events;
}

std::vector<std::int64_t> poisson_schedule(double rate, double seconds,
                                           Rng& rng) {
  std::vector<std::int64_t> due;
  std::exponential_distribution<double> gap(rate);
  double t = gap(rng);
  while (t < seconds) {
    due.push_back(static_cast<std::int64_t>(t * 1e9));
    t += gap(rng);
  }
  return due;
}

std::vector<std::pair<mesh::Coord, mesh::Coord>> route_pool(
    const grid::CellSet& faults, std::size_t n, Rng& rng) {
  const mesh::Mesh2D& m = faults.topology();
  const auto nodes = static_cast<std::size_t>(m.node_count());
  std::vector<std::pair<mesh::Coord, mesh::Coord>> pool;
  pool.reserve(n);
  while (pool.size() < n) {
    const mesh::Coord a = m.coord(below(rng, nodes));
    const mesh::Coord b = m.coord(below(rng, nodes));
    if (a == b || faults.contains(a) || faults.contains(b)) continue;
    pool.emplace_back(a, b);
  }
  const auto distance = [&m](const std::pair<mesh::Coord, mesh::Coord>& p) {
    return m.distance(p.first, p.second);
  };
  std::stable_sort(pool.begin(), pool.end(), [&](const auto& x, const auto& y) {
    return distance(x) < distance(y);
  });
  // Golden-ratio steps spread the ranks evenly over the pool; a rank
  // already taken passes to the next free one.
  constexpr double kPhi = 0.6180339887498949;
  std::vector<std::pair<mesh::Coord, mesh::Coord>> ordered;
  ordered.reserve(n);
  std::vector<bool> taken(n, false);
  for (std::size_t i = 0; i < n; ++i) {
    const double f = 0.5 + static_cast<double>(i) * kPhi;
    auto rank = static_cast<std::size_t>((f - std::floor(f)) * static_cast<double>(n));
    while (taken[rank]) rank = (rank + 1) % n;
    taken[rank] = true;
    ordered.push_back(pool[rank]);
  }
  return ordered;
}

std::size_t skewed(Rng& rng, std::size_t n) {
  const double u = uniform(rng);
  return std::min(n - 1, static_cast<std::size_t>(u * u * u *
                                                  static_cast<double>(n)));
}

std::vector<alloc::JobRequest> job_stream(std::size_t n, std::int32_t max_side,
                                          std::uint32_t min_life,
                                          std::uint32_t max_life, Rng& rng) {
  std::vector<alloc::JobRequest> jobs(n);
  const auto side = [&] {
    const double u = uniform(rng);
    return 1 + static_cast<std::int32_t>(u * u * max_side);
  };
  for (std::size_t i = 0; i < n; ++i) {
    jobs[i].id = i + 1;
    jobs[i].width = std::min(side(), max_side);
    jobs[i].height = std::min(side(), max_side);
    jobs[i].lifetime_ticks =
        min_life + static_cast<std::uint32_t>(below(rng, max_life - min_life + 1));
  }
  return jobs;
}

std::uint64_t digest(const grid::CellSet& faults) {
  Fnv f;
  faults.for_each([&](mesh::Coord c) { f.mix(c); });
  return f.h;
}

std::uint64_t digest(std::span<const svc::FaultEvent> events) {
  Fnv f;
  for (const svc::FaultEvent& e : events) {
    f.mix(static_cast<std::uint64_t>(e.kind) + 1);
    f.mix(e.node);
  }
  return f.h;
}

std::uint64_t digest(std::span<const std::int64_t> times) {
  Fnv f;
  for (std::int64_t t : times) f.mix(static_cast<std::uint64_t>(t));
  return f.h;
}

std::uint64_t digest(std::span<const std::pair<mesh::Coord, mesh::Coord>> pairs) {
  Fnv f;
  for (const auto& [a, b] : pairs) {
    f.mix(a);
    f.mix(b);
  }
  return f.h;
}

std::uint64_t digest(std::span<const alloc::JobRequest> jobs) {
  Fnv f;
  for (const alloc::JobRequest& j : jobs) {
    f.mix(j.id);
    f.mix(static_cast<std::uint64_t>(j.width) << 32 |
          static_cast<std::uint32_t>(j.height));
    f.mix(j.lifetime_ticks);
  }
  return f.h;
}

grid::CellSet apply_events(grid::CellSet faults,
                           std::span<const svc::FaultEvent> events) {
  for (const svc::FaultEvent& e : events) {
    if (e.kind == svc::EventKind::Fault) {
      faults.insert(e.node);
    } else {
      faults.erase(e.node);
    }
  }
  return faults;
}

Freshness::Freshness(std::span<const svc::FaultEvent> events,
                     std::vector<std::int64_t> due_ns, std::size_t max_epochs)
    : events_(events),
      due_ns_(std::move(due_ns)),
      pub_ns_(events.size(), 0),
      max_epochs_(max_epochs),
      epoch_end_(std::make_unique<std::atomic<std::size_t>[]>(max_epochs)),
      seen_ns_(std::make_unique<std::atomic<std::int64_t>[]>(events.size())) {
  for (std::size_t e = 0; e < max_epochs; ++e) {
    epoch_end_[e].store(kUnset, std::memory_order_relaxed);
  }
  for (std::size_t i = 0; i < events.size(); ++i) {
    seen_ns_[i].store(std::numeric_limits<std::int64_t>::max(),
                      std::memory_order_relaxed);
  }
}

void Freshness::on_publish(const svc::Snapshot& snap) {
  const std::int64_t t = now_ns();
  while (pub_cursor_ < events_.size() && reflects(snap, events_[pub_cursor_])) {
    pub_ns_[pub_cursor_++] = t;
  }
  if (snap.epoch() < max_epochs_) {
    epoch_end_[snap.epoch()].store(pub_cursor_, std::memory_order_release);
  }
}

void Freshness::probe(const svc::Snapshot& snap, Probe& probe) {
  const std::uint64_t e = snap.epoch();
  if (e <= probe.epoch || e >= max_epochs_) return;
  // The hook runs just after the publish slot is swapped; until it has, the
  // epoch's count is unknown and the next acquisition retries.
  const std::size_t end = epoch_end_[e].load(std::memory_order_acquire);
  if (end == kUnset) return;
  probe.epoch = e;
  if (end <= probe.cursor) return;
  const std::int64_t t = now_ns();
  for (; probe.cursor < end; ++probe.cursor) {
    std::atomic<std::int64_t>& seen = seen_ns_[probe.cursor];
    std::int64_t cur = seen.load(std::memory_order_relaxed);
    while (t < cur &&
           !seen.compare_exchange_weak(cur, t, std::memory_order_relaxed)) {
    }
  }
}

std::size_t Freshness::unobserved(std::size_t sent) const {
  std::size_t n = 0;
  for (std::size_t i = 0; i < std::min(sent, events_.size()); ++i) {
    if (seen_ns_[i].load(std::memory_order_relaxed) ==
        std::numeric_limits<std::int64_t>::max()) {
      ++n;
    }
  }
  return n;
}

void Freshness::collect(std::size_t sent, Windowed& fresh, Hist& publish,
                        Hist& pickup) const {
  for (std::size_t i = 0; i < std::min(sent, events_.size()); ++i) {
    const std::int64_t seen = seen_ns_[i].load(std::memory_order_relaxed);
    if (seen == std::numeric_limits<std::int64_t>::max()) continue;
    const std::int64_t due = t0_ns_ + due_ns_[i];
    const std::int64_t pub = pub_ns_[i];
    fresh.add(due, seen - due);
    publish.add_ns(pub - due);
    pickup.add_ns(seen - pub);
  }
}

}  // namespace perfbench
