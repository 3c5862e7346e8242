// Synchronous lock-step execution of a node-local protocol (the paper's
// "iterative message exchanges among neighboring nodes").
//
// The round loop runs over a precomputed `mesh::AdjacencyTable`: per-node
// inboxes are gathered by indexing flat neighbor arrays (no coordinate
// arithmetic, no `std::optional`). Dense mode isolates rounds through the
// message plane (plane sweeps read only previous-round announcements) or
// through deferred writes (sparse participant-list sweeps), so states update
// in place; Frontier mode double-buffers the state planes. Either way a
// round reads only previous-round data, which makes it embarrassingly
// parallel: with `RunOptions::parallel` dense rounds are evaluated across
// OpenMP threads with integer reductions, producing bit-identical states and
// statistics for any thread count.
#pragma once

#include <algorithm>
#include <cassert>
#include <optional>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "grid/node_grid.hpp"
#include "mesh/adjacency.hpp"
#include "simkernel/protocol.hpp"

namespace ocp::sim {

/// Result of a synchronous run: the stable per-node states plus cost metrics.
template <typename P>
struct RunResult {
  grid::NodeGrid<typename P::State> states;
  RoundStats stats;
};

namespace detail {

/// Builds the round-`r` inbox of node `i` from the previous-round plane.
template <SyncProtocol P>
inline void gather(const mesh::AdjacencyTable& adj, const P& proto,
                   const typename P::State* prev,
                   const typename P::Message& ghost, std::size_t i,
                   Inbox<typename P::Message>& inbox) {
  const std::int32_t* row = adj.dir_row(i);
  for (std::size_t slot = 0; slot < mesh::kNumDirs; ++slot) {
    const std::int32_t j = row[slot];
    if (j >= 0) {
      inbox.by_dir[slot] = proto.announce(prev[static_cast<std::size_t>(j)]);
      inbox.from_ghost[slot] = false;
    } else {
      // Open mesh boundary: the missing neighbor is a ghost node whose
      // status never changes (paper, section 3).
      inbox.by_dir[slot] = ghost;
      inbox.from_ghost[slot] = true;
    }
  }
}

}  // namespace detail

/// Runs `proto` to quiescence on the machine described by `adj` and returns
/// the fixpoint.
///
/// Dense mode evaluates every participating node every round — a literal
/// transcription of the paper's algorithm skeleton. Frontier mode evaluates
/// only nodes that received a changed message; since `update` is a pure
/// function of the inbox, the per-round states are identical. Both stop
/// after the first round with no change anywhere.
template <SyncProtocol P>
RunResult<P> run_sync(const mesh::AdjacencyTable& adj, const P& proto,
                      const RunOptions& opts = {}) {
  using State = typename P::State;
  const mesh::Mesh2D& m = adj.mesh();
  const std::size_t node_count = adj.node_count();

  grid::NodeGrid<State> curr(m);
  if constexpr (requires(std::span<State> sp) { proto.init_plane(m, sp); }) {
    // Optional bulk initializer (see SyncProtocol docs): one linear fill of
    // the dense plane instead of per-node coordinate arithmetic.
    proto.init_plane(m, std::span<State>(&curr.at_index(0), node_count));
  } else {
    std::size_t i = 0;
    for (std::int32_t y = 0; y < m.height(); ++y) {
      for (std::int32_t x = 0; x < m.width(); ++x, ++i) {
        curr.at_index(i) = proto.init({x, y});
      }
    }
  }
  // Frontier mode keeps a second state plane (invariant: next == curr at
  // round start). Dense mode updates `curr` in place — plane sweeps are
  // isolated by the message plane, list sweeps by deferred writes — so it
  // never needs the copy.
  std::optional<grid::NodeGrid<State>> next;
  if (opts.mode == RunMode::Frontier) next.emplace(curr);

  const typename P::Message ghost = proto.ghost_message();

  RoundStats stats;

  // Per-round broadcast cost of the paper's model: every *currently*
  // participating node announces to each physical neighbor. Dense mode
  // recomputes the sum as a byproduct of each sweep (round 1 reads the
  // initial plane, so its sum doubles as the round-0 announcement count);
  // frontier mode seeds the sum here and maintains it incrementally as state
  // changes flip `participates()`. Both give the same per-round value
  // because participation is a pure function of node state.
  std::uint64_t broadcast_now = 0;

  // Dense bookkeeping. Two sweep strategies, chosen per round from the
  // previous round's participating-node count; both produce identical
  // inboxes, states, and statistics — the choice is pure performance.
  //
  //  * Plane sweep (participation >= ~25%, e.g. the safety phase where every
  //    nonfaulty node runs the rule): double-buffered message planes, padded
  //    with one trailing ghost entry so `AdjacencyTable::dense_row` can be
  //    indexed branchlessly. Announce is a pure function of state, so only
  //    changed nodes re-announce into the next plane.
  //  * List sweep (sparse participation, e.g. the activation phase where
  //    only unsafe nodes run the rule): evaluate just the participants —
  //    exactly the paper's model, where non-participating nodes are idle. A
  //    node outside the set can never enter it (only `update` changes state,
  //    and only participants run `update`), so the list is maintained by
  //    filtering when a sweep records participation flips.
  std::vector<typename P::Message> msgs;
  std::vector<typename P::Message> msgs_next;
  bool msgs_valid = false;  // msgs mirrors announce() over the curr plane
  std::vector<std::size_t> participants;
  std::vector<std::pair<std::size_t, typename P::State>> pending;
  bool list_valid = false;
  std::uint64_t part_flips = 0;
  std::uint64_t part_nodes_prev = 0;

  // Frontier bookkeeping: nodes to (re-)evaluate this round. `queued` is a
  // generation counter — bumping `generation` invalidates the whole array in
  // O(1) instead of an O(N) fill per round.
  std::vector<std::size_t> active;
  std::vector<std::uint32_t> queued;
  std::uint32_t generation = 0;
  if (opts.mode == RunMode::Frontier) {
    for (std::size_t i = 0; i < node_count; ++i) {
      if (proto.participates(curr.at_index(i))) {
        broadcast_now += static_cast<std::uint64_t>(adj.degree(i));
      }
    }
    // Round 0 of the event-driven refinement: everyone announces once.
    stats.messages_event_driven = broadcast_now;
    queued.assign(node_count, 0);
    active.reserve(node_count);
    for (std::size_t i = 0; i < node_count; ++i) active.push_back(i);
  } else {
    // Slot node_count is the ghost every off-mesh link reads; the node
    // slots are refreshed from announce() before any sweep reads them.
    msgs.assign(node_count + 1, ghost);
    msgs_next.assign(node_count + 1, ghost);
    for (std::size_t i = 0; i < node_count; ++i) {
      part_nodes_prev +=
          static_cast<std::uint64_t>(proto.participates(curr.at_index(i)));
    }
  }

  std::vector<std::size_t> changed;
  changed.reserve(node_count);

  // Observability: frontier sizes summed over the run (one counter at the
  // end); per-round spans/instants only at TraceLevel::Round.
  std::uint64_t nodes_evaluated_total = 0;

  for (std::int32_t round = 1; round <= opts.max_rounds; ++round) {
    stats.rounds_executed = round;
    const obs::Span round_span(opts.trace, "sync.round",
                               opts.trace.rounds());

    if (opts.mode == RunMode::Dense) {
      State* cur = curr.data();
      typename P::Message* msg = msgs.data();
      typename P::Message* msg_out = msgs_next.data();
      std::uint64_t round_changes = 0;
      std::uint64_t changed_degree = 0;
      std::uint64_t part_degree = 0;
      std::uint64_t part_nodes = 0;
      std::uint64_t flips = 0;

      // Plane sweeps pay one announce per node; list sweeps pay one per
      // participating link. Break-even is ~1/4 participation.
      const bool sparse = part_nodes_prev * 4 < node_count;

      // Round isolation. Plane sweeps gather exclusively from the previous
      // round's message plane, so states can be updated in place; list
      // sweeps gather from neighbor states directly, so their (few) state
      // writes are deferred to `pending` and applied after the sweep. Either
      // way no full state-plane copy is ever made.

      /// Generic plane-sweep evaluation: CSR rows, correct for any node.
      const auto eval_node = [&](std::size_t i, std::uint64_t& chg,
                                 std::uint64_t& chg_deg,
                                 std::uint64_t& part_deg,
                                 std::uint64_t& part_cnt) {
        State s = cur[i];
        if (!proto.participates(s)) return;
        const auto deg = static_cast<std::uint64_t>(adj.degree(i));
        part_deg += deg;
        ++part_cnt;
        Inbox<typename P::Message> inbox;
        const std::int32_t* row = adj.dense_row(i);
        const std::uint8_t* gh = adj.ghost_row(i);
        for (std::size_t slot = 0; slot < mesh::kNumDirs; ++slot) {
          inbox.by_dir[slot] = msg[static_cast<std::size_t>(row[slot])];
          inbox.from_ghost[slot] = gh[slot] != 0;
        }
        if (proto.update(s, inbox)) {
          ++chg;
          chg_deg += deg;
          cur[i] = s;
          msg_out[i] = proto.announce(s);
        }
      };

      /// List-sweep evaluation: gathers from neighbor states, defers the
      /// state write to `pending[k]` (first == node_count flags no change).
      const auto eval_sparse = [&](std::size_t k, std::uint64_t& chg,
                                   std::uint64_t& chg_deg,
                                   std::uint64_t& part_deg,
                                   std::uint64_t& part_cnt,
                                   std::uint64_t& flp) {
        const std::size_t i = participants[k];
        pending[k].first = node_count;
        State s = cur[i];
        if (!proto.participates(s)) return;
        const auto deg = static_cast<std::uint64_t>(adj.degree(i));
        part_deg += deg;
        ++part_cnt;
        Inbox<typename P::Message> inbox;
        detail::gather(adj, proto, cur, ghost, i, inbox);
        if (proto.update(s, inbox)) {
          ++chg;
          chg_deg += deg;
          pending[k] = {i, s};
          if (!proto.participates(s)) ++flp;
        }
      };

      /// Interior evaluation (plane sweeps only): a node with 1 <= x <= w-2
      /// and 1 <= y <= h-2 has neighbors exactly {i+1, i-1, i+w, i-w} on
      /// mesh and torus alike, and never a ghost — no adjacency loads at
      /// all, just closed-form index arithmetic on the message plane.
      const std::size_t w = static_cast<std::size_t>(m.width());
      const auto eval_interior = [&](std::size_t i, std::uint64_t& chg,
                                     std::uint64_t& chg_deg,
                                     std::uint64_t& part_deg,
                                     std::uint64_t& part_cnt) {
        State s = cur[i];
        if (!proto.participates(s)) return;
        part_deg += 4;
        ++part_cnt;
        Inbox<typename P::Message> inbox;
        inbox.by_dir[static_cast<std::size_t>(mesh::Dir::East)] = msg[i + 1];
        inbox.by_dir[static_cast<std::size_t>(mesh::Dir::West)] = msg[i - 1];
        inbox.by_dir[static_cast<std::size_t>(mesh::Dir::North)] = msg[i + w];
        inbox.by_dir[static_cast<std::size_t>(mesh::Dir::South)] = msg[i - w];
        if (proto.update(s, inbox)) {
          ++chg;
          chg_deg += 4;
          cur[i] = s;
          msg_out[i] = proto.announce(s);
        }
      };

      /// One row of a plane sweep: boundary rows (and the first/last column
      /// of interior rows) go through the generic path; the interior span
      /// takes the closed-form path.
      const std::int32_t height = m.height();
      const auto eval_row = [&](std::int32_t y, std::uint64_t& chg,
                                std::uint64_t& chg_deg,
                                std::uint64_t& part_deg,
                                std::uint64_t& part_cnt) {
        const std::size_t base = static_cast<std::size_t>(y) * w;
        if (y == 0 || y == height - 1 || w < 3) {
          for (std::size_t i = base; i < base + w; ++i) {
            eval_node(i, chg, chg_deg, part_deg, part_cnt);
          }
        } else {
          eval_node(base, chg, chg_deg, part_deg, part_cnt);
          for (std::size_t i = base + 1; i < base + w - 1; ++i) {
            eval_interior(i, chg, chg_deg, part_deg, part_cnt);
          }
          eval_node(base + w - 1, chg, chg_deg, part_deg, part_cnt);
        }
      };

      if (sparse) {
        // (Re)derive the participant list: built by scan on entry, filtered
        // in place after any sweep that recorded participation flips.
        if (!list_valid) {
          participants.clear();
          for (std::size_t i = 0; i < node_count; ++i) {
            if (proto.participates(cur[i])) participants.push_back(i);
          }
          list_valid = true;
        } else if (part_flips != 0) {
          std::erase_if(participants, [&](std::size_t i) {
            return !proto.participates(cur[i]);
          });
        }
        pending.resize(participants.size());
      } else {
        list_valid = false;
        if (!msgs_valid) {
          for (std::size_t i = 0; i < node_count; ++i) {
            msg[i] = proto.announce(cur[i]);
          }
          msgs_valid = true;
        }
        std::copy(msg, msg + node_count, msg_out);
      }

      if (opts.trace.enabled()) {
        const auto frontier = static_cast<std::int64_t>(
            sparse ? participants.size() : node_count);
        nodes_evaluated_total += static_cast<std::uint64_t>(frontier);
        if (opts.trace.rounds()) {
          opts.trace.instant("sync.frontier", frontier);
        }
      }

#ifdef OCP_HAVE_OPENMP
      if (opts.parallel) {
        if (sparse) {
#pragma omp parallel for schedule(static) \
    reduction(+ : round_changes, changed_degree, part_degree, part_nodes, \
                  flips)
          for (std::int64_t k = 0;
               k < static_cast<std::int64_t>(participants.size()); ++k) {
            eval_sparse(static_cast<std::size_t>(k), round_changes,
                        changed_degree, part_degree, part_nodes, flips);
          }
        } else {
#pragma omp parallel for schedule(static) \
    reduction(+ : round_changes, changed_degree, part_degree, part_nodes)
          for (std::int64_t y = 0; y < static_cast<std::int64_t>(height);
               ++y) {
            eval_row(static_cast<std::int32_t>(y), round_changes,
                     changed_degree, part_degree, part_nodes);
          }
        }
      } else
#endif
      {
        if (sparse) {
          for (std::size_t k = 0; k < participants.size(); ++k) {
            eval_sparse(k, round_changes, changed_degree, part_degree,
                        part_nodes, flips);
          }
        } else {
          for (std::int32_t y = 0; y < height; ++y) {
            eval_row(y, round_changes, changed_degree, part_degree,
                     part_nodes);
          }
        }
      }

      if (sparse) {
        // Apply the deferred writes; every slot was stamped by the sweep.
        for (std::size_t k = 0; k < participants.size(); ++k) {
          if (pending[k].first != node_count) {
            cur[pending[k].first] = pending[k].second;
          }
        }
      }

      part_flips = flips;
      part_nodes_prev = part_nodes;
      // `msgs` must mirror the updated states for the next round: swap in
      // the maintained plane, or mark it stale if none was kept.
      if (sparse) {
        msgs_valid = false;
      } else {
        msgs.swap(msgs_next);
      }
      if (opts.trace.rounds()) {
        opts.trace.instant("sync.changes",
                           static_cast<std::int64_t>(round_changes));
      }
      stats.messages_broadcast += part_degree;
      if (round == 1) {
        // Round 0 of the event-driven refinement: every initially
        // participating node announces once. Round 1 sweeps the initial
        // plane, so its participating-degree sum is exactly that count.
        stats.messages_event_driven += part_degree;
      }
      if (round_changes == 0) break;  // quiescent: this round had no change
      stats.rounds_to_quiesce = round;
      stats.state_changes += round_changes;
      // A node that changed announces its new state on each of its links.
      stats.messages_event_driven += changed_degree;
      continue;
    }

    // Frontier mode. Invariant at round start: next == curr, and `active`
    // contains every node whose inbox may differ from the previous round.
    if (opts.trace.enabled()) {
      nodes_evaluated_total += active.size();
      if (opts.trace.rounds()) {
        opts.trace.instant("sync.frontier",
                           static_cast<std::int64_t>(active.size()));
      }
    }
    stats.messages_broadcast += broadcast_now;
    changed.clear();
    for (std::size_t i : active) {
      State& s = next->at_index(i);
      if (!proto.participates(s)) continue;
      Inbox<typename P::Message> inbox;
      detail::gather(adj, proto, curr.data(), ghost, i, inbox);
      if (proto.update(s, inbox)) changed.push_back(i);
    }

    if (opts.trace.rounds()) {
      opts.trace.instant("sync.changes",
                         static_cast<std::int64_t>(changed.size()));
    }
    if (changed.empty()) break;
    stats.rounds_to_quiesce = round;
    stats.state_changes += changed.size();

    ++generation;
    active.clear();
    for (std::size_t i : changed) {
      const auto deg = static_cast<std::uint64_t>(adj.degree(i));
      stats.messages_event_driven += deg;
      // A state change may flip whether the node broadcasts next round.
      const bool was = proto.participates(curr.at_index(i));
      const bool is = proto.participates(next->at_index(i));
      if (was && !is) broadcast_now -= deg;
      if (!was && is) broadcast_now += deg;
      curr.at_index(i) = next->at_index(i);

      // Next round, only the changed nodes' neighborhoods can change.
      for (const std::int32_t j32 : adj.physical_neighbors(i)) {
        const auto j = static_cast<std::size_t>(j32);
        if (queued[j] != generation) {
          queued[j] = generation;
          active.push_back(j);
        }
      }
      if (queued[i] != generation) {
        queued[i] = generation;
        active.push_back(i);
      }
    }
  }

  if (stats.rounds_executed >= opts.max_rounds &&
      stats.rounds_to_quiesce == stats.rounds_executed) {
    throw std::runtime_error(
        "run_sync: protocol did not quiesce within max_rounds");
  }
  if (opts.trace.enabled()) {
    opts.trace.counter("sync.rounds", stats.rounds_executed);
    opts.trace.counter("sync.nodes_flipped",
                       static_cast<std::int64_t>(stats.state_changes));
    opts.trace.counter(
        "sync.messages_broadcast",
        static_cast<std::int64_t>(stats.messages_broadcast));
    opts.trace.counter("sync.nodes_evaluated",
                       static_cast<std::int64_t>(nodes_evaluated_total));
  }
  return RunResult<P>{std::move(curr), stats};
}

/// Convenience overload that builds the adjacency table for one run. Callers
/// running several protocols on the same machine (e.g. the two-phase
/// pipeline) should build one `AdjacencyTable` and reuse it.
template <SyncProtocol P>
RunResult<P> run_sync(const mesh::Mesh2D& m, const P& proto,
                      const RunOptions& opts = {}) {
  return run_sync(mesh::AdjacencyTable(m), proto, opts);
}

}  // namespace ocp::sim
