// Delta-debugging shrinkers.
//
// `ddmin` reduces any failing sequence — a fault set's cells, a chaos
// schedule's ops — to a *local-minimal* failing subsequence: removing any
// one remaining element makes the failure disappear. When the fuzzer finds
// an instance that violates the oracle (or any other predicate), the raw
// counterexample typically carries dozens of irrelevant faults;
// `shrink_faults` runs ddmin over them and ships the survivor as a
// replayable `fault::trace` plus a one-line repro command.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "grid/cell_set.hpp"

namespace ocp::check {

/// ddmin over `items`, for which `fails` must hold: drops contiguous chunks
/// while the failure persists, halving the chunk size from n/2 down to 1 and
/// sweeping each size to a fixpoint. The chunk-1 fixpoint is the
/// local-minimality pass: on return, `fails` holds and removing any single
/// remaining item makes it pass. Deterministic: chunks are tried in order.
template <class T, class Fails>
std::vector<T> ddmin(std::vector<T> items, Fails&& fails) {
  for (std::size_t chunk = std::max<std::size_t>(items.size() / 2, 1);;
       chunk /= 2) {
    bool removed_any = true;
    while (removed_any) {
      removed_any = false;
      for (std::size_t lo = 0; lo < items.size();) {
        const std::size_t hi = std::min(lo + chunk, items.size());
        std::vector<T> candidate(items.begin(),
                                 items.begin() + static_cast<std::ptrdiff_t>(lo));
        candidate.insert(candidate.end(),
                         items.begin() + static_cast<std::ptrdiff_t>(hi),
                         items.end());
        if (fails(candidate)) {
          items = std::move(candidate);
          removed_any = true;
          // Do not advance lo: the next chunk slid into this position.
        } else {
          lo = hi;
        }
      }
    }
    if (chunk == 1) return items;
  }
}

/// Predicate driven by the shrinker: true when the fault set still fails.
using FailurePredicate = std::function<bool(const grid::CellSet&)>;

struct ShrinkResult {
  /// Local-minimal failing fault set (same machine as the input).
  grid::CellSet faults;
  /// Predicate evaluations spent.
  std::size_t evaluations = 0;
  /// The minimal instance in `fault::trace` format, ready to save/replay.
  std::string trace;

  explicit ShrinkResult(grid::CellSet f) : faults(std::move(f)) {}
};

/// Reduces `failing` (for which `fails` must return true) to a local-minimal
/// failing subset. Deterministic: chunks and faults are tried in row-major
/// order, so the same input always shrinks to the same counterexample.
[[nodiscard]] ShrinkResult shrink_faults(const grid::CellSet& failing,
                                         const FailurePredicate& fails);

/// One-line command that replays a trace file through the fuzz binary.
[[nodiscard]] std::string repro_command(const std::string& trace_path,
                                        const std::string& definition);

}  // namespace ocp::check
