#include "check/shrink.hpp"

#include <stdexcept>
#include <vector>

#include "fault/trace.hpp"

namespace ocp::check {

ShrinkResult shrink_faults(const grid::CellSet& failing,
                           const FailurePredicate& fails) {
  const auto as_set = [&failing](const std::vector<mesh::Coord>& cells) {
    grid::CellSet set(failing.topology());
    for (const mesh::Coord c : cells) set.insert(c);
    return set;
  };
  ShrinkResult result(failing);
  const auto evaluate = [&](const std::vector<mesh::Coord>& cells) {
    ++result.evaluations;
    return fails(as_set(cells));
  };
  if (!evaluate(failing.to_vector())) {
    throw std::invalid_argument(
        "shrink_faults: the input fault set does not fail the predicate");
  }
  // Chunks are contiguous row-major slices of the fault list.
  result.faults = as_set(ddmin(failing.to_vector(), evaluate));
  result.trace = fault::to_trace_string(result.faults);
  return result;
}

std::string repro_command(const std::string& trace_path,
                          const std::string& definition) {
  return "check_fuzz --replay " + trace_path + " --def " + definition;
}

}  // namespace ocp::check
