// Seeded schedule exploration for both serving fronts, with ddmin repros.
//
// A schedule is a short program of driver ops executed against a live
// front while chaos plans inject faults underneath. One runner executes
// both op vocabularies:
//
//   * `Op` drives a `svc::Service` — submit bursts, pause / resume, flush
//     barriers, query bursts, publish-retry nudges, ingest restarts — under
//     the config's plan (denied admissions, duplicated / deferred / stalled
//     batches, poisoned oracle verdicts, mid-batch kills);
//   * `ShardedOp` drives a `svc::ShardedService` and adds the failure mode
//     only a fleet has: a shard killed at its next publish *mid-gossip*,
//     while a neighbor still drains the halo deltas the victim just emitted.
//
// The runner replays the seeded churn (`svc::seeded_churn`) through the ops
// and checks the degraded-mode guarantees as invariants:
//
//   * per-shard epochs observed by queries never decrease;
//   * point queries always answer Ok from the owner's last good epoch
//     (typed verdicts only, never a hang — whatever chaos does to the write
//     side or to a sibling shard);
//   * a flush barrier with no writer down leaves every queue empty;
//   * after quiescing (plans disarmed, leftover events submitted, writers
//     restarted, backlogs drained, withheld publications retried) the
//     published labeling is bit-identical — same label digest, composite on
//     a fleet — to a clean labeling of the net fault set, and the staleness
//     watermark reads zero.
//
// When a single-writer schedule fails, `shrink_schedule` reduces it with
// `check::ddmin` (drop op chunks while the violation reproduces), and
// `to_string`/`parse_schedule` round-trip the survivor as a one-line repro
// (e.g. "S8 P Q16 R F K"), replayable with `bench/chaos_soak --replay`.
#pragma once

#include <algorithm>
#include <array>
#include <cctype>
#include <charconv>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "chaos/plan.hpp"
#include "svc/loadgen.hpp"
#include "svc/sharded_service.hpp"

namespace ocp::chaos {

/// One driver op of a single-writer schedule.
enum class OpKind : std::uint8_t {
  /// Submit the next `count` events of the seeded stream (retrying typed
  /// rejections with backoff, so no event is ever lost to the schedule).
  Submit = 0,
  Pause = 1,
  Resume = 2,
  /// Barrier: every accepted event applied (or the writer crashed).
  Flush = 3,
  /// `count` queries (status/region/route mix) checked for monotone epochs.
  Query = 4,
  /// Nudge the empty-batch publication retry path.
  RetryPublish = 5,
  /// Restart the ingest thread if a chaos kill took it down (no-op else).
  Restart = 6,
};

struct Op {
  OpKind kind = OpKind::Query;
  /// Event count (Submit) or query count (Query); ignored otherwise.
  std::uint16_t count = 0;

  friend bool operator==(const Op&, const Op&) = default;
};

/// One driver op of a sharded schedule.
enum class ShardedOpKind : std::uint8_t {
  /// Submit the next `count` stream events (coordinate-routed).
  Submit = 0,
  /// Barrier: fleet quiescent or some shard crashed.
  Flush = 1,
  /// `count` mixed queries checked for per-shard monotone epochs.
  Query = 2,
  /// Arm a kill on shard `shard` at its *next* publish stamp, then submit
  /// `count` events — the burst is what drives the victim to publish (and
  /// die) while its neighbors drain the halo deltas it emitted.
  KillShard = 3,
  /// Restart shard `shard` if a kill took its worker down (no-op else).
  RestartShard = 4,
};

struct ShardedOp {
  ShardedOpKind kind = ShardedOpKind::Query;
  /// Event count (Submit/KillShard) or query count (Query).
  std::uint16_t count = 0;
  /// Target shard (KillShard/RestartShard), taken modulo the fleet size.
  std::uint8_t shard = 0;

  friend bool operator==(const ShardedOp&, const ShardedOp&) = default;
};

/// Workload parameters for one schedule run, for either front's config
/// type. The schedule itself (the op list) is passed separately so ddmin
/// can vary it while the config stays fixed.
template <class FrontConfig>
struct BasicScheduleConfig {
  std::int32_t mesh_side = 16;
  std::size_t initial_faults = 6;
  /// Length of the seeded event stream the Submit ops consume. Ops past
  /// the end submit nothing; leftover events are submitted at quiesce so
  /// the expected final fault set never depends on the schedule shape.
  std::size_t events = 96;
  double repair_fraction = 0.45;
  std::uint64_t seed = 1;
  /// Front shape; queue_capacity is clamped up to hold the whole stream
  /// so only chaos denials — never genuine overload — reject a submit, and
  /// a fleet's `shard_chaos` is overwritten with the per-shard plans.
  FrontConfig service;
};

/// A single-writer run adds the chaos injected while the schedule runs
/// (armed only during the ops; the quiesce phase disarms it).
struct ScheduleConfig : BasicScheduleConfig<svc::ServiceConfig> {
  PlanSpec plan;
};

/// A fleet's plans are created internally, one per shard, injecting
/// nothing on their own: KillShard ops arm kills on them against the
/// victim's live epoch.
using ShardedScheduleConfig = BasicScheduleConfig<svc::ShardedServiceConfig>;

/// A schedule run's verdict, with the state the quiesced front serves.
struct ScheduleResult : svc::QuiescedState {
  /// Human-readable invariant violations; empty means the run passed.
  std::vector<std::string> violations;
  /// Digest of a clean labeling of the net fault set.
  std::uint64_t expected_digest = 0;
  std::uint64_t queries_ok = 0;
  std::uint64_t queries_rejected = 0;
  std::uint64_t submit_retries = 0;
  std::uint64_t restarts = 0;
  /// Injections performed, summed over every shard's plan.
  PlanStats injected;

  [[nodiscard]] bool ok() const noexcept { return violations.empty(); }
};

/// A generator's op kind: the first row of the cumulative `mix` whose bound
/// exceeds `roll` (the last bound must exceed every roll).
template <class Bound, class Kind, std::size_t N>
Kind pick_kind(const std::array<std::pair<Bound, Kind>, N>& mix, Bound roll) {
  return std::find_if(mix.begin(), mix.end(), [roll](const auto& row) {
           return roll < row.first;
         })->second;
}

/// A generator's burst size: seeded, uniform in [1, max(1, max_burst)].
[[nodiscard]] std::uint16_t random_burst(stats::Rng& rng,
                                         std::size_t max_burst);

/// Seeded schedule generation: `ops` driver ops with a weighted kind mix
/// (submit/query heavy, occasional pause/resume/flush/nudge/restart).
[[nodiscard]] std::vector<Op> generate_schedule(std::uint64_t seed,
                                                std::size_t ops,
                                                std::size_t max_burst = 16);

/// Seeded sharded schedule generation: submit/query heavy with kill and
/// restart ops sprinkled across a `shards`-sized fleet.
[[nodiscard]] std::vector<ShardedOp> generate_sharded_schedule(
    std::uint64_t seed, std::size_t ops, std::uint32_t shards,
    std::size_t max_burst = 16);

/// Executes one schedule against a fresh front and checks every invariant,
/// quiescing before the final digest comparison.
[[nodiscard]] ScheduleResult run_schedule(const ScheduleConfig& config,
                                          const std::vector<Op>& schedule);
[[nodiscard]] ScheduleResult run_schedule(
    const ShardedScheduleConfig& config,
    const std::vector<ShardedOp>& schedule);

/// Brings a front whose plans are disarmed back to a quiescent, fully
/// published state: resumes it, restarts every crashed writer and flushes
/// until none is down (bounded; one pass suffices once disarmed) and
/// retries withheld publications. Returns the restarts it performed.
std::uint64_t quiesce(svc::Service& service);
std::uint64_t quiesce(svc::ShardedService& fleet);

/// Failure predicate ddmin minimizes against: true = still failing. The
/// default (empty) oracle is `!run_schedule(config, ops).ok()`; tests
/// inject synthetic oracles to pin the minimization itself.
using ScheduleOracle =
    std::function<bool(const ScheduleConfig&, const std::vector<Op>&)>;

/// ddmin over the op list: returns the smallest subsequence of `schedule`
/// whose run still violates an invariant (or `schedule` itself if the
/// failure vanished). `runs` counts the executions spent shrinking.
[[nodiscard]] std::vector<Op> shrink_schedule(const ScheduleConfig& config,
                                              std::vector<Op> schedule,
                                              std::size_t* runs = nullptr,
                                              ScheduleOracle oracle = {});

/// One row of an op vocabulary's repro alphabet, indexed by the kind's
/// value: the letter the kind renders as and whether a count follows it.
struct OpLetter {
  char letter;
  bool counted;
};

/// Renders ops as a one-line repro ("S8 P Q16"), one token per op.
template <class OpT, std::size_t N>
std::string render_ops(const std::vector<OpT>& ops,
                       const std::array<OpLetter, N>& alphabet) {
  std::ostringstream out;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const OpLetter& row = alphabet[static_cast<std::size_t>(ops[i].kind)];
    out << (i == 0 ? "" : " ") << row.letter;
    if (row.counted) out << ops[i].count;
  }
  return out.str();
}

/// Inverse of `render_ops`; nullopt on an unknown letter or a missing or
/// overflowing count.
template <class OpT, std::size_t N>
std::optional<std::vector<OpT>> parse_ops(
    std::string_view text, const std::array<OpLetter, N>& alphabet) {
  std::vector<OpT> ops;
  const char* at = text.data();
  const char* const end = text.data() + text.size();
  while (at != end) {
    if (std::isspace(static_cast<unsigned char>(*at)) != 0) {
      ++at;
      continue;
    }
    std::size_t kind = 0;
    while (kind < N && alphabet[kind].letter != *at) ++kind;
    if (kind == N) return std::nullopt;
    ++at;
    OpT op{};
    op.kind = static_cast<decltype(op.kind)>(kind);
    if (alphabet[kind].counted) {
      const auto [ptr, ec] = std::from_chars(at, end, op.count);
      if (ec != std::errc{} || ptr == at) return std::nullopt;
      at = ptr;
    }
    ops.push_back(op);
  }
  return ops;
}

/// One-line schedule rendering: "S8 P R F Q16 Y K" (S=submit, Q=query with
/// counts; P/R/F/Y/K = pause/resume/flush/retry-publish/restart).
[[nodiscard]] std::string to_string(const std::vector<Op>& schedule);

/// Inverse of `to_string`; nullopt on malformed input.
[[nodiscard]] std::optional<std::vector<Op>> parse_schedule(
    std::string_view text);

}  // namespace ocp::chaos
