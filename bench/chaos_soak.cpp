// Chaos soak CLI for the serving runtime (run_bench.sh --chaos).
//
// Default run: a seed sweep of `chaos::run_chaos_load` — each seed replays
// one event stream through a chaotic Service (kills + restarts, poisoned
// verdicts, denied admissions, duplicated/deferred/stalled batches, racing
// query threads) and demands it converge to the digest of a clean labeling
// of the net fault set — followed by a sweep of generated driver schedules
// through `chaos::run_schedule`. Any failing schedule is ddmin-shrunk and printed
// as a one-line repro. Exit status is nonzero iff any run violated a
// degraded-mode invariant.
//
//   chaos_soak --seeds 8 --schedules 8
//   chaos_soak --seed 3 --events 384 --threads 8
//   chaos_soak --replay "S8 P Q16 R F Y K" --seed 2
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "chaos/harness.hpp"
#include "chaos/schedule.hpp"

namespace {

void usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "  --seed N        first seed of the sweep (default 1)\n"
      "  --seeds N       load-sweep runs (default 4, 0 = skip)\n"
      "  --schedules N   schedule-sweep runs (default 4, 0 = skip)\n"
      "  --events N      events per load run (default 192)\n"
      "  --threads N     query threads per load run (default 2)\n"
      "  --ops N         driver ops per schedule (default 56)\n"
      "  --no-shrink     report failing schedules without ddmin\n"
      "  --replay OPS    run one schedule repro (e.g. \"S8 P F K\") against\n"
      "                  --seed's config and exit\n",
      argv0);
}

/// The storm every sweep run injects: every point armed, capped so each
/// run terminates, two scheduled kills so crash recovery is always on the
/// path. Decisions are counter-hashed from (plan seed, point), so the
/// injection sequence is a pure function of the seed.
ocp::chaos::PlanSpec storm_plan(std::uint64_t seed) {
  return {.seed = seed,
          .deny_submit = 0.1,
          .max_denies = 16,
          .duplicate_batch = 0.2,
          .max_duplicates = 6,
          .defer_batch = 0.2,
          .max_defers = 6,
          .stall_batch = 0.2,
          .stall_max_us = 150,
          .max_stalls = 6,
          .poison_publish = 0.2,
          .max_poisons = 6,
          .kill_at_stamps = {2, 5}};
}

int replay(const std::string& ops_text, std::uint64_t seed,
           std::size_t events) {
  const auto schedule = ocp::chaos::parse_schedule(ops_text);
  if (!schedule) {
    std::fprintf(stderr, "error: malformed schedule repro '%s'\n",
                 ops_text.c_str());
    return 2;
  }
  ocp::chaos::ScheduleConfig config;
  config.seed = seed;
  config.events = events;
  config.plan = storm_plan(seed);
  const ocp::chaos::ScheduleResult result =
      ocp::chaos::run_schedule(config, *schedule);
  std::printf("replay seed=%llu: %s\n",
              static_cast<unsigned long long>(seed),
              ocp::chaos::to_string(*schedule).c_str());
  std::printf(
      "  epoch=%llu faults=%zu digest=%016llx expected=%016llx "
      "kills=%llu restarts=%llu\n",
      static_cast<unsigned long long>(result.final_epoch),
      result.final_faults,
      static_cast<unsigned long long>(result.final_digest),
      static_cast<unsigned long long>(result.expected_digest),
      static_cast<unsigned long long>(result.injected.kills),
      static_cast<unsigned long long>(result.restarts));
  for (const std::string& violation : result.violations) {
    std::printf("  VIOLATION %s\n", violation.c_str());
  }
  std::printf("  %s\n", result.ok() ? "ok" : "FAILED");
  return result.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seed = 1;
  std::size_t load_runs = 4;
  std::size_t schedule_runs = 4;
  std::size_t events = 192;
  std::size_t threads = 2;
  std::size_t ops = 56;
  bool shrink = true;
  std::string replay_ops;

  for (int i = 1; i < argc; ++i) {
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs a value\n", argv[i]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--seed") == 0) {
      seed = std::strtoull(next(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--seeds") == 0) {
      load_runs = std::strtoull(next(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--schedules") == 0) {
      schedule_runs = std::strtoull(next(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--events") == 0) {
      events = std::strtoull(next(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      threads = std::strtoull(next(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--ops") == 0) {
      ops = std::strtoull(next(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--no-shrink") == 0) {
      shrink = false;
    } else if (std::strcmp(argv[i], "--replay") == 0) {
      replay_ops = next();
    } else if (std::strcmp(argv[i], "--help") == 0 ||
               std::strcmp(argv[i], "-h") == 0) {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "error: unknown argument '%s'\n", argv[i]);
      usage(argv[0]);
      return 2;
    }
  }

  if (!replay_ops.empty()) return replay(replay_ops, seed, events);

  std::size_t failures = 0;

  if (load_runs > 0) {
    std::printf("== chaos load sweep: %zu run(s), %zu events, %zu query "
                "thread(s)\n",
                load_runs, events, threads);
    std::printf("%-6s %-18s %6s %6s %8s %8s %8s %6s\n", "seed", "digest",
                "faults", "kills", "restarts", "poisons", "stale_q", "ok");
    for (std::size_t i = 0; i < load_runs; ++i) {
      ocp::chaos::ChaosLoadConfig config;
      config.seed = seed + i;
      config.events = events;
      config.query_threads = threads;
      config.service.max_batch = 8;  // many epochs: the kill stamps exist
      config.plan = storm_plan(seed + i);
      const ocp::chaos::ChaosLoadResult result =
          ocp::chaos::run_chaos_load(config);
      std::printf("%-6llu %016llx %6zu %6llu %8llu %8llu %8llu %6s\n",
                  static_cast<unsigned long long>(config.seed),
                  static_cast<unsigned long long>(result.chaos_digest),
                  result.final_faults,
                  static_cast<unsigned long long>(result.injected.kills),
                  static_cast<unsigned long long>(result.restarts),
                  static_cast<unsigned long long>(result.injected.poisons),
                  static_cast<unsigned long long>(result.stale_queries_served),
                  result.ok() ? "ok" : "FAIL");
      if (!result.ok()) {
        ++failures;
        std::printf("  FAIL seed=%llu: digest %016llx != clean %016llx, "
                    "monotone=%d, stale_pending=%llu\n",
                    static_cast<unsigned long long>(config.seed),
                    static_cast<unsigned long long>(result.chaos_digest),
                    static_cast<unsigned long long>(result.clean_digest),
                    result.epochs_monotone ? 1 : 0,
                    static_cast<unsigned long long>(
                        result.stale_epochs_pending));
      }
    }
  }

  if (schedule_runs > 0) {
    std::printf("== chaos schedule sweep: %zu run(s), %zu ops each\n",
                schedule_runs, ops);
    for (std::size_t i = 0; i < schedule_runs; ++i) {
      ocp::chaos::ScheduleConfig config;
      config.seed = seed + i;
      config.events = events / 2;
      config.plan = storm_plan(seed + i);
      const std::vector<ocp::chaos::Op> schedule =
          ocp::chaos::generate_schedule((seed + i) * 17, ops);
      const ocp::chaos::ScheduleResult result =
          ocp::chaos::run_schedule(config, schedule);
      if (result.ok()) {
        std::printf("seed %-4llu ok    epoch=%llu faults=%zu kills=%llu\n",
                    static_cast<unsigned long long>(config.seed),
                    static_cast<unsigned long long>(result.final_epoch),
                    result.final_faults,
                    static_cast<unsigned long long>(result.injected.kills));
        continue;
      }
      ++failures;
      std::printf("seed %-4llu FAIL  %s\n",
                  static_cast<unsigned long long>(config.seed),
                  result.violations.front().c_str());
      if (shrink) {
        std::size_t runs = 0;
        const std::vector<ocp::chaos::Op> minimal =
            ocp::chaos::shrink_schedule(config, schedule, &runs);
        std::printf(
            "  repro (%zu shrink runs): chaos_soak --replay \"%s\" "
            "--seed %llu --events %zu\n",
            runs, ocp::chaos::to_string(minimal).c_str(),
            static_cast<unsigned long long>(config.seed), config.events);
      } else {
        std::printf("  repro: chaos_soak --replay \"%s\" --seed %llu "
                    "--events %zu\n",
                    ocp::chaos::to_string(schedule).c_str(),
                    static_cast<unsigned long long>(config.seed),
                    config.events);
      }
    }
  }

  if (failures > 0) {
    std::printf("%zu soak run(s) FAILED\n", failures);
    return 1;
  }
  std::printf("all soak runs converged\n");
  return 0;
}
