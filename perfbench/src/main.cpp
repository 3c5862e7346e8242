// Benchmark driver for the serving stack. One process runs one workload:
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    [--spans FILE]
//
// It prints a human-readable summary and, as its last line, one JSON object
// with the correctness verdict, load accounting, input digests and every
// metric the run measured. perfbench/run.py builds this driver, adds the
// host provenance and reduces the object to the benchmark's result line.
//
// --trace 0 runs the workload once, untraced: the end-to-end metrics.
// --trace 1 runs it untraced and then traced, each for 0.4 S, and the
// traced part ends with the single-thread fault-path replay. Per-layer
// metrics come from the traced part; the difference between the two parts
// is the tracing overhead.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.hpp"

namespace {

using perfbench::Report;

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += ' ';
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

Report run(const std::string& workload, const perfbench::RunConfig& cfg) {
  if (workload == "query_steady") return perfbench::run_query_steady(cfg);
  return perfbench::run_alloc_churn(cfg);
}

void print_summary(const char* title, const Report& r) {
  std::printf("== %s\n", title);
  for (const auto& [key, value] : r.notes) {
    std::printf("  %-32s %s\n", key.c_str(), value.c_str());
  }
  std::printf("  %-24s %10s %10s %10s %10s\n", "phase/op", "sent", "ok",
              "failed", "retried");
  for (const auto& [key, c] : r.ops) {
    std::printf("  %-24s %10llu %10llu %10llu %10llu\n", key.c_str(),
                static_cast<unsigned long long>(c.sent),
                static_cast<unsigned long long>(c.ok),
                static_cast<unsigned long long>(c.failed),
                static_cast<unsigned long long>(c.retried));
  }
  for (const Report::Metric& m : r.metrics) {
    std::printf("  %-40s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& g : r.gate_failures) {
    std::printf("  GATE FAILED: %s\n", g.c_str());
  }
  for (const std::string& v : r.invalid) {
    std::printf("  INVALID: %s\n", v.c_str());
  }
}

void usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload query_steady|alloc_churn "
               "--seed N --seconds S --trace 0|1 [--spans FILE]\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string spans_path = "spans.jsonl";
  perfbench::RunConfig cfg;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      workload = value;
    } else if (key == "--seed") {
      cfg.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      cfg.seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      trace = std::atoi(value);
    } else if (key == "--spans") {
      spans_path = value;
    } else {
      usage();
      return 2;
    }
  }
  if ((workload != "query_steady" && workload != "alloc_churn") ||
      !(cfg.seconds >= 1.0 && cfg.seconds <= 120.0) || argc % 2 == 0) {
    usage();
    return 2;
  }

  Report result;
  if (trace == 0) {
    result = run(workload, cfg);
    print_summary("timed run", result);
  } else {
    perfbench::RunConfig part = cfg;
    part.seconds = 0.4 * cfg.seconds;
    const Report untraced = run(workload, part);
    print_summary("untraced part", untraced);
    perfbench::Tracer tracer;
    part.tracer = &tracer;
    result = run(workload, part);
    print_summary("traced part", result);
    result.gate_failures.insert(result.gate_failures.end(),
                                untraced.gate_failures.begin(),
                                untraced.gate_failures.end());
    result.invalid.insert(result.invalid.end(), untraced.invalid.begin(),
                          untraced.invalid.end());
    result.sends += untraced.sends;
    result.late_sends += untraced.late_sends;
    for (const auto& [key, c] : untraced.ops) {
      perfbench::OpCount& dst = result.ops["untraced " + key];
      dst = c;
    }
    const auto agg = tracer.merged();
    const auto p50 = [&agg](perfbench::L l) {
      return agg[static_cast<std::size_t>(l)].duration.percentile_us(0.5);
    };
    result.metric("query.acquire_us_p50", p50(perfbench::L::QueryAcquire), "us");
    result.metric("query.status_us_p50", p50(perfbench::L::QueryStatus), "us");
    result.metric("query.region_us_p50", p50(perfbench::L::QueryRegion), "us");
    result.metric("query.batch_us_p50", p50(perfbench::L::QueryBatch), "us");
    std::printf("== per-layer spans (traced part, all threads)\n");
    tracer.print_table();
    const std::size_t written = tracer.write_jsonl(spans_path);
    std::printf("wrote %zu spans to %s\n", written, spans_path.c_str());
    std::printf("tracing overhead (traced vs untraced part):");
    for (const char* name : {"ops_per_s", "op_p50_us", "fresh_p50_us"}) {
      const double base = untraced.get(name);
      const double traced = result.get(name);
      if (base > 0.0) {
        std::printf(" %s %+.1f%%", name, 100.0 * (traced - base) / base);
      }
    }
    std::printf("\n");
  }

  const bool correct = result.gate_failures.empty();
  std::printf("{\"workload\":\"%s\",\"seed\":%llu,\"trace\":%d,", workload.c_str(),
              static_cast<unsigned long long>(cfg.seed), trace);
  std::printf("\"build_type\":\"%s\",\"compiler\":\"%s\",", PERFBENCH_BUILD_TYPE,
              json_escape(__VERSION__).c_str());
  std::printf("\"correct\":%s,\"valid\":%s,", correct ? "true" : "false",
              result.invalid.empty() ? "true" : "false");
  std::printf("\"attempted\":%llu,\"failed\":%llu,",
              static_cast<unsigned long long>(result.attempted()),
              static_cast<unsigned long long>(result.failed()));
  std::printf("\"sends\":%llu,\"late_sends\":%llu,",
              static_cast<unsigned long long>(result.sends),
              static_cast<unsigned long long>(result.late_sends));
  std::printf("\"gate_failures\":[");
  for (std::size_t i = 0; i < result.gate_failures.size(); ++i) {
    std::printf("%s\"%s\"", i ? "," : "", json_escape(result.gate_failures[i]).c_str());
  }
  std::printf("],\"invalid\":[");
  for (std::size_t i = 0; i < result.invalid.size(); ++i) {
    std::printf("%s\"%s\"", i ? "," : "", json_escape(result.invalid[i]).c_str());
  }
  std::printf("],\"ops\":{");
  bool first = true;
  for (const auto& [key, c] : result.ops) {
    std::printf("%s\"%s\":{\"sent\":%llu,\"ok\":%llu,\"failed\":%llu,\"retried\":%llu}",
                first ? "" : ",", json_escape(key).c_str(),
                static_cast<unsigned long long>(c.sent),
                static_cast<unsigned long long>(c.ok),
                static_cast<unsigned long long>(c.failed),
                static_cast<unsigned long long>(c.retried));
    first = false;
  }
  std::printf("},\"notes\":{");
  first = true;
  for (const auto& [key, value] : result.notes) {
    std::printf("%s\"%s\":\"%s\"", first ? "" : ",", json_escape(key).c_str(),
                json_escape(value).c_str());
    first = false;
  }
  std::printf("},\"metrics\":{");
  first = true;
  for (const Report::Metric& m : result.metrics) {
    std::printf("%s\"%s\":{\"value\":%s,\"unit\":\"%s\"}", first ? "" : ",",
                m.name.c_str(), json_number(m.value).c_str(), m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}
