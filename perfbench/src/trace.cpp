#include "trace.hpp"

#include <cstdio>
#include <fstream>

namespace perfbench {

const char* layer_name(L l) {
  switch (l) {
    case L::QueueSubmit: return "svc.queue.submit";
    case L::QueueFlush: return "svc.queue.flush";
    case L::QueryAcquire: return "svc.query.acquire";
    case L::QueryStatus: return "svc.query.status";
    case L::QueryRegion: return "svc.query.region";
    case L::QueryRoute: return "routing.route";
    case L::QueryBatch: return "svc.query.batch";
    case L::IngestApply: return "svc.ingest.apply";
    case L::CoreRelabel: return "core.relabel";
    case L::SnapshotNext: return "svc.snapshot.next";
    case L::AllocSubmit: return "alloc.submit";
    case L::AllocTick: return "alloc.tick";
    case L::AllocObserve: return "alloc.observe_epoch";
    case L::AllocView: return "alloc.view";
    case L::kCount: break;
  }
  return "?";
}

void ThreadTrace::begin(L layer, std::uint64_t request) {
  // A nested span inherits its parent's request id.
  if (request == 0 && !stack_.empty()) request = stack_.back().request;
  stack_.push_back({layer, next_id_++, request, now_ns(), 0});
}

std::int64_t ThreadTrace::end() {
  const std::int64_t t = now_ns();
  const Open open = stack_.back();
  stack_.pop_back();
  const std::int64_t dur = t - open.start_ns;
  const std::int64_t self = dur - open.child_ns;
  if (!stack_.empty()) stack_.back().child_ns += dur;
  Aggregate& a = agg_[static_cast<std::size_t>(open.layer)];
  ++a.count;
  a.total_ns += dur;
  a.self_ns += self;
  a.duration.add_ns(dur);
  if (kept_.size() < keep_cap_) {
    kept_.push_back({open.layer, thread_id_, open.id,
                     stack_.empty() ? 0 : stack_.back().id, open.request,
                     open.start_ns, t});
  }
  return dur;
}

ThreadTrace* Tracer::thread() {
  std::lock_guard lock(mu_);
  threads_.push_back(std::make_unique<ThreadTrace>(
      static_cast<std::uint32_t>(threads_.size()), kKeepPerThread));
  return threads_.back().get();
}

std::array<ThreadTrace::Aggregate, kLayerCount> Tracer::merged() const {
  std::lock_guard lock(mu_);
  std::array<ThreadTrace::Aggregate, kLayerCount> out{};
  for (const auto& t : threads_) {
    for (std::size_t i = 0; i < kLayerCount; ++i) {
      const ThreadTrace::Aggregate& a = t->aggregates()[i];
      out[i].count += a.count;
      out[i].total_ns += a.total_ns;
      out[i].self_ns += a.self_ns;
      out[i].duration.merge(a.duration);
    }
  }
  return out;
}

std::size_t Tracer::write_jsonl(const std::string& path) const {
  std::lock_guard lock(mu_);
  std::ofstream out(path);
  std::size_t n = 0;
  for (const auto& t : threads_) {
    for (const ThreadTrace::Record& r : t->records()) {
      out << "{\"name\":\"" << layer_name(r.layer) << "\",\"thread\":"
          << r.thread << ",\"span\":" << r.id << ",\"parent\":" << r.parent
          << ",\"request\":" << r.request << ",\"start_ns\":" << r.start_ns
          << ",\"end_ns\":" << r.end_ns << "}\n";
      ++n;
    }
  }
  return n;
}

void Tracer::print_table() const {
  const auto agg = merged();
  std::int64_t all_self = 0;
  for (const auto& a : agg) all_self += a.self_ns;
  std::printf("%-22s %10s %12s %12s %8s %10s %10s\n", "layer", "count",
              "total_ms", "self_ms", "self_%", "p50_us", "p99_us");
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    const auto& a = agg[i];
    if (a.count == 0) continue;
    std::printf("%-22s %10llu %12.3f %12.3f %7.1f%% %10.3f %10.3f\n",
                layer_name(static_cast<L>(i)),
                static_cast<unsigned long long>(a.count),
                static_cast<double>(a.total_ns) / 1e6,
                static_cast<double>(a.self_ns) / 1e6,
                all_self > 0 ? 100.0 * static_cast<double>(a.self_ns) /
                                   static_cast<double>(all_self)
                             : 0.0,
                a.duration.percentile_us(0.5), a.duration.percentile_us(0.99));
  }
}

}  // namespace perfbench
