#include "tracer.hpp"

#include <cstdio>

#include "core/stats.hpp"
#include "util/lock_stats.hpp"
#include "util/pool_stats.hpp"

namespace perfbench {

namespace {
std::atomic<uint64_t> g_generation{0};
}  // namespace

const char* layer_name(Layer l) noexcept {
  switch (l) {
    case Layer::kCore: return "core";
    case Layer::kServer: return "server";
    case Layer::kWire: return "wire";
  }
  return "?";
}

const char* call_name(Call c) noexcept {
  static constexpr const char* kNames[kNumCalls] = {
      "add_edge",       "remove_edge", "connected",  "component_size",
      "representative", "components",  "read_batch", "update_batch",
      "quiesce",        "read_frame",  "update_frame", "encode_ops",
      "decode_ops"};
  return idx(c) < kNumCalls ? kNames[idx(c)] : "?";
}

Counters thread_counters() noexcept {
  const condyn::op_stats::Counters& o = condyn::op_stats::local();
  const condyn::lock_stats::Counters& l = condyn::lock_stats::local();
  const condyn::pool_stats::Counters& p = condyn::pool_stats::local();
  return {o.reads,
          o.read_retries,
          o.additions,
          o.nonspanning_additions,
          o.removals,
          o.nonspanning_removals,
          o.nonblocking_updates,
          o.replacement_searches,
          o.replacements_found,
          o.label_hits,
          o.label_misses,
          l.wait_ns,
          l.acquisitions,
          l.contended,
          p.pool_fresh,
          p.pool_reused,
          p.allocator_calls};
}

void CallStats::merge(const CallStats& o) noexcept {
  latency_ns.merge(o.latency_ns);
  calls += o.calls;
  ops += o.ops;
  updates += o.updates;
  total_ns += o.total_ns;
}

Tracer::Tracer(std::size_t spans_per_thread)
    : generation_(g_generation.fetch_add(1, std::memory_order_relaxed) + 1),
      spans_per_thread_(spans_per_thread) {}

ThreadTrace& Tracer::local() {
  // One cached record per thread; the generation tells tracers apart even
  // when a later one lives at an earlier one's address.
  thread_local uint64_t cached_generation = 0;
  thread_local ThreadTrace* cached = nullptr;
  if (cached_generation == generation_) return *cached;
  std::lock_guard lk(mu_);
  const std::thread::id id = std::this_thread::get_id();
  ThreadTrace* found = nullptr;
  for (const auto& t : threads_) {
    if (t->id == id) found = t.get();
  }
  if (found == nullptr) {
    threads_.push_back(std::make_unique<ThreadTrace>());
    found = threads_.back().get();
    found->id = id;
    found->index = static_cast<uint16_t>(threads_.size() - 1);
  }
  cached_generation = generation_;
  cached = found;
  return *found;
}

void Tracer::record(Layer layer, Call call, int64_t start_ns, int64_t end_ns,
                    uint32_t ops, uint32_t updates, const Counters* delta) {
  ThreadTrace& t = local();
  CallStats& s = t.calls[idx(call)];
  const uint64_t dur =
      end_ns > start_ns ? static_cast<uint64_t>(end_ns - start_ns) : 0;
  s.latency_ns.add(dur);
  ++s.calls;
  s.ops += ops;
  s.updates += updates;
  s.total_ns += dur;
  if (delta != nullptr) {
    for (std::size_t i = 0; i < kNumCounters; ++i) t.counters[i] += (*delta)[i];
  }
  if (t.spans.size() < spans_per_thread_) {
    t.spans.push_back({start_ns, end_ns, ops, t.index, layer, call});
  }
}

CallStats Tracer::merged(Call c) const {
  CallStats out;
  for (const auto& t : threads_) out.merge(t->calls[idx(c)]);
  return out;
}

bool Tracer::write_spans(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "layer,call,thread,start_ns,end_ns,ops\n");
  for (const auto& t : threads_) {
    for (const Span& s : t->spans) {
      std::fprintf(f, "%s,%s,%u,%lld,%lld,%u\n", layer_name(s.layer),
                   call_name(s.call), static_cast<unsigned>(s.thread),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.ops);
    }
  }
  return std::fclose(f) == 0;
}

const ThreadTrace* find_applier(const Tracer& tracer) {
  for (const auto& t : tracer.threads()) {
    if (t->calls[idx(Call::kUpdateBatch)].calls > 0) return t.get();
  }
  return nullptr;
}

}  // namespace perfbench
