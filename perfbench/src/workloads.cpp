#include "workloads.hpp"

#include "bench_util.hpp"
#include "tracer.hpp"
#include "util/pool_stats.hpp"

namespace perfbench {

const std::vector<MetricDef> kEndToEndMetrics = {
    {"setup_s", "s"},
    {"p50_us_low", "us"},
    {"p99_us_low", "us"},
    {"p50_us_mid", "us"},
    {"p99_us_mid", "us"},
    {"throughput_ops_s", "ops/s"},
    {"idle_cpu_pct", "%"},
    {"cpu_us_per_op", "us"},
    {"rss_mib", "MiB"},
};

const std::vector<MetricDef> kPerLayerMetrics = {
    {"server.read_frame_us_p50", "us"},
    {"server.read_frame_us_p99", "us"},
    {"server.update_frame_us_p50", "us"},
    {"server.update_frame_us_p99", "us"},
    {"server.update_overhead_us_p50", "us"},
    {"server.inline_share_pct", "%"},
    {"server.shed_frames", "count"},
    {"ingest.sojourn_us_p50", "us"},
    {"ingest.sojourn_us_p99", "us"},
    {"ingest.batch_fill_avg", "ops"},
    {"ingest.fsyncs_per_kop", "count"},
    {"ingest.queue_depth_p99", "ops"},
    {"ingest.applier_engine_pct", "%"},
    {"core.read_batch_ns_per_op", "ns"},
    {"core.update_batch_ns_per_op", "ns"},
    {"core.update_batch_us_p99", "us"},
    {"core.connected_ns_p50", "ns"},
    {"core.connected_ns_p99", "ns"},
    {"core.add_ns_p50", "ns"},
    {"core.add_ns_p99", "ns"},
    {"core.remove_ns_p50", "ns"},
    {"core.remove_ns_p99", "ns"},
    {"core.label_hit_pct", "%"},
    {"core.read_retries_per_kread", "count"},
    {"core.nonblocking_update_pct", "%"},
    {"core.nonspanning_update_pct", "%"},
    {"core.replacement_searches_per_kremove", "count"},
    {"core.replacement_found_pct", "%"},
    {"core.lock_wait_ns_per_update", "ns"},
    {"core.lock_contended_pct", "%"},
    {"util.allocs_per_kop", "count"},
    {"util.pool_hit_pct", "%"},
    {"util.pool_resident_mib", "MiB"},
    {"wire.encode_ns_per_op", "ns"},
    {"wire.decode_ns_per_op", "ns"},
    {"wire.request_bytes_per_op", "B"},
    {"wire.response_bytes_per_op", "B"},
    {"client.send_lag_us_p99", "us"},
    {"client.busy_pct", "%"},
    {"trace.overhead_pct", "%"},
};

const char* phase_name(Phase p) noexcept {
  switch (p) {
    case Phase::kPrefill: return "prefill";
    case Phase::kLow: return "low";
    case Phase::kMid: return "mid";
    case Phase::kSat: return "sat";
    case Phase::kSatUntraced: return "sat_untraced";
  }
  return "?";
}

Durations split_seconds(double seconds) {
  const double ns = seconds * 1e9;
  return {static_cast<int64_t>(0.1 * ns), static_cast<int64_t>(0.3 * ns),
          static_cast<int64_t>(0.4 * ns), static_cast<int64_t>(0.2 * ns)};
}

bool is_serve_workload(const std::string& name) {
  return name == "serve-read-mostly" || name == "serve-durable-writes";
}

namespace {

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

void add_latency_metrics(Result& r, const std::string& phase,
                         const std::vector<TimedSample>& samples) {
  const WindowedPercentiles w = windowed_percentiles(samples, kLatencyWindows);
  r.metrics["p50_us_" + phase] = w.p50 / 1e3;
  r.metrics["p99_us_" + phase] = w.p99 / 1e3;
  std::vector<int64_t> values;
  values.reserve(samples.size());
  for (const TimedSample& t : samples) values.push_back(t.value);
  const Summary s = summarize(values);
  r.extras.push_back({"pooled_p50_us_" + phase, s.p50 / 1e3});
  r.extras.push_back({"pooled_p99_us_" + phase, s.p99 / 1e3});
  r.extras.push_back({"p999_us_" + phase, s.p999 / 1e3});
  r.extras.push_back({"samples_" + phase, static_cast<double>(s.count)});
  r.extras.push_back({"tail_q_" + phase, s.tail.q});
  r.extras.push_back({"tail_us_" + phase, s.tail.value / 1e3});
}

void add_core_metrics(Result& r, const Tracer& tracer) {
  const ThreadTrace* applier = find_applier(tracer);
  Counters sum{};
  CallStats worker_reads;     // pure-read apply_batch off the applier
  CallStats applier_batches;  // every apply_batch on the applier
  uint64_t ops = 0;
  uint64_t updates = 0;
  for (const auto& t : tracer.threads()) {
    for (std::size_t i = 0; i < kNumCounters; ++i) sum[i] += t->counters[i];
    for (std::size_t c = 0; c <= idx(Call::kQuiesce); ++c) {
      ops += t->calls[c].ops;
      updates += t->calls[c].updates;
    }
    if (t.get() == applier) {
      applier_batches.merge(t->calls[idx(Call::kReadBatch)]);
      applier_batches.merge(t->calls[idx(Call::kUpdateBatch)]);
    } else {
      worker_reads.merge(t->calls[idx(Call::kReadBatch)]);
    }
  }
  auto& m = r.metrics;
  m["core.read_batch_ns_per_op"] = ratio(worker_reads.total_ns, worker_reads.ops);
  m["core.update_batch_ns_per_op"] =
      ratio(applier_batches.total_ns, applier_batches.ops);
  m["core.update_batch_us_p99"] = applier_batches.latency_ns.percentile(0.99) / 1e3;
  const auto per_call = [&](Call c, const std::string& name) {
    const CallStats s = tracer.merged(c);
    m["core." + name + "_ns_p50"] = s.latency_ns.percentile(0.50);
    m["core." + name + "_ns_p99"] = s.latency_ns.percentile(0.99);
  };
  per_call(Call::kConnected, "connected");
  per_call(Call::kAdd, "add");
  per_call(Call::kRemove, "remove");
  const double effective = static_cast<double>(sum[kAdditions] + sum[kRemovals]);
  m["core.label_hit_pct"] =
      100 * ratio(sum[kLabelHits], sum[kLabelHits] + sum[kLabelMisses]);
  m["core.read_retries_per_kread"] = 1000 * ratio(sum[kReadRetries], ops - updates);
  m["core.nonblocking_update_pct"] = 100 * ratio(sum[kNonblockingUpdates], effective);
  m["core.nonspanning_update_pct"] =
      100 * ratio(sum[kNonspanningAdditions] + sum[kNonspanningRemovals], effective);
  m["core.replacement_searches_per_kremove"] =
      1000 * ratio(sum[kReplacementSearches], sum[kRemovals]);
  m["core.replacement_found_pct"] =
      100 * ratio(sum[kReplacementsFound], sum[kReplacementSearches]);
  m["core.lock_wait_ns_per_update"] = ratio(sum[kLockWaitNs], updates);
  m["core.lock_contended_pct"] =
      100 * ratio(sum[kLockContended], sum[kLockAcquisitions]);
  m["util.allocs_per_kop"] = 1000 * ratio(sum[kAllocatorCalls], ops);
  m["util.pool_hit_pct"] =
      100 * ratio(sum[kPoolReused], sum[kPoolFresh] + sum[kPoolReused]);
  m["util.pool_resident_mib"] =
      static_cast<double>(condyn::pool_stats::resident_bytes()) / (1024.0 * 1024.0);
}

}  // namespace perfbench
