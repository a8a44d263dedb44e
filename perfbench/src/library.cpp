// library-contended: four caller threads call the `full` variant directly,
// with no server and no wire. The server sends every update through its one
// applier thread, so only here do the paper's concurrent-update paths run:
// component locks, lock-free non-spanning updates, and reads racing cuts.

#include <unistd.h>

#include <algorithm>
#include <array>
#include <exception>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/factory.hpp"
#include "bench_util.hpp"
#include "graph/dsu.hpp"
#include "graph/generators.hpp"
#include "harness/workload.hpp"
#include "tracer.hpp"
#include "util/random.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using condyn::Edge;
using condyn::Op;
using condyn::Vertex;

constexpr Vertex kN = 1u << 16;
constexpr std::size_t kM = 1u << 17;
constexpr unsigned kComponents = 8;
constexpr unsigned kThreads = 4;
constexpr uint64_t kReadPercent = 80;
/// Offered rate of `mid`: the callers keep paced calls on schedule with
/// sleeps at this rate (README.md: why it is not derived from throughput).
constexpr double kMidRate = 40000;
constexpr int kSetupReps = 15;
constexpr std::size_t kPrefillBatch = 1024;

/// One caller thread's share of the graph and what it measured.
struct Caller {
  std::vector<Edge> edges;       ///< owned: edge_partition_hash % kThreads
  std::vector<uint8_t> present;  ///< presence of each owned edge
  condyn::Xoshiro256 rng;
  double offset = 0;  ///< paced-schedule offset, share of an interval
  std::array<uint64_t, kNumPhases> ops{};
  std::array<uint64_t, kNumPhases> cpu_ns{};
  std::array<std::vector<TimedSample>, kNumPhases> latency_ns;  ///< paced calls
  std::vector<int64_t> lag_ns;  ///< paced: how late each call started
  uint64_t wrong = 0;
  std::vector<std::string> mismatches;
  std::string error;  ///< what ended this caller's phase early, if anything
};

/// One call of the mix on an owned edge. No other thread touches the edge,
/// so an update's return value must match the owner's presence map.
void call_once(condyn::DynamicConnectivity& dc, Caller& c, unsigned thread) {
  const std::size_t i = c.rng.next_below(c.edges.size());
  const Edge e = c.edges[i];
  if (c.rng.next_below(100) < kReadPercent) {
    (void)dc.connected(e.u, e.v);
    return;
  }
  const bool add = c.rng.next_below(2) == 0;
  const bool want = add ? c.present[i] == 0 : c.present[i] != 0;
  const bool got = add ? dc.add_edge(e.u, e.v) : dc.remove_edge(e.u, e.v);
  c.present[i] = add ? 1 : 0;
  if (got == want) return;
  ++c.wrong;
  if (c.mismatches.size() < kMaxReported) {
    c.mismatches.push_back(
        "wrong answer: workload=library-contended thread=" +
        std::to_string(thread) + (add ? " add_edge(" : " remove_edge(") +
        std::to_string(e.u) + "," + std::to_string(e.v) + ") returned " +
        (got ? "true" : "false"));
  }
}

/// One caller's part of a phase, until `end`: paced calls at rate / kThreads
/// per second from its own schedule offset, or back-to-back calls when
/// `rate` is 0.
void run_caller(condyn::DynamicConnectivity& dc, Caller& c, unsigned thread,
                Phase phase, double rate, int64_t start, int64_t end) {
  const std::size_t p = idx(phase);
  const uint64_t cpu0 = thread_cpu_ns();
  if (rate > 0) {
    // Open loop: a late caller calls at once and skips nothing.
    const double interval = 1e9 * kThreads / rate;
    for (double due = static_cast<double>(start) + c.offset * interval;
         due < static_cast<double>(end); due += interval) {
      const auto at = static_cast<int64_t>(due);
      sleep_until_ns(at);
      const int64_t t0 = now_ns();
      call_once(dc, c, thread);
      const int64_t t1 = now_ns();
      c.lag_ns.push_back(t0 - at);
      c.latency_ns[p].push_back({at, t1 - t0});
      ++c.ops[p];
    }
  } else {
    while (now_ns() < end) {
      for (int k = 0; k < 64; ++k) call_once(dc, c, thread);
      c.ops[p] += 64;
    }
  }
  c.cpu_ns[p] += thread_cpu_ns() - cpu0;
}

/// One phase: a thread per caller, all joined, also when one fails to
/// start. Returns the wall time from the phase start until the last caller
/// finished.
int64_t run_phase(condyn::DynamicConnectivity& dc, std::vector<Caller>& callers,
                  Phase phase, double rate, int64_t duration_ns) {
  const int64_t start = now_ns();
  {
    std::vector<std::jthread> threads;
    for (unsigned i = 0; i < callers.size(); ++i) {
      threads.emplace_back([&, i] {
        try {
          run_caller(dc, callers[i], i, phase, rate, start, start + duration_ns);
        } catch (const std::exception& e) {
          callers[i].error = e.what();
        }
      });
    }
  }
  return now_ns() - start;
}

}  // namespace

Result run_library(const RunOptions& o) {
  Result r;
  const Durations d = split_seconds(o.seconds);
  const condyn::Graph g =
      condyn::gen::random_components(kN, kM, kComponents, o.seed);
  condyn::SplitMix64 seeds(condyn::mix64(o.seed ^ 0x11b7a2c0ULL));
  std::vector<Caller> callers(kThreads);
  const auto owner = [](const Edge& e) {
    return static_cast<unsigned>(condyn::harness::edge_partition_hash(e.u, e.v) %
                                 kThreads);
  };
  // Shares keep g's sorted edge order, so an owner finds an edge by binary
  // search; every component is spread over all four shares.
  for (const Edge& e : g.edges()) callers[owner(e)].edges.push_back(e);
  for (Caller& c : callers) {
    c.present.assign(c.edges.size(), 0);
    c.rng = condyn::Xoshiro256(seeds.next());
    c.offset = static_cast<double>(seeds.next() >> 11) * 0x1.0p-53;
  }
  std::vector<Op> prefill;
  for (const Edge& e : condyn::harness::random_half(g, seeds.next())) {
    prefill.push_back(Op::add(e.u, e.v));
    Caller& c = callers[owner(e)];
    c.present[static_cast<std::size_t>(
        std::lower_bound(c.edges.begin(), c.edges.end(), e) - c.edges.begin())] = 1;
  }

  // Construction plus prefill, kSetupReps times; the last structure is the
  // one measured, setup_s the median.
  std::vector<double> setups;
  std::unique_ptr<condyn::DynamicConnectivity> dc;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    dc.reset();
    const int64_t t0 = now_ns();
    dc = condyn::make_variant("full", kN);
    for (std::size_t i = 0; i < prefill.size(); i += kPrefillBatch) {
      const condyn::BatchResult res = dc->apply_batch(std::span<const Op>(prefill).subspan(
          i, std::min(kPrefillBatch, prefill.size() - i)));
      for (const uint64_t v : res.values) {
        if (v != 1) throw std::runtime_error("a prefill add was not applied");
      }
    }
    setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }

  Tracer tracer;
  TracedDc traced(*dc, tracer);
  condyn::DynamicConnectivity& target =
      o.trace ? static_cast<condyn::DynamicConnectivity&>(traced) : *dc;
  // No other process is started here, and the callers inherit this slack.
  tighten_timer_slack();
  const pid_t self = ::getpid();
  // The structure owns no threads: over the idle window this reads the
  // process's floor, which only a background thread in the library raises.
  const double idle = o.trace ? 0 : idle_cpu_pct(self, d.idle);
  tracer.set_enabled(o.trace);
  const int64_t low_ns = run_phase(target, callers, Phase::kLow, kLowRate, d.low);
  const int64_t mid_ns = run_phase(target, callers, Phase::kMid, kMidRate, d.mid);
  const int64_t sat_ns = run_phase(target, callers, Phase::kSat, 0, d.sat);
  tracer.set_enabled(false);
  const int64_t untraced_ns =
      o.trace ? run_phase(target, callers, Phase::kSatUntraced, 0, d.sat) : 0;

  // Quiescent check: every representative against a DSU over the edges the
  // owners' presence maps say are live.
  condyn::Dsu dsu(kN);
  for (const Caller& c : callers) {
    for (std::size_t i = 0; i < c.edges.size(); ++i) {
      if (c.present[i] != 0) dsu.unite(c.edges[i].u, c.edges[i].v);
    }
  }
  uint64_t wrong_reps = 0;
  for (Vertex v = 0; v < kN; ++v) {
    const Vertex got = dc->representative(v);
    const Vertex want = dsu.representative(v);
    if (got != want && wrong_reps++ < kMaxReported) {
      r.errors.push_back(
          "wrong answer: workload=library-contended quiescent representative(" +
          std::to_string(v) + ") = " + std::to_string(got) + ", expected " +
          std::to_string(want));
    }
  }

  std::array<uint64_t, kNumPhases> ops{};
  std::vector<TimedSample> low_lat, mid_lat;
  std::vector<int64_t> lag;
  uint64_t busy_ns = 0;
  uint64_t sat_cpu_ns = 0;
  for (Caller& c : callers) {
    for (std::size_t p = 0; p < kNumPhases; ++p) ops[p] += c.ops[p];
    r.failed += c.wrong;
    r.errors.insert(r.errors.end(), c.mismatches.begin(), c.mismatches.end());
    if (!c.error.empty()) r.errors.push_back("library-contended caller: " + c.error);
    const auto& low = c.latency_ns[idx(Phase::kLow)];
    const auto& mid = c.latency_ns[idx(Phase::kMid)];
    low_lat.insert(low_lat.end(), low.begin(), low.end());
    mid_lat.insert(mid_lat.end(), mid.begin(), mid.end());
    lag.insert(lag.end(), c.lag_ns.begin(), c.lag_ns.end());
    busy_ns += c.cpu_ns[idx(Phase::kLow)] + c.cpu_ns[idx(Phase::kMid)] +
               c.cpu_ns[idx(Phase::kSat)];
    sat_cpu_ns += c.cpu_ns[idx(Phase::kSat)];
  }
  r.failed += wrong_reps;
  r.attempted = ops[idx(Phase::kLow)] + ops[idx(Phase::kMid)] +
                ops[idx(Phase::kSat)] + ops[idx(Phase::kSatUntraced)];
  const double throughput = static_cast<double>(ops[idx(Phase::kSat)]) * 1e9 /
                            static_cast<double>(sat_ns);
  const Summary lag_summary = summarize(lag);
  if (!o.trace) {
    r.metrics["setup_s"] = median(setups);
    add_latency_metrics(r, "low", low_lat);
    add_latency_metrics(r, "mid", mid_lat);
    r.metrics["throughput_ops_s"] = throughput;
    r.metrics["idle_cpu_pct"] = idle;
    // From the closed loop: paced calls would add the callers' own wake-ups.
    r.metrics["cpu_us_per_op"] =
        static_cast<double>(sat_cpu_ns) / 1e3 /
        static_cast<double>(std::max<uint64_t>(1, ops[idx(Phase::kSat)]));
    r.metrics["rss_mib"] = proc_peak_rss_mib(self);
    for (std::size_t i = 0; i < setups.size(); ++i) {
      r.extras.push_back({"setup_s_rep" + std::to_string(i), setups[i]});
    }
    r.extras.push_back({"achieved_ops_s_low",
                        static_cast<double>(ops[idx(Phase::kLow)]) * 1e9 /
                            static_cast<double>(low_ns)});
    r.extras.push_back({"achieved_ops_s_mid",
                        static_cast<double>(ops[idx(Phase::kMid)]) * 1e9 /
                            static_cast<double>(mid_ns)});
    r.extras.push_back({"client_send_lag_us_p99", lag_summary.p99 / 1e3});
  } else {
    add_core_metrics(r, tracer);
    r.metrics["client.send_lag_us_p99"] = lag_summary.p99 / 1e3;
    r.metrics["client.busy_pct"] =
        100.0 * static_cast<double>(busy_ns) /
        (kThreads * static_cast<double>(low_ns + mid_ns + sat_ns));
    const double untraced = static_cast<double>(ops[idx(Phase::kSatUntraced)]) *
                            1e9 / static_cast<double>(untraced_ns);
    r.metrics["trace.overhead_pct"] =
        untraced > 0 ? 100.0 * (untraced - throughput) / untraced : 0;
    r.extras.push_back({"throughput_ops_s_traced", throughput});
    r.extras.push_back({"throughput_ops_s_untraced", untraced});
    const std::string spans = o.workdir + "/spans-library-contended.csv";
    if (!tracer.write_spans(spans)) r.errors.push_back("cannot write " + spans);
  }
  return r;
}

}  // namespace perfbench
