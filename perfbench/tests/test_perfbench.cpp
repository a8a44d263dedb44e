// The benchmark's own tests: the percentile helpers, the answer checker,
// the saturation window against the server's admission bound, the timing
// decorator, and the metric names against BENCHMARK.json. Build and run
// from the repository root:
//   cmake --build .bench_build --target perfbench_tests
//   .bench_build/perfbench_tests

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "api/factory.hpp"
#include "bench_util.hpp"
#include "checker.hpp"
#include "graph/generators.hpp"
#include "harness/workload.hpp"
#include "ingest/ingest.hpp"
#include "loadgen.hpp"
#include "server/server.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using condyn::Op;
using condyn::Vertex;
using condyn::wire::Status;

std::vector<int> one_to(int n) {
  std::vector<int> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 1);
  return v;
}

TEST(Percentiles, NearestRankOnKnownInputs) {
  const std::vector<int> hundred = one_to(100);
  EXPECT_EQ(percentile_sorted(hundred, 0.50), 50);
  EXPECT_EQ(percentile_sorted(hundred, 0.99), 99);
  EXPECT_EQ(percentile_sorted(hundred, 1.00), 100);
  const std::vector<int> thousand = one_to(1000);
  EXPECT_EQ(percentile_sorted(thousand, 0.50), 500);
  EXPECT_EQ(percentile_sorted(thousand, 0.99), 990);
  EXPECT_EQ(percentile_sorted(thousand, 0.999), 999);
  EXPECT_EQ(percentile_sorted(std::vector<int>{7}, 0.99), 7);
  EXPECT_EQ(percentile_sorted(std::vector<int>{}, 0.5), 0);
}

TEST(Percentiles, SummarizeSortsAndFindsTheSupportedTail) {
  std::vector<int> samples = one_to(1000);
  std::shuffle(samples.begin(), samples.end(), std::mt19937(3));
  const Summary s = summarize(samples);
  EXPECT_EQ(s.count, 1000u);
  EXPECT_EQ(s.p50, 500);
  EXPECT_EQ(s.p99, 990);
  EXPECT_EQ(s.p999, 999);
  // p99 of 1000 samples leaves exactly ten beyond it: the deepest tail.
  EXPECT_DOUBLE_EQ(s.tail.q, 0.99);
  EXPECT_EQ(s.tail.value, 990);
}

TEST(Percentiles, TailLeavesTenSamplesBeyond) {
  const TailPoint t200 = tail_percentile(one_to(200));
  EXPECT_DOUBLE_EQ(t200.q, 0.95);
  EXPECT_EQ(t200.value, 190);  // 191..200 lie beyond it
  const TailPoint t11 = tail_percentile(one_to(11));
  EXPECT_EQ(t11.value, 1);
  EXPECT_EQ(tail_percentile(one_to(10)).q, 0);  // too few for any tail
}

TEST(Percentiles, HistogramStaysWithinItsBucketError) {
  LogHistogram h;
  for (uint64_t v = 1; v <= 100000; ++v) h.add(v);
  EXPECT_EQ(h.count(), 100000u);
  EXPECT_NEAR(h.percentile(0.50), 50000, 50000 * 0.016);
  EXPECT_NEAR(h.percentile(0.99), 99000, 99000 * 0.016);
  LogHistogram small;
  for (int i = 0; i < 3; ++i) small.add(3);
  small.add(40);
  EXPECT_EQ(small.percentile(0.5), 3);
  EXPECT_EQ(small.percentile(1.0), 40);
}

void append_frame(ConnLog& log, const std::vector<Op>& ops, Status status,
                  const std::vector<uint64_t>& values) {
  FrameRecord f;
  f.first_op = static_cast<uint32_t>(log.ops.size());
  f.num_ops = static_cast<uint32_t>(ops.size());
  f.phase = Phase::kMid;
  f.status = static_cast<uint8_t>(status);
  f.has_update = !condyn::all_reads(ops);
  log.ops.insert(log.ops.end(), ops.begin(), ops.end());
  log.values.insert(log.values.end(), values.begin(), values.end());
  log.values.resize(log.ops.size(), 0);
  log.frames.push_back(f);
}

/// A log the way the load generator writes one: frames of a seeded
/// size-query stream over one vertex block, answered by the `full`
/// variant, independent of the checker's `coarse` reference.
ConnLog answered_log(Vertex base, Vertex block, std::size_t frames) {
  const condyn::Graph local = condyn::gen::erdos_renyi(block, 2 * block, 7);
  std::vector<condyn::Edge> edges;
  for (const condyn::Edge& e : local.edges()) {
    edges.emplace_back(e.u + base, e.v + base);
  }
  const condyn::Graph g(base + block, edges);
  condyn::harness::SizeQueryStream stream(g, 50, 11);
  const auto server = condyn::make_variant("full", base + block);
  ConnLog log;
  std::vector<Op> ops(kFrameOps);
  for (std::size_t f = 0; f < frames; ++f) {
    for (Op& op : ops) stream.next(op);
    append_frame(log, ops, Status::kOk, server->apply_batch(ops).values);
  }
  return log;
}

TEST(Checker, AcceptsCorrectAnswers) {
  const ConnLog log = answered_log(1024, 512, 200);
  const CheckResult r = check_connection(2, log, 1024, 512);
  EXPECT_TRUE(r.error.empty()) << r.error;
  EXPECT_EQ(r.checked_ops, 200 * kFrameOps);
  EXPECT_EQ(r.wrong_ops, 0u);
  EXPECT_FALSE(r.truncated);
}

TEST(Checker, FlagsAnInjectedWrongValue) {
  ConnLog log = answered_log(1024, 512, 200);
  log.values[log.frames[57].first_op + 3] += 1;
  const CheckResult r = check_connection(2, log, 1024, 512);
  EXPECT_EQ(r.wrong_ops, 1u);
  ASSERT_EQ(r.mismatches.size(), 1u);
  EXPECT_EQ(r.mismatches[0].conn, 2u);
  EXPECT_EQ(r.mismatches[0].frame, 57u);
  EXPECT_EQ(r.mismatches[0].op, 3u);
}

TEST(Checker, TreatsAShedFrameAsSkippedNotWrong) {
  ConnLog log;
  append_frame(log, {Op::add(65, 66)}, Status::kOverloaded, {});
  append_frame(log,
               {Op::connected(65, 66), Op::add(65, 66), Op::connected(65, 66),
                Op::component_size(66), Op::representative(66)},
               Status::kOk, {0, 1, 1, 2, 65});
  const CheckResult r = check_connection(1, log, 64, 16);
  EXPECT_EQ(r.skipped_frames, 1u);
  EXPECT_EQ(r.checked_ops, 5u);
  EXPECT_EQ(r.wrong_ops, 0u);
  // Had the shed add been applied, these answers would be wrong: the
  // checker must skip it, not replay it.
  log.frames[0].status = static_cast<uint8_t>(Status::kOk);
  log.values[0] = 1;
  EXPECT_GT(check_connection(1, log, 64, 16).wrong_ops, 0u);
}

TEST(Checker, StopsAtAFrameWithUnknownEffect) {
  ConnLog log;
  append_frame(log, {Op::add(65, 66)}, Status::kOk, {1});
  append_frame(log, {Op::remove(65, 66)}, Status::kOk, {1});
  log.frames.back().status = kNoResponse;  // lost with its connection
  append_frame(log, {Op::connected(65, 66)}, Status::kOk, {0});
  const CheckResult r = check_connection(0, log, 64, 16);
  EXPECT_TRUE(r.truncated);
  EXPECT_EQ(r.checked_ops, 1u);
  EXPECT_EQ(r.wrong_ops, 0u);
}

TEST(Saturation, WindowStaysBelowTheServerInflightBound) {
  const condyn::server::ServerOptions defaults;
  EXPECT_LT(kSatWindow, defaults.max_inflight_frames);
  EXPECT_LT(kPacedWindow, defaults.max_inflight_frames);
  EXPECT_LT(kPrefillWindow, defaults.max_inflight_frames);
  // Ring headroom: all four connections' prefill windows fit in half the
  // ring, leaving room for ops acknowledged late (see workloads.hpp).
  EXPECT_LE(2 * 4 * kPrefillWindow * kPrefillFrameOps,
            condyn::ingest::IngestOptions{}.ring_capacity);

  // And live: a closed loop against a default server never sheds and never
  // holds more than the window unanswered.
  constexpr Vertex kBlock = 1024;
  auto dc = condyn::make_variant("full", 4 * kBlock);
  condyn::ingest::IngestService svc(*dc);
  condyn::server::ServerOptions opts;
  opts.bind_address = "127.0.0.1";
  opts.port = 0;
  condyn::server::Server srv(*dc, svc, opts);
  srv.start();
  std::vector<condyn::Graph> graphs;
  for (unsigned c = 0; c < 4; ++c) {
    const condyn::Graph local = condyn::gen::erdos_renyi(kBlock, 2 * kBlock, c + 1);
    std::vector<condyn::Edge> edges;
    for (const condyn::Edge& e : local.edges()) {
      edges.emplace_back(e.u + c * kBlock, e.v + c * kBlock);
    }
    graphs.emplace_back(4 * kBlock, edges);
  }
  std::vector<FrameSource> sources;
  for (unsigned c = 0; c < 4; ++c) {
    auto s = std::make_shared<condyn::harness::SizeQueryStream>(graphs[c], 50, c);
    sources.push_back([s](std::vector<Op>& f) {
      f.resize(kFrameOps);
      for (Op& op : f) s->next(op);
    });
  }
  {
    LoadGen lg(srv.port(), std::move(sources));
    EXPECT_GT(lg.run_closed(Phase::kSat, kSatWindow, 300'000'000), 0);
    EXPECT_LE(lg.max_inflight(), kSatWindow);
    for (std::size_t c = 0; c < lg.connections(); ++c) {
      for (const FrameRecord& f : lg.log(c).frames) {
        EXPECT_EQ(f.status, kStatusOk);
      }
    }
  }
  srv.stop();
  svc.stop();
  EXPECT_EQ(srv.stats().shed_frames, 0u);
}

/// Counts every virtual it receives and forwards it to a real variant.
class ProbeDc final : public condyn::DynamicConnectivity {
 public:
  explicit ProbeDc(Vertex n) : inner_(condyn::make_variant("coarse", n)) {}

  bool add_edge(Vertex u, Vertex v) override {
    ++hits["add_edge"];
    return inner_->add_edge(u, v);
  }
  bool remove_edge(Vertex u, Vertex v) override {
    ++hits["remove_edge"];
    return inner_->remove_edge(u, v);
  }
  bool connected(Vertex u, Vertex v) override {
    ++hits["connected"];
    return inner_->connected(u, v);
  }
  uint64_t component_size(Vertex u) override {
    ++hits["component_size"];
    return inner_->component_size(u);
  }
  Vertex representative(Vertex u) override {
    ++hits["representative"];
    return inner_->representative(u);
  }
  condyn::ComponentsSnapshot components() override {
    ++hits["components"];
    return inner_->components();
  }
  condyn::BatchResult apply_batch(std::span<const Op> ops) override {
    ++hits["apply_batch"];
    return inner_->apply_batch(ops);
  }
  Vertex num_vertices() const override {
    ++hits["num_vertices"];
    return inner_->num_vertices();
  }
  void quiesce() override {
    ++hits["quiesce"];
    inner_->quiesce();
  }
  std::string name() const override {
    ++hits["name"];
    return inner_->name();
  }

  mutable std::map<std::string, int> hits;

 private:
  std::unique_ptr<condyn::DynamicConnectivity> inner_;
};

TEST(TracedDc, ForwardsEveryVirtual) {
  ProbeDc probe(16);
  Tracer tracer;
  TracedDc dc(probe, tracer);
  tracer.set_enabled(true);
  EXPECT_TRUE(dc.add_edge(1, 2));
  EXPECT_TRUE(dc.connected(1, 2));
  EXPECT_EQ(dc.component_size(2), 2u);
  EXPECT_EQ(dc.representative(2), 1u);
  EXPECT_EQ(dc.components().labels[2], 1u);
  const std::vector<Op> batch = {Op::add(3, 4), Op::connected(3, 4)};
  EXPECT_EQ(dc.apply_batch(batch).values, (std::vector<uint64_t>{1, 1}));
  EXPECT_TRUE(dc.remove_edge(1, 2));
  dc.quiesce();
  EXPECT_EQ(dc.num_vertices(), 16u);
  EXPECT_EQ(dc.name(), "coarse");
  for (const char* v :
       {"add_edge", "remove_edge", "connected", "component_size",
        "representative", "components", "apply_batch", "quiesce",
        "num_vertices", "name"}) {
    EXPECT_EQ(probe.hits[v], 1) << v;
  }
  EXPECT_EQ(tracer.merged(Call::kUpdateBatch).calls, 1u);
  EXPECT_EQ(tracer.merged(Call::kUpdateBatch).ops, 2u);
  EXPECT_EQ(tracer.merged(Call::kAdd).calls, 1u);
  EXPECT_EQ(tracer.merged(Call::kComponents).calls, 1u);
  EXPECT_EQ(tracer.merged(Call::kQuiesce).calls, 1u);
}

TEST(TracedDc, MatchesTheUndecoratedVariantOnASeededSequence) {
  constexpr Vertex kN = 512;
  const auto plain = condyn::make_variant("full", kN);
  const auto wrapped = condyn::make_variant("full", kN);
  Tracer tracer;
  TracedDc traced(*wrapped, tracer);
  tracer.set_enabled(true);
  std::mt19937_64 rng(42);
  uint64_t single_calls = 0;
  for (int round = 0; round < 400; ++round) {
    std::vector<Op> ops;
    const int len = 1 + static_cast<int>(rng() % 16);
    for (int i = 0; i < len; ++i) {
      const auto u = static_cast<Vertex>(rng() % kN);
      const auto v = static_cast<Vertex>(rng() % kN);
      switch (rng() % 5) {
        case 0: ops.push_back(Op::add(u, v)); break;
        case 1: ops.push_back(Op::remove(u, v)); break;
        case 2: ops.push_back(Op::connected(u, v)); break;
        case 3: ops.push_back(Op::component_size(u)); break;
        default: ops.push_back(Op::representative(u)); break;
      }
    }
    if (round % 2 == 0) {
      EXPECT_EQ(traced.apply_batch(ops).values, plain->apply_batch(ops).values)
          << "round " << round;
    } else {
      for (const Op& op : ops) {
        EXPECT_EQ(condyn::exec_single(traced, op),
                  condyn::exec_single(*plain, op))
            << "round " << round;
        ++single_calls;
      }
    }
  }
  EXPECT_EQ(traced.components().labels, plain->components().labels);
  uint64_t recorded = 0;
  for (const Call c : {Call::kAdd, Call::kRemove, Call::kConnected,
                       Call::kComponentSize, Call::kRepresentative}) {
    recorded += tracer.merged(c).calls;
  }
  EXPECT_EQ(recorded, single_calls);
}

TEST(Contract, BenchmarkJsonNamesEveryReportedMetric) {
  std::ifstream f(PERFBENCH_SOURCE_DIR "/../BENCHMARK.json");
  ASSERT_TRUE(f.good());
  std::stringstream text;
  text << f.rdbuf();
  const std::string json = text.str();
  for (const auto* defs : {&kEndToEndMetrics, &kPerLayerMetrics}) {
    for (const MetricDef& d : *defs) {
      const std::string entry = std::string("\"name\": \"") + d.name +
                                "\", \"unit\": \"" + d.unit + "\"";
      EXPECT_NE(json.find(entry), std::string::npos) << d.name;
    }
  }
}

}  // namespace
}  // namespace perfbench
