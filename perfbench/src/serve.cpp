// The two serving workloads: the shipped condyn_server driven over loopback
// by one load-generator thread on four connections, every answer checked
// afterwards against a sequential reference. The traced run makes the three
// calls server_main makes, in process, with the timing decorator between
// the variant and both of its callers.

#include <cmath>
#include <cstdlib>
#include <initializer_list>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/factory.hpp"
#include "bench_util.hpp"
#include "checker.hpp"
#include "graph/generators.hpp"
#include "graph/wire.hpp"
#include "harness/workload.hpp"
#include "ingest/ingest.hpp"
#include "loadgen.hpp"
#include "server/server.hpp"
#include "server_proc.hpp"
#include "tracer.hpp"
#include "util/random.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using condyn::Edge;
using condyn::Op;
using condyn::Vertex;

struct ServeSpec {
  const char* name;
  Vertex n;
  std::size_t m;
  unsigned conns;    ///< one connection per graph block
  int read_percent;
  bool journal;      ///< DC_JOURNAL with the default fsync per group commit
  double mid_rate;   ///< ops/s offered in `mid` (README.md: how it was set)
};

constexpr ServeSpec kSpecs[] = {
    {"serve-read-mostly", 1u << 18, 1u << 19, 4, 99, false, 50000},
    {"serve-durable-writes", 1u << 16, 1u << 17, 4, 50, true, 40000},
};

constexpr int kSetupReps = 5;
constexpr int64_t kReadyTimeoutNs = 60'000'000'000;
constexpr int64_t kStopTimeoutNs = 30'000'000'000;
constexpr int64_t kDepthSampleNs = 100'000;

const ServeSpec& find_spec(const std::string& name) {
  for (const ServeSpec& s : kSpecs) {
    if (name == s.name) return s;
  }
  throw std::invalid_argument("unknown serving workload " + name);
}

/// The generated inputs of a serving run; the seed fixes every one of them.
struct ServeInputs {
  Vertex block = 0;
  std::vector<condyn::Graph> blocks;     ///< connection c's edges
  std::vector<std::vector<Op>> prefill;  ///< adds of a random half of each
  std::vector<uint64_t> stream_seeds;
  std::vector<double> offsets;  ///< schedule offsets, shares of an interval
};

ServeInputs make_inputs(const ServeSpec& s, uint64_t seed) {
  const condyn::Graph g =
      condyn::gen::random_components(s.n, s.m, s.conns, seed);
  ServeInputs in;
  in.block = s.n / s.conns;
  std::vector<std::vector<Edge>> edges(s.conns);
  for (const Edge& e : g.edges()) edges[e.u / in.block].push_back(e);
  condyn::SplitMix64 seeds(condyn::mix64(seed ^ 0x5e7e5eedULL));
  // The seed places connection 0's schedule; the others follow at even
  // steps of a frame interval, so no seed makes two connections send at
  // the same instant for a whole phase.
  const double first = static_cast<double>(seeds.next() >> 11) * 0x1.0p-53;
  in.blocks.reserve(s.conns);
  for (unsigned c = 0; c < s.conns; ++c) {
    in.blocks.emplace_back(s.n, std::move(edges[c]));
    std::vector<Op> adds;
    for (const Edge& e :
         condyn::harness::random_half(in.blocks.back(), seeds.next())) {
      adds.push_back(Op::add(e.u, e.v));
    }
    in.prefill.push_back(std::move(adds));
    in.stream_seeds.push_back(seeds.next());
    in.offsets.push_back(std::fmod(first + static_cast<double>(c) / s.conns, 1.0));
  }
  return in;
}

/// Connection c draws frames like the harness size-query scenario over its
/// own block only, so its answers depend on nothing another connection does.
std::vector<FrameSource> make_sources(const ServeSpec& s,
                                      const ServeInputs& in) {
  std::vector<FrameSource> out;
  for (unsigned c = 0; c < s.conns; ++c) {
    auto stream = std::make_shared<condyn::harness::SizeQueryStream>(
        in.blocks[c], s.read_percent, in.stream_seeds[c]);
    out.push_back([stream](std::vector<Op>& frame) {
      frame.resize(kFrameOps);
      for (Op& op : frame) stream->next(op);
    });
  }
  return out;
}

std::vector<std::string> server_settings(const ServeSpec& s,
                                         const ScratchDir& dir) {
  std::vector<std::string> env = {
      "DC_SERVER_VARIANT=full", "DC_SERVER_VERTICES=" + std::to_string(s.n),
      "DC_SERVER_PORT=0", "DC_SERVER_BIND=127.0.0.1"};
  if (s.journal) env.push_back("DC_JOURNAL=" + dir.path() + "/journal.dcjl");
  return env;
}

/// The frames one phase sent, over every connection.
struct PhaseView {
  std::vector<TimedSample> latency_ns;  ///< kOk frames: due time -> response
  uint64_t ops = 0, acked_ops = 0, failed_ops = 0, shed_frames = 0;
};

PhaseView view(const LoadGen& lg, Phase p) {
  PhaseView v;
  for (std::size_t c = 0; c < lg.connections(); ++c) {
    for (const FrameRecord& f : lg.log(c).frames) {
      if (f.phase != p) continue;
      v.ops += f.num_ops;
      if (f.status == kStatusOk) {
        v.acked_ops += f.num_ops;
        v.latency_ns.push_back({f.scheduled_ns, f.done_ns - f.scheduled_ns});
      } else {
        v.failed_ops += f.num_ops;
        v.shed_frames += f.status == kStatusOverloaded ? 1 : 0;
      }
    }
  }
  return v;
}

/// Send lag (due time -> handed to the socket) of the paced frames.
std::vector<int64_t> send_lag(const LoadGen& lg) {
  std::vector<int64_t> lag;
  for (std::size_t c = 0; c < lg.connections(); ++c) {
    for (const FrameRecord& f : lg.log(c).frames) {
      if (f.phase == Phase::kLow || f.phase == Phase::kMid) {
        lag.push_back(f.sent_ns - f.scheduled_ns);
      }
    }
  }
  return lag;
}

/// Ops attempted and failed in the measured phases, plus every wrong answer
/// the reference replay finds (prefill frames included).
void count_and_check(const ServeSpec& s, const ServeInputs& in,
                     const LoadGen& lg, std::initializer_list<Phase> measured,
                     Result& r) {
  for (const Phase p : measured) {
    const PhaseView v = view(lg, p);
    r.attempted += v.ops;
    r.failed += v.failed_ops;
    r.extras.push_back({std::string("shed_frames_") + phase_name(p),
                        static_cast<double>(v.shed_frames)});
  }
  std::vector<const ConnLog*> logs;
  for (std::size_t c = 0; c < lg.connections(); ++c) logs.push_back(&lg.log(c));
  for (const CheckResult& cr : check_all(logs, in.block)) {
    r.failed += cr.wrong_ops;
    if (!cr.error.empty()) r.errors.push_back(cr.error);
    for (const Mismatch& m : cr.mismatches) {
      r.errors.push_back(std::string("wrong answer: workload=") + s.name +
                         " conn=" + std::to_string(m.conn) +
                         " frame=" + std::to_string(m.frame) +
                         " op=" + std::to_string(m.op) +
                         " expected=" + std::to_string(m.expected) +
                         " got=" + std::to_string(m.got));
    }
  }
}

void stop_server(ServerProcess& srv, Result& r) {
  const ServerProcess::Exit ex = srv.stop(kStopTimeoutNs);
  if (!ex.clean) {
    r.errors.push_back("condyn_server did not exit cleanly: " + ex.detail);
  }
}

Result run_untraced(const ServeSpec& s, const ServeInputs& in,
                    const RunOptions& o) {
  Result r;
  const Durations d = split_seconds(o.seconds);
  // Set up kSetupReps times (server launch through acknowledged prefill)
  // and measure on the last; setup_s is their median.
  std::vector<double> setups;
  std::unique_ptr<ScratchDir> dir;
  std::unique_ptr<ServerProcess> srv;
  std::unique_ptr<LoadGen> lg;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (srv) {
      lg.reset();
      stop_server(*srv, r);
      srv.reset();
    }
    dir = std::make_unique<ScratchDir>(o.workdir);
    const int64_t t0 = now_ns();
    srv = std::make_unique<ServerProcess>(o.server_binary,
                                          server_settings(s, *dir));
    lg = std::make_unique<LoadGen>(srv->wait_ready(kReadyTimeoutNs),
                                   make_sources(s, in));
    if (!lg->prefill(in.prefill, kPrefillFrameOps, kPrefillWindow)) {
      throw std::runtime_error("prefill was not acknowledged in full");
    }
    setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  // Timer slack is inherited across fork and exec: tighten it only once the
  // measured server runs, so the server keeps the slack it ships with.
  tighten_timer_slack();

  const pid_t pid = srv->pid();
  const double idle = idle_cpu_pct(pid, d.idle);
  const int64_t w0 = now_ns();
  const uint64_t client0 = thread_cpu_ns();
  lg->run_paced(Phase::kLow, kLowRate, d.low, in.offsets);
  const uint64_t mid0 = proc_cpu_ns(pid);
  lg->run_paced(Phase::kMid, s.mid_rate, d.mid, in.offsets);
  const uint64_t mid_cpu = proc_cpu_ns(pid) - mid0;
  const double throughput = lg->run_closed(Phase::kSat, kSatWindow, d.sat);
  const double client_busy = 100.0 *
                             static_cast<double>(thread_cpu_ns() - client0) /
                             static_cast<double>(now_ns() - w0);
  const double rss = proc_peak_rss_mib(pid);
  lg->close();
  stop_server(*srv, r);

  count_and_check(s, in, *lg, {Phase::kLow, Phase::kMid, Phase::kSat}, r);
  PhaseView low = view(*lg, Phase::kLow);
  PhaseView mid = view(*lg, Phase::kMid);
  r.metrics["setup_s"] = median(setups);
  add_latency_metrics(r, "low", low.latency_ns);
  add_latency_metrics(r, "mid", mid.latency_ns);
  r.metrics["throughput_ops_s"] = throughput;
  r.metrics["idle_cpu_pct"] = idle;
  r.metrics["cpu_us_per_op"] =
      mid.acked_ops > 0 ? static_cast<double>(mid_cpu) / 1e3 /
                              static_cast<double>(mid.acked_ops)
                        : 0;
  r.metrics["rss_mib"] = rss;
  for (std::size_t i = 0; i < setups.size(); ++i) {
    r.extras.push_back({"setup_s_rep" + std::to_string(i), setups[i]});
  }
  r.extras.push_back({"achieved_ops_s_low", static_cast<double>(low.acked_ops) *
                                                1e9 / static_cast<double>(d.low)});
  r.extras.push_back({"achieved_ops_s_mid", static_cast<double>(mid.acked_ops) *
                                                1e9 / static_cast<double>(d.mid)});
  std::vector<int64_t> lag = send_lag(*lg);
  r.extras.push_back({"client_send_lag_us_p99", summarize(lag).p99 / 1e3});
  r.extras.push_back({"client_busy_pct", client_busy});
  return r;
}

/// Encode and decode every measured frame again, each pass timed whole,
/// and count request and response bytes per op.
void add_wire_metrics(Result& r, const LoadGen& lg, Vertex n, Tracer& tracer,
                      std::initializer_list<Phase> measured) {
  uint64_t ops = 0, bytes_out = 0, bytes_in = 0, encode_ns = 0, decode_ns = 0;
  std::vector<uint8_t> buf;
  std::vector<std::size_t> ends;
  for (std::size_t c = 0; c < lg.connections(); ++c) {
    const ConnLog& log = lg.log(c);
    std::vector<const FrameRecord*> frames;
    for (const FrameRecord& f : log.frames) {
      for (const Phase p : measured) {
        if (f.phase == p) frames.push_back(&f);
      }
    }
    for (const Phase p : measured) {
      bytes_out += log.bytes_out[idx(p)];
      bytes_in += log.bytes_in[idx(p)];
    }
    uint64_t conn_ops = 0;
    buf.clear();
    ends.clear();
    const int64_t t0 = now_ns();
    for (const FrameRecord* f : frames) {
      condyn::wire::encode_ops_frame(
          std::span<const Op>(log.ops).subspan(f->first_op, f->num_ops), buf);
      ends.push_back(buf.size());
      conn_ops += f->num_ops;
    }
    const int64_t t1 = now_ns();
    std::size_t decoded = 0;
    std::size_t at = 0;
    for (const std::size_t end : ends) {
      const std::size_t body = at + condyn::wire::kHeaderBytes;
      decoded += condyn::wire::decode_ops(
                     std::span<const uint8_t>(buf).subspan(body, end - body), n)
                     .size();
      at = end;
    }
    const int64_t t2 = now_ns();
    if (decoded != conn_ops) {
      r.errors.push_back("wire round trip lost ops on conn " + std::to_string(c));
    }
    tracer.record(Layer::kWire, Call::kEncode, t0, t1,
                  static_cast<uint32_t>(conn_ops));
    tracer.record(Layer::kWire, Call::kDecode, t1, t2,
                  static_cast<uint32_t>(conn_ops));
    ops += conn_ops;
    encode_ns += static_cast<uint64_t>(t1 - t0);
    decode_ns += static_cast<uint64_t>(t2 - t1);
  }
  const double per = ops > 0 ? 1.0 / static_cast<double>(ops) : 0;
  r.metrics["wire.encode_ns_per_op"] = static_cast<double>(encode_ns) * per;
  r.metrics["wire.decode_ns_per_op"] = static_cast<double>(decode_ns) * per;
  r.metrics["wire.request_bytes_per_op"] = static_cast<double>(bytes_out) * per;
  r.metrics["wire.response_bytes_per_op"] = static_cast<double>(bytes_in) * per;
}

Result run_traced(const ServeSpec& s, const ServeInputs& in,
                  const RunOptions& o) {
  Result r;
  const Durations d = split_seconds(o.seconds);
  ScratchDir dir(o.workdir);
  for (const std::string& kv : server_settings(s, dir)) {
    const std::size_t eq = kv.find('=');
    ::setenv(kv.substr(0, eq).c_str(), kv.c_str() + eq + 1, 1);
  }
  Tracer tracer;
  std::unique_ptr<LoadGen> lg;
  auto& m = r.metrics;
  {
    // server_main's three calls, with the decorator between the variant and
    // both of its callers: the ingest applier and the server workers.
    const auto variant = condyn::make_variant("full", s.n);
    TracedDc dc(*variant, tracer);
    condyn::ingest::IngestOptions iopts = condyn::ingest::env_options();
    iopts.record_sojourn = true;
    condyn::ingest::IngestService svc(dc, iopts);
    condyn::server::Server srv(dc, svc, condyn::server::env_server_options());
    srv.start();
    // After the server's and the applier's threads exist: they inherit the
    // creating thread's timer slack and must keep the default.
    tighten_timer_slack();
    lg = std::make_unique<LoadGen>(srv.port(), make_sources(s, in), &tracer);
    if (!lg->prefill(in.prefill, kPrefillFrameOps, kPrefillWindow)) {
      throw std::runtime_error("prefill was not acknowledged in full");
    }
    (void)svc.take_sojourn_ns();

    const condyn::server::ServerStats srv0 = srv.stats();
    const condyn::ingest::IngestStats ing0 = svc.stats();
    tracer.set_enabled(true);
    const int64_t w0 = now_ns();
    const uint64_t client0 = thread_cpu_ns();
    lg->run_paced(Phase::kLow, kLowRate, d.low, in.offsets);
    std::vector<uint64_t> depth;
    int64_t last_sample = 0;
    lg->run_paced(Phase::kMid, s.mid_rate, d.mid, in.offsets, [&] {
      const int64_t t = now_ns();
      if (t - last_sample < kDepthSampleNs) return;
      last_sample = t;
      depth.push_back(svc.stats().queue_depth);
    });
    std::vector<uint32_t> sojourn = svc.take_sojourn_ns();
    const double traced = lg->run_closed(Phase::kSat, kSatWindow, d.sat);
    tracer.set_enabled(false);
    const int64_t w1 = now_ns();
    const uint64_t client1 = thread_cpu_ns();
    const condyn::server::ServerStats srv1 = srv.stats();
    const condyn::ingest::IngestStats ing1 = svc.stats();
    const double untraced =
        lg->run_closed(Phase::kSatUntraced, kSatWindow, d.sat);
    lg->close();
    srv.stop();  // before svc.stop(): the drain waits on applier tickets
    svc.stop();

    // Server layer: client-side round trips (sent -> answered) of the paced
    // frames, pure-read frames apart from frames carrying an update.
    std::vector<int64_t> read_rt, update_rt;
    for (std::size_t c = 0; c < lg->connections(); ++c) {
      for (const FrameRecord& f : lg->log(c).frames) {
        if ((f.phase != Phase::kLow && f.phase != Phase::kMid) ||
            f.status != kStatusOk) {
          continue;
        }
        (f.has_update ? update_rt : read_rt).push_back(f.done_ns - f.sent_ns);
      }
    }
    const Summary rd = summarize(read_rt);
    const Summary up = summarize(update_rt);
    const Summary so = summarize(sojourn);
    m["server.read_frame_us_p50"] = rd.p50 / 1e3;
    m["server.read_frame_us_p99"] = rd.p99 / 1e3;
    m["server.update_frame_us_p50"] = up.p50 / 1e3;
    m["server.update_frame_us_p99"] = up.p99 / 1e3;
    m["server.update_overhead_us_p50"] = (up.p50 - so.p50) / 1e3;
    const double frames = static_cast<double>(srv1.frames - srv0.frames);
    m["server.inline_share_pct"] =
        frames > 0 ? 100.0 * static_cast<double>(srv1.inline_reads -
                                                 srv0.inline_reads) / frames
                   : 0;
    m["server.shed_frames"] =
        static_cast<double>(srv1.shed_frames - srv0.shed_frames);
    m["ingest.sojourn_us_p50"] = so.p50 / 1e3;
    m["ingest.sojourn_us_p99"] = so.p99 / 1e3;
    const double acked = static_cast<double>(ing1.acked - ing0.acked);
    const double batches = static_cast<double>(ing1.batches - ing0.batches);
    m["ingest.batch_fill_avg"] = batches > 0 ? acked / batches : 0;
    m["ingest.fsyncs_per_kop"] =
        acked > 0 ? 1000.0 * static_cast<double>(ing1.fsyncs - ing0.fsyncs) / acked
                  : 0;
    m["ingest.queue_depth_p99"] = summarize(depth).p99;
    uint64_t applier_ns = 0;
    if (const ThreadTrace* a = find_applier(tracer)) {
      applier_ns = a->calls[idx(Call::kReadBatch)].total_ns +
                   a->calls[idx(Call::kUpdateBatch)].total_ns;
    }
    m["ingest.applier_engine_pct"] =
        100.0 * static_cast<double>(applier_ns) / static_cast<double>(w1 - w0);
    add_core_metrics(r, tracer);
    std::vector<int64_t> lag = send_lag(*lg);
    m["client.send_lag_us_p99"] = summarize(lag).p99 / 1e3;
    m["client.busy_pct"] = 100.0 * static_cast<double>(client1 - client0) /
                           static_cast<double>(w1 - w0);
    m["trace.overhead_pct"] =
        untraced > 0 ? 100.0 * (untraced - traced) / untraced : 0;
    r.extras.push_back({"throughput_ops_s_traced", traced});
    r.extras.push_back({"throughput_ops_s_untraced", untraced});
  }
  add_wire_metrics(r, *lg, s.n, tracer, {Phase::kLow, Phase::kMid, Phase::kSat});
  count_and_check(s, in, *lg,
                  {Phase::kLow, Phase::kMid, Phase::kSat, Phase::kSatUntraced}, r);
  const std::string spans = o.workdir + "/spans-" + s.name + ".csv";
  if (!tracer.write_spans(spans)) r.errors.push_back("cannot write " + spans);
  return r;
}

}  // namespace

Result run_serve(const RunOptions& o) {
  const ServeSpec& s = find_spec(o.workload);
  const ServeInputs in = make_inputs(s, o.seed);
  return o.trace ? run_traced(s, in, o) : run_untraced(s, in, o);
}

}  // namespace perfbench
