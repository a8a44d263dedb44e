#pragma once

// The repository benchmark's three workloads and what one run reports.
// README.md in this directory defines every metric, gives each workload's
// reason and maps the per-layer metrics onto the end-to-end ones.

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench_util.hpp"

namespace perfbench {

/// Phases of a run, in order. Frames and calls count toward the phase
/// they were issued in.
enum class Phase : uint8_t { kPrefill, kLow, kMid, kSat, kSatUntraced };
inline constexpr std::size_t kNumPhases = 5;
constexpr std::size_t idx(Phase p) noexcept { return static_cast<std::size_t>(p); }
const char* phase_name(Phase p) noexcept;

inline constexpr std::size_t kFrameOps = 8;  ///< ops per frame, measured phases
inline constexpr double kLowRate = 2000;     ///< ops/s offered in `low`
/// Unanswered frames a connection may hold. A paced frame that falls due
/// while kPacedWindow are unanswered waits for a response (its latency
/// still counts from its due time); saturation keeps kSatWindow in flight.
/// Both stay below the server's default DC_SERVER_INFLIGHT, so admission
/// never sheds, and a shed frame is a server fault.
inline constexpr unsigned kPacedWindow = 7;
inline constexpr unsigned kSatWindow = 6;
/// Prefill frames: every connection's full window fits in half the default
/// ingest ring, so the ring-headroom gate never sheds them either. Half,
/// because the applier counts a group commit as acknowledged only after its
/// responses may already have gone out and been answered with new frames.
inline constexpr std::size_t kPrefillFrameOps = 256;
inline constexpr unsigned kPrefillWindow = 2;
/// Wrong answers printed per connection or thread (all of them count).
inline constexpr std::size_t kMaxReported = 20;

struct RunOptions {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string workdir;        ///< scratch space inside the checkout
  std::string server_binary;  ///< condyn_server built from this checkout
};

/// A recorded number that is not one of the named metrics.
struct Extra {
  std::string name;
  double value = 0;
};

struct Result {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> metrics;  ///< named metrics by name
  std::vector<Extra> extras;
  std::vector<std::string> errors;  ///< each one makes the run incorrect
};

struct MetricDef {
  const char* name;
  const char* unit;
};
/// The named metrics in BENCHMARK.json order: --trace 0 reports the first
/// list, --trace 1 the second.
extern const std::vector<MetricDef> kEndToEndMetrics;
extern const std::vector<MetricDef> kPerLayerMetrics;

/// How --seconds is spent: idle 10%, low 30%, mid 40%, saturation 20%.
struct Durations {
  int64_t idle, low, mid, sat;
};
Durations split_seconds(double seconds);

bool is_serve_workload(const std::string& name);
Result run_serve(const RunOptions& o);
Result run_library(const RunOptions& o);

/// Time slices a phase's latencies are cut into: the named p50 and p99 are
/// medians of the per-slice percentiles (README.md: why).
inline constexpr int kLatencyWindows = 16;

/// p50_us_<phase> and p99_us_<phase> from nanosecond samples stamped with
/// their due time, as named metrics; the pooled p50/p99/p999, the sample
/// count and the deepest percentile with ten samples beyond it as extras.
void add_latency_metrics(Result& r, const std::string& phase,
                         const std::vector<TimedSample>& samples);

class Tracer;
/// The core.* and util.* metrics of a traced run, from the decorator's
/// per-thread records.
void add_core_metrics(Result& r, const Tracer& tracer);

}  // namespace perfbench
