// perfbench: one run of the repository benchmark — one workload at one
// seed, measured for --seconds (README.md beside this directory defines
// every metric). The full record (host, build, every metric and the
// unnamed extras) is printed and saved under --workdir; the last line of
// stdout is the result object {"correct", "attempted", "failed", "metrics"}.

#include <sys/utsname.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>
#include <vector>

#include "harness/report.hpp"
#include "workloads.hpp"

extern char** environ;

namespace {

using namespace perfbench;

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --workdir DIR\n",
               why.c_str());
  std::exit(2);
}

RunOptions parse_args(int argc, char** argv) {
  RunOptions o;
  o.server_binary = PERFBENCH_SERVER_BINARY;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = static_cast<uint64_t>(std::strtoll(value.c_str(), nullptr, 10));
      have_seed = true;
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value.c_str(), nullptr);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      o.trace = value == "1";
      have_trace = true;
    } else if (flag == "--workdir") {
      o.workdir = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!is_serve_workload(o.workload) && o.workload != "library-contended") {
    usage("unknown workload '" + o.workload + "'");
  }
  if (!have_seed || !have_seconds || !have_trace || o.workdir.empty()) {
    usage("--seed, --seconds, --trace and --workdir are required");
  }
  if (!(o.seconds > 0 && o.seconds <= 600)) usage("--seconds out of range");
  return o;
}

/// Timings of unoptimized or instrumented code say nothing about the
/// program: name such a build, or return nullptr.
const char* unmeasurable_build() {
#if !defined(__OPTIMIZE__)
  return "an unoptimized build";
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "a sanitizer build";
#else
  return std::strcmp(PERFBENCH_BUILD_TYPE, "Debug") == 0 ? "a Debug build"
                                                         : nullptr;
#endif
}

/// The value after the colon on the first line of `path` that starts with
/// `key`; the whole first line when `key` is empty.
std::string read_field(const char* path, const std::string& key) {
  std::ifstream f(path);
  std::string line;
  while (std::getline(f, line)) {
    if (key.empty()) return line;
    if (line.rfind(key, 0) != 0) continue;
    const std::size_t colon = line.find(':');
    const std::size_t start = colon == std::string::npos
                                  ? std::string::npos
                                  : line.find_first_not_of(" \t", colon + 1);
    return start == std::string::npos ? "" : line.substr(start);
  }
  return "unknown";
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const RunOptions o = parse_args(argc, argv);
  if (const char* why = unmeasurable_build()) {
    std::fprintf(stderr, "perfbench: refusing to measure %s\n", why);
    return 2;
  }
  // DC_* variables configure the program. The serving workloads drop every
  // inherited one (the server child gets a scrubbed environment as well);
  // the library workload refuses instead, because DC_POOL and DC_LABEL_CACHE
  // are read once per process.
  std::vector<std::string> inherited;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "DC_", 3) == 0) {
      inherited.emplace_back(*e, std::strcspn(*e, "="));
    }
  }
  if (!inherited.empty() && !is_serve_workload(o.workload)) {
    std::fprintf(stderr, "perfbench: %s refuses to run with %s set\n",
                 o.workload.c_str(), inherited.front().c_str());
    return 2;
  }
  for (const std::string& name : inherited) ::unsetenv(name.c_str());

  Result r;
  try {
    r = is_serve_workload(o.workload) ? run_serve(o) : run_library(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", o.workload.c_str(), e.what());
    return 1;
  }
  const std::vector<MetricDef>& defs =
      o.trace ? kPerLayerMetrics : kEndToEndMetrics;
  // Every end-to-end metric must be measured; a per-layer metric that does
  // not apply to the workload reads 0.
  for (const MetricDef& d : defs) {
    if (!o.trace && r.metrics.count(d.name) == 0) {
      r.errors.push_back(std::string("metric ") + d.name + " was not measured");
    }
  }
  const auto value = [&](const MetricDef& d) {
    const auto it = r.metrics.find(d.name);
    return it == r.metrics.end() ? 0.0 : it->second;
  };

  utsname host{};
  ::uname(&host);
  condyn::harness::JsonReport report("perfbench");
  report.meta("workload", o.workload);
  report.meta("seed", o.seed);
  report.meta("seconds", o.seconds);
  report.meta("trace", uint64_t{o.trace ? 1u : 0u});
  report.meta("nproc", static_cast<uint64_t>(::sysconf(_SC_NPROCESSORS_ONLN)));
  report.meta("cpu_model", read_field("/proc/cpuinfo", "model name"));
  report.meta("l3", read_field("/sys/devices/system/cpu/cpu0/cache/index3/size", ""));
  report.meta("kernel", std::string(host.release));
  report.meta("build_type", std::string(PERFBENCH_BUILD_TYPE));
  report.meta("compiler", std::string(PERFBENCH_COMPILER));
  auto& rec = report.add_record();
  rec.field("attempted", r.attempted).field("failed", r.failed);
  for (const MetricDef& d : defs) rec.field(d.name, value(d));
  for (const Extra& x : r.extras) rec.field(x.name, x.value);
  const std::string record = o.workdir + "/" + o.workload + "-seed" +
                             std::to_string(o.seed) + "-trace" +
                             (o.trace ? "1" : "0") + ".json";
  try {
    report.save_file(record);
  } catch (const std::exception& e) {
    r.errors.push_back(e.what());
  }
  for (const std::string& err : r.errors) {
    std::fprintf(stderr, "perfbench: %s\n", err.c_str());
  }
  const bool correct = r.failed == 0 && r.errors.empty();
  std::fputs(condyn::harness::json_report(report).c_str(), stdout);

  std::string line = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(r.attempted) +
                     ", \"failed\": " + std::to_string(r.failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < defs.size(); ++i) {
    line += std::string(i == 0 ? "" : ", ") + "\"" + defs[i].name +
            "\": {\"value\": " + json_number(value(defs[i])) +
            ", \"unit\": \"" + defs[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
