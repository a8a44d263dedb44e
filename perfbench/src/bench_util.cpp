#include "bench_util.hpp"

#include <dirent.h>
#include <sys/prctl.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>

namespace perfbench {

namespace {

uint64_t stat_cpu_ns(pid_t pid) {
  std::ifstream f("/proc/" + std::to_string(pid) + "/stat");
  const std::string text((std::istreambuf_iterator<char>(f)),
                         std::istreambuf_iterator<char>());
  // The command name (field 2) may hold spaces: count fields after its ')'.
  const std::size_t close = text.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream rest(text.substr(close + 1));
  std::string field;
  uint64_t ticks = 0;
  for (int i = 3; i <= 15 && (rest >> field); ++i) {
    if (i >= 14) ticks += std::strtoull(field.c_str(), nullptr, 10);  // utime, stime
  }
  return ticks * (1'000'000'000ull / static_cast<uint64_t>(sysconf(_SC_CLK_TCK)));
}

}  // namespace

uint64_t proc_cpu_ns(pid_t pid) {
  const std::string tasks = "/proc/" + std::to_string(pid) + "/task";
  DIR* dir = opendir(tasks.c_str());
  if (dir == nullptr) return 0;
  uint64_t total = 0;
  bool any = false;
  while (const dirent* e = readdir(dir)) {
    if (e->d_name[0] == '.') continue;
    std::ifstream f(tasks + "/" + e->d_name + "/schedstat");
    uint64_t ns = 0;
    if (f >> ns) {
      total += ns;
      any = true;
    }
  }
  closedir(dir);
  return any ? total : stat_cpu_ns(pid);
}

double idle_cpu_pct(pid_t pid, int64_t duration_ns) {
  constexpr int kWindows = 10;
  std::vector<double> shares;
  const int64_t start = now_ns();
  int64_t t0 = start;
  uint64_t c0 = proc_cpu_ns(pid);
  for (int i = 1; i <= kWindows; ++i) {
    sleep_until_ns(start + duration_ns * i / kWindows);
    const int64_t t1 = now_ns();
    const uint64_t c1 = proc_cpu_ns(pid);
    if (t1 > t0) {
      shares.push_back(100.0 * static_cast<double>(c1 >= c0 ? c1 - c0 : 0) /
                       static_cast<double>(t1 - t0));
    }
    t0 = t1;
    c0 = c1;
  }
  return median(shares);
}

double proc_peak_rss_mib(pid_t pid) {
  std::ifstream f("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

uint64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

void tighten_timer_slack() { prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL); }

void sleep_until_ns(int64_t deadline) {
  // steady_clock is CLOCK_MONOTONIC on Linux: an absolute-deadline sleep on
  // that clock wakes at the schedule instead of drifting with overruns.
  if (deadline <= now_ns()) return;
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(deadline / 1'000'000'000);
  ts.tv_nsec = static_cast<long>(deadline % 1'000'000'000);
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) == EINTR) {
  }
}

}  // namespace perfbench
