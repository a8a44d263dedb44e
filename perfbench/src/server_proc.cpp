#include "server_proc.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <stdexcept>

#include "bench_util.hpp"

extern char** environ;

namespace perfbench {

ServerProcess::ServerProcess(const std::string& binary,
                             const std::vector<std::string>& settings) {
  // Nothing in the caller's environment may change what is measured: every
  // inherited DC_* variable is dropped and only `settings` are added.
  std::vector<std::string> env;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "DC_", 3) != 0) env.emplace_back(*e);
  }
  env.insert(env.end(), settings.begin(), settings.end());
  std::vector<char*> envp;
  for (std::string& s : env) envp.push_back(s.data());
  envp.push_back(nullptr);
  std::string path = binary;
  char* argv[] = {path.data(), nullptr};

  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) {
    throw std::runtime_error(std::string("server: pipe2: ") + std::strerror(errno));
  }
  pid_ = ::fork();
  if (pid_ < 0) {
    const int saved = errno;
    ::close(fds[0]);
    ::close(fds[1]);
    throw std::runtime_error(std::string("server: fork: ") + std::strerror(saved));
  }
  if (pid_ == 0) {
    ::dup2(fds[1], STDOUT_FILENO);
    ::execve(path.c_str(), argv, envp.data());
    ::_exit(127);
  }
  ::close(fds[1]);
  out_fd_ = fds[0];
}

ServerProcess::~ServerProcess() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
  }
  if (out_fd_ >= 0) ::close(out_fd_);
}

bool ServerProcess::read_line(std::string& line, int64_t deadline) {
  for (;;) {
    const std::size_t nl = buf_.find('\n');
    if (nl != std::string::npos) {
      line = buf_.substr(0, nl);
      buf_.erase(0, nl + 1);
      return true;
    }
    if (out_fd_ < 0) {  // stdout closed: hand out an unterminated last line
      if (buf_.empty()) return false;
      line.swap(buf_);
      buf_.clear();
      return true;
    }
    const int64_t left = deadline - now_ns();
    if (left <= 0) return false;
    pollfd p{out_fd_, POLLIN, 0};
    const auto ms = static_cast<int>(std::min<int64_t>(left / 1'000'000 + 1, 1000));
    if (::poll(&p, 1, ms) <= 0) continue;
    char chunk[4096];
    const ssize_t got = ::read(out_fd_, chunk, sizeof chunk);
    if (got > 0) {
      buf_.append(chunk, static_cast<std::size_t>(got));
    } else if (got == 0 || errno != EINTR) {
      ::close(out_fd_);
      out_fd_ = -1;
    }
  }
}

uint16_t ServerProcess::wait_ready(int64_t timeout_ns) {
  const int64_t deadline = now_ns() + timeout_ns;
  std::string line;
  while (read_line(line, deadline)) {
    const std::size_t at = line.find("listening port=");
    if (at != std::string::npos) {
      return static_cast<uint16_t>(std::strtoul(line.c_str() + at + 15, nullptr, 10));
    }
  }
  throw std::runtime_error(
      "condyn_server exited or timed out before its listening line");
}

ServerProcess::Exit ServerProcess::stop(int64_t timeout_ns) {
  Exit ex;
  if (pid_ <= 0) {
    ex.detail = "not running";
    return ex;
  }
  const int64_t deadline = now_ns() + timeout_ns;
  ::kill(pid_, SIGTERM);
  std::string line;
  std::string exit_line;
  while (read_line(line, deadline)) {
    if (line.rfind("condyn_server exit", 0) == 0) exit_line = line;
  }
  int status = 0;
  pid_t waited = 0;
  while ((waited = ::waitpid(pid_, &status, WNOHANG)) == 0 && now_ns() < deadline) {
    sleep_until_ns(now_ns() + 10'000'000);
  }
  if (waited != pid_) {
    ::kill(pid_, SIGKILL);
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
    ex.detail = "did not exit in time; killed";
    return ex;
  }
  pid_ = -1;
  bool failed0 = false;
  bool journal0 = false;
  std::istringstream tokens(exit_line);
  for (std::string t; tokens >> t;) {
    failed0 |= t == "failed=0";
    journal0 |= t == "journal_errors=0";
  }
  const bool exit0 = WIFEXITED(status) && WEXITSTATUS(status) == 0;
  ex.clean = exit0 && failed0 && journal0;
  ex.detail = (exit0 ? std::string("exit status 0")
                     : "wait status " + std::to_string(status)) +
              (exit_line.empty() ? ", no exit line" : "; " + exit_line);
  return ex;
}

ScratchDir::ScratchDir(const std::string& parent) {
  static std::atomic<unsigned> counter{0};
  path_ = parent + "/run-" + std::to_string(::getpid()) + "-" +
          std::to_string(counter.fetch_add(1));
  std::filesystem::create_directories(path_);
}

ScratchDir::~ScratchDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

}  // namespace perfbench
