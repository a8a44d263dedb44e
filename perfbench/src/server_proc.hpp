#pragma once

// The shipped condyn_server as a child process: started with a scrubbed
// environment plus explicit settings, its ephemeral port read from the
// readiness line, stopped with SIGTERM and judged by its exit line.

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class ServerProcess {
 public:
  /// Fork and exec `binary` with this process's environment minus every
  /// DC_* variable, plus `settings` ("NAME=value"). Throws on failure.
  ServerProcess(const std::string& binary,
                const std::vector<std::string>& settings);
  /// Kills (SIGKILL) and reaps a server that was never stopped.
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Block until the "listening port=" line; returns the port.
  uint16_t wait_ready(int64_t timeout_ns);
  pid_t pid() const noexcept { return pid_; }

  struct Exit {
    bool clean = false;  ///< exit status 0 and "failed=0 journal_errors=0"
    std::string detail;
  };
  /// SIGTERM, then wait for the drain and the exit.
  Exit stop(int64_t timeout_ns);

 private:
  bool read_line(std::string& line, int64_t deadline);

  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::string buf_;
};

/// A fresh directory under `parent`, removed with its contents on
/// destruction (the journal of a durable run lives here).
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& parent);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

}  // namespace perfbench
