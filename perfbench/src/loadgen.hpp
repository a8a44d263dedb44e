#pragma once

// The serving workloads' load generator: one thread drives every
// connection through non-blocking sockets and ppoll(), either paced open
// loop (each frame timed from its due time) or closed loop with a fixed
// window of frames in flight. Every frame sent is logged with the status
// and values of its response, so the answers can be checked afterwards.

#include <poll.h>

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "api/dynamic_connectivity.hpp"
#include "graph/wire.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

namespace perfbench {

inline constexpr uint8_t kStatusOk =
    static_cast<uint8_t>(condyn::wire::Status::kOk);
inline constexpr uint8_t kStatusOverloaded =
    static_cast<uint8_t>(condyn::wire::Status::kOverloaded);
/// Status of a frame that never got a response (connection lost, timeout).
inline constexpr uint8_t kNoResponse = 0xff;

struct FrameRecord {
  uint32_t first_op = 0;     ///< index of its first op in ConnLog::ops
  uint32_t num_ops = 0;
  int64_t scheduled_ns = 0;  ///< due time (paced) or window-slot time (closed)
  int64_t sent_ns = 0;       ///< handed to the socket
  int64_t done_ns = 0;       ///< response decoded; 0 if none
  Phase phase = Phase::kPrefill;
  uint8_t status = kNoResponse;  ///< a wire::Status, or kNoResponse
  bool has_update = false;
};

/// One connection's history, in send order.
struct ConnLog {
  std::vector<condyn::Op> ops;
  std::vector<uint64_t> values;  ///< response values, aligned with ops (0 unless kOk)
  std::vector<FrameRecord> frames;
  std::array<uint64_t, kNumPhases> bytes_out{};  ///< request bytes per phase
  std::array<uint64_t, kNumPhases> bytes_in{};   ///< response bytes per phase
};

/// Fills `frame` with a connection's next kFrameOps ops.
using FrameSource = std::function<void(std::vector<condyn::Op>& frame)>;

class LoadGen {
 public:
  /// One connection to 127.0.0.1:port per source. Throws std::runtime_error.
  LoadGen(uint16_t port, std::vector<FrameSource> sources,
          Tracer* tracer = nullptr);
  ~LoadGen();
  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  /// Send connection c's ops `per_conn[c]` in frames of `frame_ops`, at most
  /// `window` unanswered per connection. True iff every frame was answered
  /// kOk and every op returned 1 (each adds a fresh edge).
  bool prefill(const std::vector<std::vector<condyn::Op>>& per_conn,
               std::size_t frame_ops, unsigned window);

  /// Open loop at `ops_per_s` in aggregate for `duration_ns`; connection c's
  /// schedule starts offsets[c] of a frame interval into the phase. A frame
  /// due while kPacedWindow are unanswered waits for a response; its latency
  /// still counts from its due time. `tick` runs on every loop iteration.
  void run_paced(Phase phase, double ops_per_s, int64_t duration_ns,
                 const std::vector<double>& offsets,
                 const std::function<void()>& tick = {});

  /// Closed loop: every connection keeps `window` frames in flight for
  /// `duration_ns`. Returns the ops answered kOk per second.
  double run_closed(Phase phase, unsigned window, int64_t duration_ns);

  /// Close every connection; the logs stay readable.
  void close();

  std::size_t connections() const noexcept { return conns_.size(); }
  const ConnLog& log(std::size_t c) const;
  /// The most frames any connection had unanswered at once.
  std::size_t max_inflight() const noexcept { return max_inflight_; }

 private:
  struct Conn;

  void send_frame(Conn& c, std::span<const condyn::Op> ops, Phase phase,
                  int64_t scheduled);
  void flush(Conn& c);
  void receive(Conn& c);
  void lose(Conn& c);
  void wait(int64_t deadline);
  void drain(int64_t deadline);

  Tracer* tracer_;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::vector<pollfd> pfds_;
  std::vector<std::size_t> pfd_conn_;
  std::size_t max_inflight_ = 0;
};

}  // namespace perfbench
