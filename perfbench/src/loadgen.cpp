#include "loadgen.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <stdexcept>
#include <string>

#include "bench_util.hpp"

namespace perfbench {

namespace wire = condyn::wire;
using condyn::Op;

namespace {

/// A frame still unanswered this long after its phase ended counts as lost.
constexpr int64_t kDrainTimeoutNs = 10'000'000'000;
constexpr int64_t kPrefillTimeoutNs = 120'000'000'000;

int connect_loopback(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    throw std::runtime_error(std::string("loadgen: socket: ") +
                             std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    const int saved = errno;
    ::close(fd);
    throw std::runtime_error(std::string("loadgen: connect: ") +
                             std::strerror(saved));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

}  // namespace

struct LoadGen::Conn {
  int fd = -1;
  FrameSource source;
  std::vector<uint8_t> wbuf;
  std::size_t wpos = 0;
  std::vector<uint8_t> rbuf;
  std::size_t rpos = 0;
  std::deque<uint32_t> inflight;  ///< unanswered frames, oldest first
  Phase phase = Phase::kPrefill;  ///< phase that received bytes count toward
  ConnLog log;

  Conn() = default;
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;
  ~Conn() {
    if (fd >= 0) ::close(fd);
  }
};

LoadGen::LoadGen(uint16_t port, std::vector<FrameSource> sources,
                 Tracer* tracer)
    : tracer_(tracer) {
  for (FrameSource& s : sources) {
    auto c = std::make_unique<Conn>();
    c->source = std::move(s);
    c->fd = connect_loopback(port);
    conns_.push_back(std::move(c));
  }
}

LoadGen::~LoadGen() = default;

void LoadGen::close() {
  for (auto& c : conns_) {
    if (c->fd >= 0) ::close(c->fd);
    c->fd = -1;
  }
}

const ConnLog& LoadGen::log(std::size_t c) const { return conns_.at(c)->log; }

void LoadGen::send_frame(Conn& c, std::span<const Op> ops, Phase phase,
                         int64_t scheduled) {
  ConnLog& log = c.log;
  FrameRecord f;
  f.first_op = static_cast<uint32_t>(log.ops.size());
  f.num_ops = static_cast<uint32_t>(ops.size());
  f.scheduled_ns = scheduled;
  f.phase = phase;
  f.has_update = !condyn::all_reads(ops);
  log.ops.insert(log.ops.end(), ops.begin(), ops.end());
  log.values.resize(log.ops.size(), 0);
  if (c.fd >= 0) {
    const std::size_t before = c.wbuf.size();
    wire::encode_ops_frame(ops, c.wbuf);
    log.bytes_out[idx(phase)] += c.wbuf.size() - before;
    c.inflight.push_back(static_cast<uint32_t>(log.frames.size()));
    max_inflight_ = std::max(max_inflight_, c.inflight.size());
  }
  // A frame for a lost connection is logged unsent and stays kNoResponse.
  f.sent_ns = now_ns();
  log.frames.push_back(f);
  flush(c);
}

void LoadGen::flush(Conn& c) {
  while (c.fd >= 0 && c.wpos < c.wbuf.size()) {
    const ssize_t n = ::send(c.fd, c.wbuf.data() + c.wpos,
                             c.wbuf.size() - c.wpos, MSG_NOSIGNAL);
    if (n > 0) {
      c.wpos += static_cast<std::size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return;
    } else {
      lose(c);
      return;
    }
  }
  c.wbuf.clear();
  c.wpos = 0;
}

void LoadGen::lose(Conn& c) {
  for (const uint32_t i : c.inflight) c.log.frames[i].status = kNoResponse;
  c.inflight.clear();
  if (c.fd >= 0) ::close(c.fd);
  c.fd = -1;
  c.wbuf.clear();
  c.wpos = 0;
}

void LoadGen::receive(Conn& c) {
  uint8_t chunk[64 * 1024];
  bool gone = false;
  for (;;) {
    const ssize_t n = ::read(c.fd, chunk, sizeof chunk);
    if (n > 0) {
      c.rbuf.insert(c.rbuf.end(), chunk, chunk + n);
      c.log.bytes_in[idx(c.phase)] += static_cast<uint64_t>(n);
      if (static_cast<std::size_t>(n) < sizeof chunk) break;
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    } else {
      gone = true;  // EOF or error: decode what arrived, then give up
      break;
    }
  }
  const int64_t now = now_ns();
  try {
    for (;;) {
      const std::span<const uint8_t> rest(c.rbuf.data() + c.rpos,
                                          c.rbuf.size() - c.rpos);
      const auto frame = wire::try_frame(rest);
      if (!frame) break;
      if (frame->type != wire::FrameType::kResults || c.inflight.empty()) {
        throw std::runtime_error("unexpected frame");
      }
      const wire::Results res = wire::decode_results(frame->payload);
      c.rpos += frame->frame_bytes;
      FrameRecord& f = c.log.frames[c.inflight.front()];
      c.inflight.pop_front();
      f.done_ns = now;
      f.status = static_cast<uint8_t>(res.status);
      if (res.status == wire::Status::kOk) {
        if (res.values.size() != f.num_ops) {
          f.status = kNoResponse;
          throw std::runtime_error("result count differs from op count");
        }
        std::copy(res.values.begin(), res.values.end(),
                  c.log.values.begin() + f.first_op);
      }
      if (tracer_ != nullptr && tracer_->enabled()) {
        tracer_->record(Layer::kServer,
                        f.has_update ? Call::kUpdateFrame : Call::kReadFrame,
                        f.sent_ns, now, f.num_ops);
      }
    }
  } catch (const std::exception&) {
    lose(c);
    return;
  }
  if (c.rpos == c.rbuf.size()) {
    c.rbuf.clear();
    c.rpos = 0;
  }
  if (gone) lose(c);
}

void LoadGen::wait(int64_t deadline) {
  pfds_.clear();
  pfd_conn_.clear();
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    const Conn& c = *conns_[i];
    if (c.fd < 0) continue;
    const auto events =
        static_cast<short>(POLLIN | (c.wpos < c.wbuf.size() ? POLLOUT : 0));
    pfds_.push_back({c.fd, events, 0});
    pfd_conn_.push_back(i);
  }
  if (pfds_.empty()) {
    sleep_until_ns(deadline);
    return;
  }
  const int64_t left = std::max<int64_t>(0, deadline - now_ns());
  const timespec ts{static_cast<time_t>(left / 1'000'000'000),
                    static_cast<long>(left % 1'000'000'000)};
  if (::ppoll(pfds_.data(), pfds_.size(), &ts, nullptr) <= 0) return;
  for (std::size_t k = 0; k < pfds_.size(); ++k) {
    Conn& c = *conns_[pfd_conn_[k]];
    const short ev = pfds_[k].revents;
    if (ev == 0 || c.fd < 0) continue;
    if ((ev & POLLOUT) != 0) flush(c);
    if (c.fd >= 0 && (ev & (POLLIN | POLLERR | POLLHUP)) != 0) receive(c);
  }
}

void LoadGen::drain(int64_t deadline) {
  for (;;) {
    bool pending = false;
    for (const auto& c : conns_) pending |= !c->inflight.empty();
    if (!pending) return;
    if (now_ns() >= deadline) {
      for (auto& c : conns_) {
        if (!c->inflight.empty()) lose(*c);
      }
      return;
    }
    wait(deadline);
  }
}

bool LoadGen::prefill(const std::vector<std::vector<Op>>& per_conn,
                      std::size_t frame_ops, unsigned window) {
  const int64_t deadline = now_ns() + kPrefillTimeoutNs;
  std::vector<std::size_t> sent(conns_.size(), 0);
  for (auto& c : conns_) c->phase = Phase::kPrefill;
  for (;;) {
    bool busy = false;
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      Conn& c = *conns_[i];
      const std::vector<Op>& ops = per_conn[i];
      while (c.fd >= 0 && c.inflight.size() < window && sent[i] < ops.size()) {
        const std::size_t len = std::min(frame_ops, ops.size() - sent[i]);
        send_frame(c, std::span<const Op>(ops).subspan(sent[i], len),
                   Phase::kPrefill, now_ns());
        sent[i] += len;
      }
      busy |= !c.inflight.empty();
    }
    if (!busy) break;
    if (now_ns() >= deadline) {
      for (auto& c : conns_) lose(*c);
      break;
    }
    wait(deadline);
  }
  // Every prefill op adds a distinct edge to an empty structure, so each
  // must come back acknowledged as applied.
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    const ConnLog& log = conns_[i]->log;
    if (sent[i] != per_conn[i].size()) return false;
    for (const FrameRecord& f : log.frames) {
      if (f.phase != Phase::kPrefill) continue;
      if (f.status != kStatusOk) return false;
      for (uint32_t k = 0; k < f.num_ops; ++k) {
        if (log.values[f.first_op + k] != 1) return false;
      }
    }
  }
  return true;
}

void LoadGen::run_paced(Phase phase, double ops_per_s, int64_t duration_ns,
                        const std::vector<double>& offsets,
                        const std::function<void()>& tick) {
  const std::size_t n = conns_.size();
  const double interval = 1e9 * static_cast<double>(kFrameOps * n) / ops_per_s;
  const int64_t start = now_ns();
  const int64_t end = start + duration_ns;
  std::vector<double> due(n);
  for (std::size_t i = 0; i < n; ++i) {
    due[i] = static_cast<double>(start) + interval * offsets[i];
    conns_[i]->phase = phase;
  }
  std::vector<Op> frame;
  for (;;) {
    const int64_t now = now_ns();
    int64_t next = end;
    for (std::size_t i = 0; i < n; ++i) {
      Conn& c = *conns_[i];
      // Open loop: send whatever is due, late or not. Only a full window
      // holds a frame back, and its latency keeps counting meanwhile.
      while (due[i] <= static_cast<double>(now) &&
             due[i] < static_cast<double>(end) &&
             c.inflight.size() < kPacedWindow) {
        frame.clear();
        c.source(frame);
        send_frame(c, frame, phase, static_cast<int64_t>(due[i]));
        due[i] += interval;
      }
      if (due[i] < static_cast<double>(end) && c.inflight.size() < kPacedWindow) {
        next = std::min(next, static_cast<int64_t>(due[i]));
      }
    }
    if (tick) tick();
    if (now >= end) break;
    wait(next);
  }
  drain(end + kDrainTimeoutNs);
}

double LoadGen::run_closed(Phase phase, unsigned window, int64_t duration_ns) {
  const int64_t start = now_ns();
  const int64_t end = start + duration_ns;
  for (auto& c : conns_) c->phase = phase;
  std::vector<Op> frame;
  for (int64_t now = start; now < end; now = now_ns()) {
    for (auto& c : conns_) {
      while (c->fd >= 0 && c->inflight.size() < window) {
        frame.clear();
        c->source(frame);
        send_frame(*c, frame, phase, now);
      }
    }
    wait(end);
  }
  drain(end + kDrainTimeoutNs);
  uint64_t acked = 0;
  for (const auto& c : conns_) {
    for (const FrameRecord& f : c->log.frames) {
      if (f.phase == phase && f.status == kStatusOk && f.done_ns >= start &&
          f.done_ns < end) {
        acked += f.num_ops;
      }
    }
  }
  return static_cast<double>(acked) * 1e9 / static_cast<double>(duration_ns);
}

}  // namespace perfbench
