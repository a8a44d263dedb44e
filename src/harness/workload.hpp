#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "api/dynamic_connectivity.hpp"
#include "graph/graph.hpp"
#include "graph/io.hpp"
#include "util/random.hpp"

namespace condyn::harness {

/// One benchmark execution's configuration (see driver.hpp for the env
/// defaults every bench binary resolves through env_config()). Validated by
/// harness::validated() before any driver runs it: threads == 0 or
/// measure_ms <= 0 are rejected, read_percent is clamped to [0, 100].
struct RunConfig {
  unsigned threads = 1;
  int read_percent = 80;   ///< read-mix scenarios only
  uint64_t seed = 42;
  int warmup_ms = 100;     ///< timed scenarios only (finite runs need none)
  int measure_ms = 300;
  std::size_t batch_size = 64;  ///< batch scenarios only
  std::string trace_path;       ///< trace-replay scenario only (DC_BENCH_TRACE)
  // Generator knobs, exposed so skew/locality can be swept without
  // recompiling (DC_BENCH_ZIPF_THETA / WINDOW / COMMUNITIES / RUNLEN);
  // validated() clamps them to sane ranges.
  double zipf_theta = 0.99;      ///< zipfian scenario skew, in (0, 1)
  double window_fraction = 0.25; ///< sliding-window live share of the stripe
  unsigned communities = 16;     ///< component-local community count
  unsigned run_length = 64;      ///< component-local ops before hopping
  /// Open-loop target arrival rate in ops/sec, aggregate across threads
  /// (DC_BENCH_RATE); 0 = unpaced. Only paced scenarios (ScenarioCaps::
  /// paced — firehose) honor it; validated(cfg, caps) *rejects* it on
  /// batched closed-loop scenarios, where pacing the batch filler would
  /// silently measure neither arrival process.
  double arrival_rate = 0;
  /// Set by run_scenario for needs_trace scenarios: the trace loaded once
  /// for validation, shared with every worker's stream factory so a run
  /// doesn't re-read the file per thread. Leave unset to load trace_path.
  std::shared_ptr<const io::Trace> preloaded_trace;
};

/// Pull-based operation stream — the unit the scenario registry's factories
/// produce (scenario.hpp). Finite streams (incremental, decremental, trace
/// replay) signal exhaustion by returning false; infinite mixes never do.
class OpStream {
 public:
  virtual ~OpStream() = default;

  /// Fill `op` with the next operation; false once a finite stream is done.
  virtual bool next(Op& op) = 0;
};

/// Per-thread operation stream for the *random subset* scenario: every draw
/// picks a uniformly random graph edge and an operation type so that the
/// percentage of additions equals the percentage of removals (keeping the
/// live edge count roughly constant, §5.1). Emits the api Op vocabulary so
/// per-op and batch drivers share one generator.
class RandomOpStream final : public OpStream {
 public:
  RandomOpStream(const Graph& g, int read_percent, uint64_t seed)
      : edges_(&g.edges()),
        read_percent_(read_percent < 0 ? 0 : (read_percent > 100 ? 100 : read_percent)),
        rng_(seed) {}

  Op next() noexcept {
    const Edge& e = (*edges_)[rng_.next_below(edges_->size())];
    OpKind k = OpKind::kConnected;
    if (rng_.next_below(100) >= static_cast<uint64_t>(read_percent_)) {
      // The add/remove coin is an independent draw: deriving it from the
      // read/update roll's parity made removals impossible whenever the
      // update share was odd (e.g. 99% reads => 1% adds, 0% removes),
      // silently growing the live edge set all run.
      k = rng_.next_below(2) == 0 ? OpKind::kAdd : OpKind::kRemove;
    }
    return {k, e.u, e.v};
  }

  bool next(Op& op) override {
    op = next();
    return true;
  }

 private:
  const std::vector<Edge>* edges_;
  int read_percent_;
  Xoshiro256 rng_;
};

/// Batch-size-parameterized generator over the same random mix: each next()
/// refills a reusable buffer with `batch_size` draws, ready for apply_batch.
/// The batched driver now chunks plain OpStreams itself, so this class is
/// the library's span-producing generator for external batch submitters and
/// the test oracle for the chunking contract (chunking must not change the
/// underlying op sequence — tests/test_harness.cpp).
class RandomBatchStream {
 public:
  RandomBatchStream(const Graph& g, int read_percent, std::size_t batch_size,
                    uint64_t seed)
      // Clamp like update_batches: batch_size 0 would make every next()
      // an empty span and the batch driver a busy-loop of no-op calls.
      : stream_(g, read_percent, seed), batch_(batch_size == 0 ? 1 : batch_size) {}

  std::span<const Op> next() noexcept {
    for (Op& op : batch_) op = stream_.next();
    return batch_;
  }

  std::size_t batch_size() const noexcept { return batch_.size(); }

 private:
  RandomOpStream stream_;
  std::vector<Op> batch_;
};

/// Read-heavy mix over the value-returning query vocabulary (the
/// `size-query` scenario): like RandomOpStream, each draw picks a uniform
/// random graph edge; reads rotate connected -> component_size ->
/// representative so every query kind carries ~a third of the read share,
/// while updates keep the independent add/remove coin. The workload a
/// connectivity *service* sees: "how big is this community, who represents
/// it, are these two users together" over a churning edge set.
class SizeQueryStream final : public OpStream {
 public:
  SizeQueryStream(const Graph& g, int read_percent, uint64_t seed)
      : edges_(&g.edges()),
        read_percent_(read_percent < 0 ? 0
                                       : (read_percent > 100 ? 100
                                                             : read_percent)),
        rng_(seed) {}

  bool next(Op& op) override {
    if (edges_->empty()) return false;
    const Edge& e = (*edges_)[rng_.next_below(edges_->size())];
    if (rng_.next_below(100) >= static_cast<uint64_t>(read_percent_)) {
      op = rng_.next_below(2) == 0 ? Op::add(e.u, e.v) : Op::remove(e.u, e.v);
      return true;
    }
    switch (rotate_++ % 3) {
      case 0: op = Op::connected(e.u, e.v); break;
      case 1: op = Op::component_size(e.u); break;
      default: op = Op::representative(e.v); break;
    }
    return true;
  }

 private:
  const std::vector<Edge>* edges_;
  int read_percent_;
  uint32_t rotate_ = 0;
  Xoshiro256 rng_;
};

/// Finite stream over a pre-materialized program; the incremental,
/// decremental and trace-replay scenarios are all instances of this.
class VectorOpStream final : public OpStream {
 public:
  explicit VectorOpStream(std::vector<Op> ops) : ops_(std::move(ops)) {}

  bool next(Op& op) override {
    if (pos_ >= ops_.size()) return false;
    op = ops_[pos_++];
    return true;
  }

  std::size_t size() const noexcept { return ops_.size(); }

 private:
  std::vector<Op> ops_;
  std::size_t pos_ = 0;
};

/// Zipfian-skewed random mix: edge popularity follows a Zipf(theta)
/// distribution (YCSB's generator), so a handful of hot edges absorb most
/// operations — the contention regime uniform mixes cannot produce. Hot
/// ranks are decorrelated from edge-list order through a fixed affine
/// permutation derived from the base seed, shared by all threads so they
/// hammer the *same* hot set.
class ZipfianOpStream final : public OpStream {
 public:
  static constexpr double kTheta = 0.99;  // YCSB default skew

  /// `theta` in (0, 1): higher = more skew (RunConfig::zipf_theta).
  ZipfianOpStream(const Graph& g, int read_percent, uint64_t base_seed,
                  unsigned thread, double theta = kTheta);

  bool next(Op& op) override;

  /// Rank -> edge index under the popularity permutation (exposed for tests).
  std::size_t index_of_rank(uint64_t rank) const noexcept {
    return static_cast<std::size_t>((rank * step_ + offset_) % m_);
  }

 private:
  uint64_t zipf_rank() noexcept;

  const std::vector<Edge>* edges_;
  uint64_t m_;
  uint64_t step_;    // coprime with m_: rank -> index is a bijection
  uint64_t offset_;
  double theta_, zetan_, eta_, alpha_;
  int read_percent_;
  Xoshiro256 rng_;
};

/// Sliding-window churn over this thread's stripe of the edge list: updates
/// add a moving front edge and remove the trailing one, so the live window
/// marches through the graph like a temporal stream; reads query inside the
/// current window. The live edge count stays pinned near the window size.
class SlidingWindowStream final : public OpStream {
 public:
  /// `window_fraction` in (0, 1]: live-window share of the stripe
  /// (RunConfig::window_fraction).
  SlidingWindowStream(std::vector<Edge> stripe, int read_percent,
                      uint64_t seed, double window_fraction = 0.25);

  bool next(Op& op) override;

  std::size_t window() const noexcept { return window_; }
  /// Edges currently live (adds minus removes); bounded by window().
  std::size_t live() const noexcept { return adds_ - removes_; }

 private:
  std::vector<Edge> edges_;
  std::size_t window_;
  uint64_t adds_ = 0;     // total front insertions
  uint64_t removes_ = 0;  // total trailing removals
  bool remove_next_ = false;
  int read_percent_;
  Xoshiro256 rng_;
};

/// Component-local mix: vertices are split into `communities` contiguous
/// blocks and each thread works inside one community for a stretch of
/// operations before hopping to another. Operations cluster inside one
/// region of the graph — the locality that separates per-component
/// synchronization (fine/full families) from global locks.
class ComponentLocalStream final : public OpStream {
 public:
  static constexpr unsigned kDefaultCommunities = 16;
  static constexpr unsigned kRunLength = 64;  // default ops before hopping

  ComponentLocalStream(const Graph& g, int read_percent, unsigned communities,
                       uint64_t base_seed, unsigned thread,
                       unsigned run_length = kRunLength);

  bool next(Op& op) override;

  std::size_t num_communities() const noexcept { return buckets_.size(); }

 private:
  const std::vector<Edge>* edges_;
  std::vector<std::vector<uint32_t>> buckets_;  // edge indices per community
  std::size_t current_ = 0;
  unsigned run_length_;
  unsigned run_left_ = 0;
  int read_percent_;
  Xoshiro256 rng_;
};

/// Open-loop pacing decorator: arrivals of the inner stream are released on
/// a fixed schedule of one op every 1/ops_per_sec seconds, anchored at the
/// first draw. When the consumer falls behind the schedule, next() does not
/// sleep at all until the backlog is worked off — that is the open-loop
/// property (arrivals don't slow down because the system is slow), and it
/// is what makes sojourn time under overload diverge instead of plateau.
/// ops_per_sec <= 0 degrades to the unpaced inner stream.
class PacedStream final : public OpStream {
 public:
  PacedStream(std::unique_ptr<OpStream> inner, double ops_per_sec)
      : inner_(std::move(inner)),
        interval_ns_(ops_per_sec > 0
                         ? static_cast<uint64_t>(1e9 / ops_per_sec)
                         : 0) {}

  bool next(Op& op) override {
    if (!inner_->next(op)) return false;
    if (interval_ns_ == 0) return true;
    const uint64_t now = now_ns();
    if (due_ns_ == 0) due_ns_ = now;  // schedule starts at the first draw
    due_ns_ += interval_ns_;
    if (now < due_ns_) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due_ns_ - now));
    }
    return true;
  }

  uint64_t interval_ns() const noexcept { return interval_ns_; }

 private:
  static uint64_t now_ns() noexcept {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  std::unique_ptr<OpStream> inner_;
  uint64_t interval_ns_;
  uint64_t due_ns_ = 0;  ///< next scheduled arrival (0 = not started)
};

/// Deterministic half-of-the-graph subset used to pre-fill the structure in
/// the random scenario (the other half starts absent).
std::vector<Edge> random_half(const Graph& g, uint64_t seed);

/// Striped partition of the edge list for the incremental / decremental
/// scenarios: thread t of T handles edges t, t+T, t+2T, ...
std::vector<Edge> stripe(const std::vector<Edge>& edges, unsigned thread,
                         unsigned num_threads);

/// Canonical per-edge hash behind the dependency-preserving replay
/// partition: order-insensitive in (u, v), seed-free so every thread of a
/// run (and every run) agrees on edge ownership.
uint64_t edge_partition_hash(Vertex u, Vertex v) noexcept;

/// Hash-partition of a recorded op stream for the `trace-replay-dep`
/// scenario: thread t of T owns every op whose edge hashes to t, in
/// recorded order. Unlike `stripe`'s round-robin (which scatters one
/// edge's add/remove/query history across workers, so replay races against
/// itself), this keeps all ops touching one edge ordered on one thread —
/// the final edge set, and hence final connectivity, of a concurrent
/// replay matches the sequential one.
std::vector<Op> edge_partition(std::span<const Op> ops, unsigned thread,
                               unsigned num_threads);

/// Chop an edge list into apply_batch-ready batches of `kind` updates
/// (kAdd to build a structure up — e.g. batch pre-fill — kRemove to
/// tear one down). The final batch holds the remainder.
std::vector<std::vector<Op>> update_batches(const std::vector<Edge>& edges,
                                            std::size_t batch_size,
                                            OpKind kind);

}  // namespace condyn::harness
