#include "harness/workload.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "core/batch_runs.hpp"

namespace condyn::harness {

namespace {

int clamp_pct(int p) noexcept { return p < 0 ? 0 : (p > 100 ? 100 : p); }

/// Generalized harmonic number H_{n,theta} = sum_{i=1..n} i^-theta, with an
/// integral tail approximation beyond the first 10k terms so paper-sized
/// edge counts don't cost an O(m) pow() loop per stream.
double zeta(uint64_t n, double theta) {
  const uint64_t head = std::min<uint64_t>(n, 10000);
  double z = 0;
  for (uint64_t i = 1; i <= head; ++i)
    z += std::pow(static_cast<double>(i), -theta);
  if (n > head) {
    z += (std::pow(static_cast<double>(n), 1 - theta) -
          std::pow(static_cast<double>(head), 1 - theta)) /
         (1 - theta);
  }
  return z;
}

}  // namespace

ZipfianOpStream::ZipfianOpStream(const Graph& g, int read_percent,
                                 uint64_t base_seed, unsigned thread,
                                 double theta)
    : edges_(&g.edges()),
      m_(std::max<uint64_t>(1, g.num_edges())),
      // theta = 1 divides by zero in alpha_; clamp to a sane open interval.
      theta_(std::clamp(theta, 0.01, 0.999)),
      read_percent_(clamp_pct(read_percent)),
      rng_(mix64(base_seed ^ (0x21b5ull + thread))) {
  // Popularity permutation shared by every thread of a run: derived from the
  // base seed only, so all threads agree on which edges are hot.
  step_ = (mix64(base_seed ^ 0x5eedull) % m_) | 1;  // odd, nonzero
  while (std::gcd(step_, m_) != 1) step_ += 2;
  step_ %= m_;  // 0 only when m_ == 1, where every rank maps to index 0
  offset_ = mix64(base_seed ^ 0x0ff5ull) % m_;
  zetan_ = zeta(m_, theta_);
  alpha_ = 1.0 / (1.0 - theta_);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(m_), 1.0 - theta_)) /
         (1.0 - zeta(2, theta_) / zetan_);
}

uint64_t ZipfianOpStream::zipf_rank() noexcept {
  // Gray et al. / YCSB constant-time Zipfian inversion.
  const double u = rng_.next_double();
  const double uz = u * zetan_;
  if (uz < 1.0) return 0;
  if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
  const auto r = static_cast<uint64_t>(
      static_cast<double>(m_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
  return r >= m_ ? m_ - 1 : r;
}

bool ZipfianOpStream::next(Op& op) {
  if (edges_->empty()) return false;
  const Edge& e = (*edges_)[index_of_rank(zipf_rank())];
  OpKind k = OpKind::kConnected;
  if (rng_.next_below(100) >= static_cast<uint64_t>(read_percent_)) {
    k = rng_.next_below(2) == 0 ? OpKind::kAdd : OpKind::kRemove;
  }
  op = {k, e.u, e.v};
  return true;
}

SlidingWindowStream::SlidingWindowStream(std::vector<Edge> stripe,
                                         int read_percent, uint64_t seed,
                                         double window_fraction)
    : edges_(std::move(stripe)),
      window_(std::max<std::size_t>(
          1, static_cast<std::size_t>(
                 static_cast<double>(edges_.size()) *
                 std::clamp(window_fraction, 0.01, 1.0)))),
      read_percent_(clamp_pct(read_percent)),
      rng_(seed) {}

bool SlidingWindowStream::next(Op& op) {
  if (edges_.empty()) return false;  // degenerate stripe (threads > edges)
  const std::size_t n = edges_.size();
  if (rng_.next_below(100) < static_cast<uint64_t>(read_percent_) &&
      adds_ > removes_) {
    // Query a uniformly random edge of the current live window.
    const uint64_t off = rng_.next_below(adds_ - removes_);
    const Edge& e = edges_[(removes_ + off) % n];
    op = Op::connected(e.u, e.v);
    return true;
  }
  // Updates march the window forward: fill it with adds first, then strictly
  // alternate trailing-remove / front-add so the live count stays at
  // window_ (the temporal-graph contract: old edges expire as new arrive).
  if (adds_ - removes_ < window_) {
    const Edge& e = edges_[adds_++ % n];
    op = Op::add(e.u, e.v);
    remove_next_ = true;
  } else if (remove_next_) {
    const Edge& e = edges_[removes_++ % n];
    op = Op::remove(e.u, e.v);
    remove_next_ = false;
  } else {
    const Edge& e = edges_[adds_++ % n];
    op = Op::add(e.u, e.v);
    remove_next_ = true;
  }
  return true;
}

ComponentLocalStream::ComponentLocalStream(const Graph& g, int read_percent,
                                           unsigned communities,
                                           uint64_t base_seed, unsigned thread,
                                           unsigned run_length)
    : edges_(&g.edges()),
      run_length_(std::max(1u, run_length)),
      read_percent_(clamp_pct(read_percent)),
      rng_(mix64(base_seed ^ (0xc0a1ull + thread))) {
  if (communities == 0) communities = 1;
  const Vertex n = std::max<Vertex>(1, g.num_vertices());
  const Vertex block = (n + communities - 1) / communities;
  // Bucket edges by the community of their lower endpoint; an edge whose
  // endpoints straddle blocks still belongs to exactly one bucket, keeping
  // the partition total.
  std::vector<std::vector<uint32_t>> buckets(communities);
  for (std::size_t i = 0; i < edges_->size(); ++i) {
    buckets[(*edges_)[i].u / block].push_back(static_cast<uint32_t>(i));
  }
  for (auto& b : buckets) {
    if (!b.empty()) buckets_.push_back(std::move(b));
  }
}

bool ComponentLocalStream::next(Op& op) {
  if (buckets_.empty()) return false;
  if (run_left_ == 0) {
    current_ = rng_.next_below(buckets_.size());
    run_left_ = run_length_;
  }
  --run_left_;
  const std::vector<uint32_t>& bucket = buckets_[current_];
  const Edge& e = (*edges_)[bucket[rng_.next_below(bucket.size())]];
  OpKind k = OpKind::kConnected;
  if (rng_.next_below(100) >= static_cast<uint64_t>(read_percent_)) {
    k = rng_.next_below(2) == 0 ? OpKind::kAdd : OpKind::kRemove;
  }
  op = {k, e.u, e.v};
  return true;
}

std::vector<Edge> random_half(const Graph& g, uint64_t seed) {
  std::vector<Edge> all = g.edges();
  Xoshiro256 rng(seed);
  // Fisher-Yates prefix shuffle: the first half is a uniform subset.
  const std::size_t half = all.size() / 2;
  for (std::size_t i = 0; i < half; ++i) {
    const std::size_t j = i + rng.next_below(all.size() - i);
    std::swap(all[i], all[j]);
  }
  all.resize(half);
  return all;
}

std::vector<Edge> stripe(const std::vector<Edge>& edges, unsigned thread,
                         unsigned num_threads) {
  std::vector<Edge> out;
  out.reserve(edges.size() / num_threads + 1);
  for (std::size_t i = thread; i < edges.size(); i += num_threads)
    out.push_back(edges[i]);
  return out;
}

uint64_t edge_partition_hash(Vertex u, Vertex v) noexcept {
  // Canonical orientation (hash(u,v) == hash(v,u)); the definition lives in
  // core/batch_runs.hpp since PR 7 so PbdDc's batch planner shares it.
  return condyn::edge_partition_hash(u, v);
}

std::vector<Op> edge_partition(std::span<const Op> ops, unsigned thread,
                               unsigned num_threads) {
  std::vector<Op> out;
  if (num_threads == 0) return out;
  out.reserve(ops.size() / num_threads + 1);
  for (const Op& op : ops) {
    if (edge_partition_hash(op.u, op.v) % num_threads == thread)
      out.push_back(op);
  }
  return out;
}

std::vector<std::vector<Op>> update_batches(const std::vector<Edge>& edges,
                                            std::size_t batch_size,
                                            OpKind kind) {
  std::vector<std::vector<Op>> out;
  if (batch_size == 0) batch_size = 1;
  out.reserve(edges.size() / batch_size + 1);
  for (std::size_t i = 0; i < edges.size(); i += batch_size) {
    std::vector<Op> batch;
    const std::size_t end = std::min(edges.size(), i + batch_size);
    batch.reserve(end - i);
    for (std::size_t j = i; j < end; ++j) {
      batch.push_back({kind, edges[j].u, edges[j].v});
    }
    out.push_back(std::move(batch));
  }
  return out;
}

}  // namespace condyn::harness
