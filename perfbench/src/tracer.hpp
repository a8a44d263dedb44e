#pragma once

// Instrumentation of the traced run, all of it in the benchmark's own code:
// a DynamicConnectivity decorator that times every call into the core layer
// and takes the calling thread's op_stats / lock_stats / pool_stats deltas
// across it, and an in-memory span log that the load generator also records
// its server-frame and wire-codec timings into. Spans are written out when
// the run ends; nothing here reaches inside the program.

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "api/dynamic_connectivity.hpp"
#include "bench_util.hpp"

namespace perfbench {

enum class Layer : uint8_t { kCore, kServer, kWire };

/// What a span times. Core calls are the DynamicConnectivity virtuals, with
/// apply_batch split by whether the batch carries an update; server calls
/// are client-side frame round trips; wire calls are codec passes.
enum class Call : uint8_t {
  kAdd, kRemove, kConnected, kComponentSize, kRepresentative, kComponents,
  kReadBatch, kUpdateBatch, kQuiesce,
  kReadFrame, kUpdateFrame,
  kEncode, kDecode,
  kCount
};
inline constexpr std::size_t kNumCalls = static_cast<std::size_t>(Call::kCount);
constexpr std::size_t idx(Call c) noexcept { return static_cast<std::size_t>(c); }

const char* layer_name(Layer l) noexcept;
const char* call_name(Call c) noexcept;

/// The core-layer counters a traced run reports, read from the calling
/// thread's op_stats, lock_stats and pool_stats blocks.
enum Counter : std::size_t {
  kReads, kReadRetries, kAdditions, kNonspanningAdditions, kRemovals,
  kNonspanningRemovals, kNonblockingUpdates, kReplacementSearches,
  kReplacementsFound, kLabelHits, kLabelMisses, kLockWaitNs,
  kLockAcquisitions, kLockContended, kPoolFresh, kPoolReused,
  kAllocatorCalls, kNumCounters
};
using Counters = std::array<uint64_t, kNumCounters>;

Counters thread_counters() noexcept;

struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint32_t ops = 0;
  uint16_t thread = 0;
  Layer layer = Layer::kCore;
  Call call = Call::kAdd;
};

/// Timings of one call kind, on one thread or merged over threads.
struct CallStats {
  LogHistogram latency_ns;
  uint64_t calls = 0;
  uint64_t ops = 0;      ///< ops carried: 1 per single-op call, batch sizes
  uint64_t updates = 0;  ///< of which adds and removes
  uint64_t total_ns = 0;

  void merge(const CallStats& o) noexcept;
};

/// Everything one thread recorded.
struct ThreadTrace {
  std::thread::id id;
  uint16_t index = 0;
  std::array<CallStats, kNumCalls> calls{};
  Counters counters{};  ///< core counter deltas summed over timed calls
  std::vector<Span> spans;  ///< the first spans_per_thread calls only
};

class Tracer {
 public:
  /// `spans_per_thread` bounds memory: later calls are timed but their
  /// spans are not kept.
  explicit Tracer(std::size_t spans_per_thread = std::size_t{1} << 16);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void set_enabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }
  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Record one timed call on the calling thread.
  void record(Layer layer, Call call, int64_t start_ns, int64_t end_ns,
              uint32_t ops, uint32_t updates = 0,
              const Counters* delta = nullptr);

  /// Every thread that recorded. Read only after all of them stopped.
  const std::vector<std::unique_ptr<ThreadTrace>>& threads() const noexcept {
    return threads_;
  }
  CallStats merged(Call c) const;
  /// CSV, one line per kept span: layer,call,thread,start_ns,end_ns,ops.
  bool write_spans(const std::string& path) const;

 private:
  ThreadTrace& local();

  const uint64_t generation_;
  const std::size_t spans_per_thread_;
  std::atomic<bool> enabled_{false};
  std::mutex mu_;  ///< guards threads_ against concurrent registration
  std::vector<std::unique_ptr<ThreadTrace>> threads_;
};

/// The ingest applier's record: the only thread that applies batches
/// carrying updates. nullptr when no such batch was traced.
const ThreadTrace* find_applier(const Tracer& tracer);

/// Decorator for traced runs: forwards every virtual to the wrapped
/// variant and, while the tracer is enabled, times each call and adds the
/// calling thread's counter deltas across it. num_vertices() and name() are
/// forwarded untimed: they do no work.
class TracedDc final : public condyn::DynamicConnectivity {
 public:
  TracedDc(condyn::DynamicConnectivity& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  bool add_edge(condyn::Vertex u, condyn::Vertex v) override {
    return timed(Call::kAdd, 1, 1, [&] { return inner_.add_edge(u, v); });
  }
  bool remove_edge(condyn::Vertex u, condyn::Vertex v) override {
    return timed(Call::kRemove, 1, 1, [&] { return inner_.remove_edge(u, v); });
  }
  bool connected(condyn::Vertex u, condyn::Vertex v) override {
    return timed(Call::kConnected, 1, 0, [&] { return inner_.connected(u, v); });
  }
  uint64_t component_size(condyn::Vertex u) override {
    return timed(Call::kComponentSize, 1, 0,
                 [&] { return inner_.component_size(u); });
  }
  condyn::Vertex representative(condyn::Vertex u) override {
    return timed(Call::kRepresentative, 1, 0,
                 [&] { return inner_.representative(u); });
  }
  condyn::ComponentsSnapshot components() override {
    return timed(Call::kComponents, 0, 0, [&] { return inner_.components(); });
  }
  condyn::BatchResult apply_batch(std::span<const condyn::Op> ops) override {
    if (!tracer_.enabled()) return inner_.apply_batch(ops);
    uint32_t updates = 0;
    for (const condyn::Op& op : ops) updates += condyn::is_update(op.kind) ? 1 : 0;
    return timed(updates == 0 ? Call::kReadBatch : Call::kUpdateBatch,
                 static_cast<uint32_t>(ops.size()), updates,
                 [&] { return inner_.apply_batch(ops); });
  }
  condyn::Vertex num_vertices() const override { return inner_.num_vertices(); }
  void quiesce() override {
    timed(Call::kQuiesce, 0, 0, [&] {
      inner_.quiesce();
      return 0;
    });
  }
  std::string name() const override { return inner_.name(); }

 private:
  template <class F>
  auto timed(Call call, uint32_t ops, uint32_t updates, F&& f) -> decltype(f()) {
    if (!tracer_.enabled()) return f();
    const Counters before = thread_counters();
    const int64_t t0 = now_ns();
    auto result = f();
    const int64_t t1 = now_ns();
    Counters delta = thread_counters();
    for (std::size_t i = 0; i < kNumCounters; ++i) delta[i] -= before[i];
    tracer_.record(Layer::kCore, call, t0, t1, ops, updates, &delta);
    return result;
  }

  condyn::DynamicConnectivity& inner_;
  Tracer& tracer_;
};

}  // namespace perfbench
