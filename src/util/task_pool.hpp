#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace condyn {

/// Sense-reversing spin barrier for a fixed-size gang. Participants that
/// arrive early spin briefly and then yield, so an oversubscribed machine
/// (more gang members than cores) degrades to scheduler hand-offs instead
/// of livelock.
class SpinBarrier {
 public:
  explicit SpinBarrier(unsigned participants) noexcept
      : participants_(participants) {}

  void arrive_and_wait() noexcept {
    const uint32_t sense = sense_.load(std::memory_order_acquire);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        participants_) {
      arrived_.store(0, std::memory_order_relaxed);
      sense_.store(sense + 1, std::memory_order_release);  // release the gang
      return;
    }
    int spins = 0;
    while (sense_.load(std::memory_order_acquire) == sense) {
      if (++spins > 128) std::this_thread::yield();
    }
  }

 private:
  const unsigned participants_;
  std::atomic<uint32_t> arrived_{0};
  std::atomic<uint32_t> sense_{0};
};

/// A small reusable fork-join worker pool (no external deps): `workers()`
/// gang members with ids 0..workers()-1, where id 0 is always the calling
/// thread. run(body) executes body(id) on every member and blocks until all
/// return — the primitive behind PbdDc's internally parallel apply_batch
/// (DESIGN.md §9).
///
/// Threads are spawned lazily on the first run() that needs them, so a pool
/// sized 1 (the single-core default) never creates a thread and run() is a
/// plain inline call. Workers sleep on a condition variable between batches;
/// wake-up cost is paid once per run(), not per task, which is why PbdDc
/// dispatches one gang per batch rather than one task per op run.
///
/// run() is not reentrant and not thread-safe: one fork-join at a time,
/// owned by whoever synchronizes callers (PbdDc's batch mutex).
class TaskPool {
 public:
  /// `workers` = total gang size including the caller; 0 picks the
  /// DC_PBD_WORKERS default (env_workers()).
  explicit TaskPool(unsigned workers = 0)
      : total_(workers == 0 ? env_workers() : workers) {}

  ~TaskPool() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    cv_work_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  unsigned workers() const noexcept { return total_; }

  /// Execute body(id) for id in [0, workers()); the caller runs id 0.
  /// Returns after every gang member has finished.
  void run(const std::function<void(unsigned)>& body) {
    if (total_ <= 1) {
      body(0);
      return;
    }
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (threads_.empty()) spawn_locked();
      job_ = &body;
      ++epoch_;
      outstanding_ = static_cast<unsigned>(threads_.size());
    }
    cv_work_.notify_all();
    body(0);
    std::unique_lock<std::mutex> lk(mu_);
    cv_done_.wait(lk, [this] { return outstanding_ == 0; });
    job_ = nullptr;
  }

 private:
  /// Gang size from DC_PBD_WORKERS, falling back to the hardware
  /// concurrency clamped to [1, 8] — beyond that the guarded net-op phase
  /// is contention-bound, not core-bound.
  static unsigned env_workers() {
    if (const char* s = std::getenv("DC_PBD_WORKERS")) {
      const long v = std::strtol(s, nullptr, 10);
      if (v >= 1 && v <= 64) return static_cast<unsigned>(v);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : (hw > 8 ? 8 : hw);
  }

  void spawn_locked() {
    threads_.reserve(total_ - 1);
    for (unsigned id = 1; id < total_; ++id) {
      threads_.emplace_back([this, id] { worker_loop(id); });
    }
  }

  void worker_loop(unsigned id) {
    uint64_t seen = 0;
    for (;;) {
      const std::function<void(unsigned)>* job;
      {
        std::unique_lock<std::mutex> lk(mu_);
        cv_work_.wait(lk, [&] { return stop_ || epoch_ != seen; });
        if (stop_) return;
        seen = epoch_;
        job = job_;
      }
      (*job)(id);
      {
        std::lock_guard<std::mutex> lk(mu_);
        if (--outstanding_ == 0) cv_done_.notify_one();
      }
    }
  }

  const unsigned total_;
  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  std::vector<std::thread> threads_;
  const std::function<void(unsigned)>* job_ = nullptr;
  uint64_t epoch_ = 0;
  unsigned outstanding_ = 0;
  bool stop_ = false;
};

}  // namespace condyn
