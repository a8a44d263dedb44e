// pbd (variant 14) coverage: the TaskPool fork-join primitive, the
// internally parallel apply_batch pipeline with the worker gang *forced on*
// (tiny fan-out cutoffs — the registry default on a small machine would
// otherwise run the sequential residue only), and concurrent apply_batch
// callers checked against the DSU oracle after quiesce. The whole file runs
// under the CI TSan job.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "api/factory.hpp"
#include "core/batch_runs.hpp"
#include "core/pbd_dc.hpp"
#include "graph/dsu.hpp"
#include "query_oracle.hpp"
#include "util/random.hpp"
#include "util/task_pool.hpp"

namespace condyn {
namespace {

using testing_oracle = condyn::testutil::QueryOracle;

// ---------------------------------------------------------------------------
// TaskPool
// ---------------------------------------------------------------------------

TEST(TaskPool, GangRunsEveryIdAndIsReusable) {
  TaskPool pool(4);
  EXPECT_EQ(pool.workers(), 4u);
  for (int round = 0; round < 64; ++round) {
    std::atomic<uint32_t> mask{0};
    std::atomic<unsigned> count{0};
    pool.run([&](unsigned id) {
      mask.fetch_or(1u << id);
      count.fetch_add(1);
    });
    EXPECT_EQ(mask.load(), 0xfu);
    EXPECT_EQ(count.load(), 4u);
  }
}

TEST(TaskPool, SizeOneRunsInlineOnTheCaller) {
  TaskPool pool(1);
  EXPECT_EQ(pool.workers(), 1u);
  std::thread::id ran_on;
  pool.run([&](unsigned id) {
    EXPECT_EQ(id, 0u);
    ran_on = std::this_thread::get_id();
  });
  EXPECT_EQ(ran_on, std::this_thread::get_id());
}

TEST(TaskPool, BarrierKeepsAGangInLockstep) {
  constexpr unsigned kGang = 4;
  TaskPool pool(kGang);
  SpinBarrier barrier(kGang);
  std::atomic<int> phase_sum{0};
  pool.run([&](unsigned) {
    for (int phase = 1; phase <= 8; ++phase) {
      barrier.arrive_and_wait();
      phase_sum.fetch_add(phase);
      barrier.arrive_and_wait();
      // Between the exit and the next entry barrier the sum is exact: every
      // member contributed every completed phase.
      EXPECT_EQ(phase_sum.load(),
                static_cast<int>(kGang) * phase * (phase + 1) / 2);
    }
  });
  EXPECT_EQ(phase_sum.load(), static_cast<int>(kGang) * (8 * 9) / 2);
}

// ---------------------------------------------------------------------------
// Forced-parallel sequential equivalence
// ---------------------------------------------------------------------------

std::vector<Op> mixed_program(Vertex n, int len, int update_percent,
                              uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<Op> ops;
  ops.reserve(len);
  for (int i = 0; i < len; ++i) {
    const Vertex a = static_cast<Vertex>(rng.next_below(n));
    const Vertex b = static_cast<Vertex>(rng.next_below(n));  // loops allowed
    if (rng.next_below(100) < static_cast<uint64_t>(update_percent)) {
      ops.push_back(rng.next_below(2) ? Op::add(a, b) : Op::remove(a, b));
    } else {
      switch (rng.next_below(3)) {
        case 0: ops.push_back(Op::component_size(a)); break;
        case 1: ops.push_back(Op::representative(a)); break;
        default: ops.push_back(Op::connected(a, b));
      }
    }
  }
  return ops;
}

void check_against_oracle(PbdDc& dc, std::span<const Op> program,
                          std::size_t batch_size) {
  testing_oracle oracle(dc.num_vertices());
  std::size_t pos = 0;
  while (pos < program.size()) {
    const std::size_t bs = std::min(batch_size, program.size() - pos);
    const std::span<const Op> batch(&program[pos], bs);
    const BatchResult r = dc.apply_batch(batch);
    ASSERT_EQ(r.size(), bs);
    uint64_t adds = 0, removes = 0, queries = 0;
    for (std::size_t i = 0; i < bs; ++i) {
      const uint64_t expected = oracle.apply(batch[i]);
      ASSERT_EQ(r.value(i), expected)
          << "op " << pos + i << " kind " << static_cast<int>(batch[i].kind)
          << " (" << batch[i].u << "," << batch[i].v << ")";
      if (expected != 0) {
        switch (batch[i].kind) {
          case OpKind::kAdd: ++adds; break;
          case OpKind::kRemove: ++removes; break;
          case OpKind::kConnected: ++queries; break;
          default: break;
        }
      }
    }
    EXPECT_EQ(r.adds_performed, adds);
    EXPECT_EQ(r.removes_performed, removes);
    EXPECT_EQ(r.queries_true, queries);
    pos += bs;
  }
  dc.engine().check_invariants();
}

TEST(PbdGang, UpdateHeavyBatchesMatchOracleWithForcedFanOut) {
  const Vertex n = 64;
  // Gang of 4 with fan-out cutoffs of 1: every surviving run and every
  // query stretch goes through the barrier-and-stripe parallel path.
  PbdDc dc(n, "pbd", true, /*workers=*/4, /*par_read_cutoff=*/1,
           /*par_update_cutoff=*/1);
  EXPECT_EQ(dc.workers(), 4u);
  check_against_oracle(dc, mixed_program(n, 4000, 80, 911), 331);
}

TEST(PbdGang, ReadHeavyBatchesMatchOracleWithForcedFanOut) {
  const Vertex n = 64;
  PbdDc dc(n, "pbd", true, /*workers=*/4, /*par_read_cutoff=*/1,
           /*par_update_cutoff=*/1);
  check_against_oracle(dc, mixed_program(n, 4000, 15, 913), 512);
}

TEST(PbdGang, DefaultCutoffsMatchOracleAcrossBatchSizes) {
  const Vertex n = 64;
  PbdDc dc(n, "pbd", true, /*workers=*/3);
  const std::vector<Op> program = mixed_program(n, 3000, 50, 917);
  check_against_oracle(dc, program, 7);
  PbdDc dc2(n, "pbd", true, /*workers=*/3);
  check_against_oracle(dc2, program, 1024);
}

// ---------------------------------------------------------------------------
// Concurrent apply_batch: DSU-oracle equality after quiesce
// ---------------------------------------------------------------------------

// Each submitter owns the edges whose edge_partition_hash lands in its
// partition, so per-edge op order is that thread's submission order even
// though whole batches from different threads interleave. Update return
// values depend only on per-edge history, which makes every thread's values
// deterministic and oracle-checkable *during* the run; the final edge set is
// the union of the per-thread live sets, checked against a DSU at quiesce.
TEST(PbdConcurrent, ConcurrentBatchesMatchDsuOracleAfterQuiesce) {
  const Vertex n = 96;
  constexpr unsigned kThreads = 4;
  constexpr int kBatches = 24;
  constexpr int kBatchLen = 192;
  PbdDc dc(n, "pbd", true, /*workers=*/3, /*par_read_cutoff=*/4,
           /*par_update_cutoff=*/2);

  // Pre-generate each thread's program over its own edge partition, with
  // connected() queries interleaved (their values race and are unchecked).
  std::vector<std::vector<Op>> programs(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    Xoshiro256 rng(1000 + t);
    while (programs[t].size() <
           static_cast<std::size_t>(kBatches * kBatchLen)) {
      const Vertex a = static_cast<Vertex>(rng.next_below(n));
      const Vertex b = static_cast<Vertex>(rng.next_below(n));
      if (rng.next_below(100) < 25) {
        programs[t].push_back(Op::connected(a, b));
        continue;
      }
      if (edge_partition_hash(a, b) % kThreads != t) continue;
      programs[t].push_back(rng.next_below(2) ? Op::add(a, b)
                                              : Op::remove(a, b));
    }
  }

  std::vector<testing_oracle> oracles;
  for (unsigned t = 0; t < kThreads; ++t) oracles.emplace_back(n);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::vector<Op>& prog = programs[t];
      for (int b = 0; b < kBatches; ++b) {
        const std::span<const Op> batch(&prog[b * kBatchLen], kBatchLen);
        const BatchResult r = dc.apply_batch(batch);
        for (int i = 0; i < kBatchLen; ++i) {
          const uint64_t expected = oracles[t].apply(batch[i]);
          if (is_update(batch[i].kind) && r.value(i) != expected) {
            failures.fetch_add(1);
          }
        }
      }
    });
  }
  // Lock-free readers hammer the query vocabulary while batches apply.
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    Xoshiro256 rng(7);
    while (!stop.load(std::memory_order_acquire)) {
      const Vertex a = static_cast<Vertex>(rng.next_below(n));
      const Vertex b = static_cast<Vertex>(rng.next_below(n));
      dc.connected(a, b);
      dc.component_size(a);
      dc.representative(b);
    }
  });
  for (std::thread& th : threads) th.join();
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(failures.load(), 0) << "per-edge update values diverged";

  // Quiesce: union of per-thread live sets vs the structure, via DSU.
  Dsu dsu(n);
  for (const testing_oracle& o : oracles) {
    for (const Edge& e : o.present()) dsu.unite(e.u, e.v);
  }
  for (Vertex u = 0; u < n; ++u) {
    ASSERT_EQ(dc.component_size(u), dsu.component_size(u)) << "vertex " << u;
    ASSERT_EQ(dc.representative(u), dsu.representative(u)) << "vertex " << u;
    for (Vertex v = u + 1; v < n; v += 7) {
      ASSERT_EQ(dc.connected(u, v), dsu.connected(u, v))
          << u << " vs " << v;
    }
  }
  const ComponentsSnapshot snap = dc.components();
  for (Vertex u = 0; u < n; ++u) {
    EXPECT_EQ(snap.labels[u], dsu.representative(u)) << "vertex " << u;
  }
  dc.engine().check_invariants();
}

// ---------------------------------------------------------------------------
// Registry integration
// ---------------------------------------------------------------------------

TEST(PbdRegistry, CapsAreHonest) {
  const VariantInfo* v = find_variant("pbd");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->id, 14);
  EXPECT_TRUE(v->caps.atomic_batch);
  EXPECT_TRUE(v->caps.lock_free_reads);
  EXPECT_TRUE(v->caps.internal_parallel);
  EXPECT_FALSE(v->caps.combining);
  EXPECT_FALSE(v->caps.label_cache);
  // pbd is the only internally parallel batch family (one gang inside the
  // engine).
  for (const VariantInfo& info : all_variants()) {
    if (info.id != v->id) {
      EXPECT_FALSE(info.caps.internal_parallel) << info.name;
    }
  }
}

}  // namespace
}  // namespace condyn
