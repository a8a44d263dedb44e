// Batch-pipeline coverage: apply_batch on every registered variant must be
// equivalent to applying the ops in index order, cross-checked against the
// sequential DSU oracle (tests/query_oracle.hpp) — including mixed batches
// over the full value-returning vocabulary, duplicate edges inside one
// batch, self-loops, and pure-read batches — and the registry's capability
// flags must match observable behavior.
#include <gtest/gtest.h>

#include <set>
#include <thread>
#include <vector>

#include "api/factory.hpp"
#include "query_oracle.hpp"
#include "util/random.hpp"

namespace condyn {
namespace {

using testing_oracle = condyn::testutil::QueryOracle;

std::vector<Op> random_program(Vertex n, int len, uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<Op> ops;
  ops.reserve(len);
  for (int i = 0; i < len; ++i) {
    const Vertex a = static_cast<Vertex>(rng.next_below(n));
    const Vertex b = static_cast<Vertex>(rng.next_below(n));  // loops allowed
    switch (rng.next_below(5)) {
      case 0:
        ops.push_back(Op::add(a, b));
        break;
      case 1:
        ops.push_back(Op::remove(a, b));
        break;
      case 2:
        ops.push_back(Op::component_size(a));
        break;
      case 3:
        ops.push_back(Op::representative(a));
        break;
      default:
        ops.push_back(Op::connected(a, b));
    }
  }
  return ops;
}

class BatchVariants : public ::testing::TestWithParam<int> {};

TEST_P(BatchVariants, MixedBatchesMatchDsuOracle) {
  const Vertex n = 40;
  auto dc = make_variant(GetParam(), n);
  testing_oracle oracle(n);
  const std::vector<Op> program = random_program(n, 1200, 29);
  // Sweep batch sizes, including 1 (degenerate) and a size that does not
  // divide the program length (remainder batch).
  std::size_t pos = 0;
  const std::size_t sizes[] = {1, 3, 17, 64, 256};
  std::size_t si = 0;
  while (pos < program.size()) {
    const std::size_t bs = std::min(sizes[si % std::size(sizes)],
                                    program.size() - pos);
    si++;
    const std::span<const Op> batch(&program[pos], bs);
    const BatchResult r = dc->apply_batch(batch);
    ASSERT_EQ(r.size(), bs);
    uint64_t adds = 0, removes = 0, queries = 0;
    for (std::size_t i = 0; i < bs; ++i) {
      const uint64_t expected = oracle.apply(batch[i]);
      EXPECT_EQ(r.value(i), expected)
          << "op " << pos + i << " kind " << static_cast<int>(batch[i].kind)
          << " (" << batch[i].u << "," << batch[i].v << ")";
      if (r.value(i) != 0) {
        switch (batch[i].kind) {
          case OpKind::kAdd: ++adds; break;
          case OpKind::kRemove: ++removes; break;
          case OpKind::kConnected: ++queries; break;
          default: break;  // value kinds carry no summary counter
        }
      }
    }
    EXPECT_EQ(r.adds_performed, adds);
    EXPECT_EQ(r.removes_performed, removes);
    EXPECT_EQ(r.queries_true, queries);
    pos += bs;
  }
}

TEST_P(BatchVariants, DuplicateEdgesWithinOneBatch) {
  auto dc = make_variant(GetParam(), 8);
  const std::vector<Op> batch = {
      Op::add(1, 2),            // performed
      Op::add(2, 1),            // canonical duplicate -> false
      Op::connected(1, 2),      // true
      Op::component_size(2),    // {1, 2} -> 2
      Op::representative(2),    // min member -> 1
      Op::remove(1, 2),         // performed
      Op::remove(1, 2),         // already gone -> false
      Op::add(1, 2),            // re-add -> performed
      Op::add(3, 3),            // self-loop -> false
      Op::connected(1, 2),      // true again
      Op::connected(1, 3),      // false
      Op::component_size(3),    // isolated -> 1
      Op::representative(3),    // itself
  };
  const BatchResult r = dc->apply_batch(batch);
  const std::vector<uint64_t> expected = {1, 0, 1, 2, 1, 1, 0, 1, 0, 1, 0,
                                          1, 3};
  EXPECT_EQ(r.values, expected);
  EXPECT_EQ(r.adds_performed, 2u);
  EXPECT_EQ(r.removes_performed, 1u);
  EXPECT_EQ(r.queries_true, 2u);
}

TEST_P(BatchVariants, AdversarialSameEdgeChurnMatchesSequentialFallback) {
  // The pbd preprocessing pin (ISSUE 7): duplicate same-edge add/remove
  // pairs inside one batch — with queries interleaved as reorder barriers —
  // must produce exactly the BatchResult of the sequential fallback loop.
  // A tiny edge universe makes every batch repeat the same few edges many
  // times, so cancellation, re-toggling across query barriers, self-loops
  // and duplicate adds all occur constantly; checked against a twin
  // instance driven through the single-op API and against the DSU oracle.
  const Vertex n = 8;
  auto dc = make_variant(GetParam(), n);
  auto seq = make_variant(GetParam(), n);
  testing_oracle oracle(n);
  Xoshiro256 rng(233);
  const std::pair<Vertex, Vertex> universe[] = {
      {0, 1}, {1, 2}, {0, 2}, {2, 3}, {4, 5}, {3, 3}};
  for (int round = 0; round < 24; ++round) {
    std::vector<Op> batch;
    const std::size_t len = 48 + rng.next_below(160);
    for (std::size_t i = 0; i < len; ++i) {
      const auto [a, b] = universe[rng.next_below(std::size(universe))];
      switch (rng.next_below(10)) {
        case 0: batch.push_back(Op::connected(a, b)); break;
        case 1: batch.push_back(Op::component_size(a)); break;
        case 2: batch.push_back(Op::representative(b)); break;
        default:
          batch.push_back(rng.next_below(2) ? Op::add(a, b)
                                            : Op::remove(a, b));
      }
    }
    const BatchResult r = dc->apply_batch(batch);
    ASSERT_EQ(r.size(), batch.size());
    uint64_t adds = 0, removes = 0, queries = 0;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const uint64_t fallback = exec_single(*seq, batch[i]);
      ASSERT_EQ(r.value(i), fallback)
          << "round " << round << " op " << i << " kind "
          << static_cast<int>(batch[i].kind) << " (" << batch[i].u << ","
          << batch[i].v << ")";
      ASSERT_EQ(fallback, oracle.apply(batch[i]));
      if (fallback != 0) {
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
  }
}

TEST_P(BatchVariants, EmptyAndPureReadBatches) {
  auto dc = make_variant(GetParam(), 8);
  EXPECT_EQ(dc->apply_batch({}).size(), 0u);
  dc->add_edge(0, 1);
  dc->add_edge(1, 2);
  // Pure-read batches now mix the whole query vocabulary and must still hit
  // the variants' pure-read exemption (no update synchronization).
  const std::vector<Op> reads = {Op::connected(0, 2), Op::connected(0, 3),
                                 Op::connected(4, 4), Op::component_size(1),
                                 Op::representative(2)};
  const BatchResult r = dc->apply_batch(reads);
  const std::vector<uint64_t> expected = {1, 0, 1, 3, 0};
  EXPECT_EQ(r.values, expected);
  EXPECT_EQ(r.queries_true, 2u);
}

TEST_P(BatchVariants, ConcurrentDisjointRegionBatches) {
  // Workers submit batches over disjoint vertex regions; per-op results must
  // match a per-region sequential oracle regardless of interleaving, for
  // every variant (batched paths must not break cross-thread safety).
  const Vertex kRegion = 24;
  const unsigned kWorkers = 3;
  auto dc = make_variant(GetParam(), kRegion * kWorkers);
  std::vector<std::vector<std::string>> errors(kWorkers);
  std::vector<std::thread> workers;
  for (unsigned w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      testing_oracle oracle(kRegion * kWorkers);
      std::vector<Op> program = random_program(kRegion, 600, 101 + w);
      for (Op& op : program) {  // shift into this worker's region
        op.u += w * kRegion;
        op.v += w * kRegion;
      }
      // Shift the oracle too: component sizes / representatives are
      // region-absolute (representatives name real vertex ids).
      for (std::size_t pos = 0; pos < program.size(); pos += 50) {
        const std::span<const Op> batch(&program[pos], 50);
        const BatchResult r = dc->apply_batch(batch);
        for (std::size_t i = 0; i < batch.size(); ++i) {
          if (r.value(i) != oracle.apply(batch[i])) {
            errors[w].push_back("mismatch at op " + std::to_string(pos + i));
          }
        }
      }
    });
  }
  for (auto& t : workers) t.join();
  for (unsigned w = 0; w < kWorkers; ++w) {
    EXPECT_TRUE(errors[w].empty())
        << "worker " << w << ": " << errors[w].front();
  }
}

TEST(BatchRegistry, CapsAreDeclaredForBuiltins) {
  for (const VariantInfo& v : all_variants()) {
    EXPECT_TRUE(static_cast<bool>(v.make)) << v.name;
  }
  // Spot-check flags the harness branches on.
  EXPECT_TRUE(find_variant("coarse")->caps.atomic_batch);
  EXPECT_FALSE(find_variant("coarse")->caps.lock_free_reads);
  EXPECT_TRUE(find_variant("full")->caps.lock_free_reads);
  EXPECT_FALSE(find_variant("full")->caps.atomic_batch);
  EXPECT_TRUE(find_variant("fc-nbreads")->caps.combining);
  EXPECT_TRUE(find_variant("parallel-combining")->caps.atomic_batch);
  EXPECT_TRUE(find_variant("pbd")->caps.internal_parallel);
  EXPECT_TRUE(find_variant("pbd")->caps.atomic_batch);
  EXPECT_FALSE(find_variant("parallel-combining")->caps.internal_parallel);
}

INSTANTIATE_TEST_SUITE_P(AllVariants, BatchVariants,
                         ::testing::Range(1, 15),
                         [](const ::testing::TestParamInfo<int>& info) {
                           std::string n = all_variants()[info.param - 1].name;
                           for (char& c : n)
                             if (c == '-') c = '_';
                           return n;
                         });

}  // namespace
}  // namespace condyn
