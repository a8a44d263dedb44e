// Factory coverage: all 14 variants (13 paper combinations + the pbd family)
// are constructible by id and name, expose consistent metadata, and agree
// with a DSU oracle on a randomized sequential workload — the cross-variant
// semantic equivalence check.
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

#include "api/factory.hpp"
#include "graph/dsu.hpp"
#include "util/random.hpp"

namespace condyn {
namespace {

TEST(Factory, FourteenVariantsEnumerated) {
  const auto& vs = all_variants();
  ASSERT_EQ(vs.size(), 14u);
  for (std::size_t i = 0; i < vs.size(); ++i) {
    EXPECT_EQ(vs[i].id, static_cast<int>(i) + 1);
    EXPECT_NE(vs[i].name, nullptr);
    EXPECT_NE(vs[i].description, nullptr);
  }
  std::set<std::string> names;
  for (const auto& v : vs) names.insert(v.name);
  EXPECT_EQ(names.size(), 14u) << "variant names must be unique";
}

TEST(Factory, ConstructByIdMatchesName) {
  for (const auto& v : all_variants()) {
    auto by_id = make_variant(v.id, 16);
    auto by_name = make_variant(std::string(v.name), 16);
    EXPECT_EQ(by_id->name(), v.name);
    EXPECT_EQ(by_name->name(), v.name);
    EXPECT_EQ(by_id->num_vertices(), 16u);
  }
}

TEST(Factory, UnknownVariantThrows) {
  EXPECT_THROW(make_variant(0, 8), std::invalid_argument);
  EXPECT_THROW(make_variant(15, 8), std::invalid_argument);
  EXPECT_THROW(make_variant("no-such-algo", 8), std::invalid_argument);
}

TEST(Factory, RegistryLookupsAgreeWithEnumeration) {
  for (const auto& v : all_variants()) {
    EXPECT_EQ(find_variant(v.id), &v);
    EXPECT_EQ(find_variant(std::string(v.name)), &v);
  }
  EXPECT_EQ(find_variant("no-such-algo"), nullptr);
  EXPECT_EQ(find_variant(0), nullptr);
  EXPECT_EQ(find_variant(15), nullptr);
}

class FactoryVariants : public ::testing::TestWithParam<int> {};

TEST_P(FactoryVariants, SequentialOracleAgreement) {
  const Vertex n = 48;
  auto dc = make_variant(GetParam(), n);
  Xoshiro256 rng(17);
  std::set<Edge> present;
  for (int op = 0; op < 1500; ++op) {
    const Vertex a = static_cast<Vertex>(rng.next_below(n));
    Vertex b = static_cast<Vertex>(rng.next_below(n));
    if (a == b) b = (b + 1) % n;
    const Edge e(a, b);
    switch (rng.next_below(3)) {
      case 0:
        EXPECT_EQ(dc->add_edge(a, b), present.insert(e).second) << "op " << op;
        break;
      case 1:
        EXPECT_EQ(dc->remove_edge(a, b), present.erase(e) != 0) << "op " << op;
        break;
      default: {
        Dsu oracle(n);
        for (const Edge& pe : present) oracle.unite(pe.u, pe.v);
        EXPECT_EQ(dc->connected(a, b), oracle.connected(a, b)) << "op " << op;
      }
    }
  }
}

TEST_P(FactoryVariants, SelfLoopAndDuplicateSemantics) {
  auto dc = make_variant(GetParam(), 8);
  EXPECT_FALSE(dc->add_edge(3, 3));
  EXPECT_TRUE(dc->add_edge(1, 2));
  EXPECT_FALSE(dc->add_edge(2, 1));  // canonical duplicate
  EXPECT_TRUE(dc->remove_edge(1, 2));
  EXPECT_FALSE(dc->remove_edge(1, 2));
  EXPECT_TRUE(dc->connected(5, 5));
  EXPECT_FALSE(dc->connected(5, 6));
}

TEST_P(FactoryVariants, SamplingOffStillCorrect) {
  // The Iyer-et-al. sampling heuristic is a performance feature; with it
  // disabled (the ablation configuration) semantics must be unchanged.
  const Vertex n = 24;
  auto dc = make_variant(GetParam(), n, /*sampling=*/false);
  for (Vertex i = 0; i < n; ++i) dc->add_edge(i, (i + 1) % n);  // ring
  for (Vertex i = 0; i + 2 < n; i += 2) dc->add_edge(i, i + 2);  // chords
  for (Vertex i = 0; i + 1 < n / 2; ++i) {
    EXPECT_TRUE(dc->remove_edge(i, i + 1));
    EXPECT_TRUE(dc->connected(0, n - 1));
  }
}

INSTANTIATE_TEST_SUITE_P(AllVariants, FactoryVariants, ::testing::Range(1, 15),
                         [](const ::testing::TestParamInfo<int>& info) {
                           std::string n = all_variants()[info.param - 1].name;
                           for (char& c : n)
                             if (c == '-') c = '_';
                           return n;
                         });

}  // namespace
}  // namespace condyn
