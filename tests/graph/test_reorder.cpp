#include "graph/reorder.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <utility>

#include "graph/builder.hpp"
#include "graph/gen/powerlaw.hpp"
#include "graph/gen/special.hpp"
#include "graph/gen/suite.hpp"
#include "graph/stats.hpp"

namespace gcg {
namespace {

/// Check that `h` is exactly `g` relabeled through perm.
void expect_isomorphic_via(const Csr& g, const Csr& h,
                           const std::vector<vid_t>& perm) {
  ASSERT_EQ(g.num_vertices(), h.num_vertices());
  ASSERT_EQ(g.num_arcs(), h.num_arcs());
  for (vid_t u = 0; u < g.num_vertices(); ++u) {
    std::set<vid_t> expected;
    for (vid_t v : g.neighbors(u)) expected.insert(perm[v]);
    const auto nb = h.neighbors(perm[u]);
    const std::set<vid_t> actual(nb.begin(), nb.end());
    ASSERT_EQ(expected, actual) << "vertex " << u;
  }
}

TEST(Reorder, NaturalIsIdentity) {
  const Csr g = make_petersen();
  const auto perm = make_order(g, Order::kNatural);
  for (vid_t v = 0; v < 10; ++v) EXPECT_EQ(perm[v], v);
}

class ReorderIsomorphism : public ::testing::TestWithParam<Order> {};

TEST_P(ReorderIsomorphism, PermIsValidAndPreservesStructure) {
  const Csr g = make_barabasi_albert(300, 3, 5);
  const auto perm = make_order(g, GetParam(), 7);
  EXPECT_TRUE(is_permutation(perm, g.num_vertices()));
  const Csr h = apply_order(g, perm);
  expect_isomorphic_via(g, h, perm);
  EXPECT_TRUE(h.is_sorted_unique());
  EXPECT_TRUE(h.is_symmetric());
}

INSTANTIATE_TEST_SUITE_P(
    AllOrders, ReorderIsomorphism,
    ::testing::Values(Order::kNatural, Order::kRandom, Order::kDegreeDescending,
                      Order::kDegreeAscending, Order::kBfs, Order::kRcm),
    [](const auto& info) {
      std::string n = order_name(info.param);
      for (auto& c : n) {
        if (c == '-') c = '_';
      }
      return n;
    });

TEST(Reorder, DegreeDescendingSortsDegrees) {
  const Csr g = make_barabasi_albert(200, 2, 3);
  const Csr h = reorder(g, Order::kDegreeDescending);
  for (vid_t v = 1; v < h.num_vertices(); ++v) {
    ASSERT_GE(h.degree(v - 1), h.degree(v));
  }
}

TEST(Reorder, DegreeAscendingSortsDegrees) {
  const Csr g = make_barabasi_albert(200, 2, 3);
  const Csr h = reorder(g, Order::kDegreeAscending);
  for (vid_t v = 1; v < h.num_vertices(); ++v) {
    ASSERT_LE(h.degree(v - 1), h.degree(v));
  }
}

TEST(Reorder, RandomIsSeedDeterministic) {
  const Csr g = make_barabasi_albert(100, 2, 1);
  EXPECT_EQ(make_order(g, Order::kRandom, 5), make_order(g, Order::kRandom, 5));
  EXPECT_NE(make_order(g, Order::kRandom, 5), make_order(g, Order::kRandom, 6));
}

TEST(Reorder, BfsVisitsComponentContiguously) {
  // Two disjoint paths: BFS order must not interleave components.
  GraphBuilder b(6);
  b.add_edge(0, 2);
  b.add_edge(2, 4);
  b.add_edge(1, 3);
  b.add_edge(3, 5);
  const Csr g = b.build();
  const auto perm = make_order(g, Order::kBfs);
  // Component of 0 = {0,2,4} must occupy new ids {0,1,2}.
  std::set<vid_t> first_component{perm[0], perm[2], perm[4]};
  EXPECT_EQ(first_component, (std::set<vid_t>{0, 1, 2}));
}

TEST(Reorder, RcmReducesBandwidthOnPath) {
  // A path relabeled randomly has large bandwidth; RCM restores ~1.
  const Csr scrambled = reorder(make_path(64), Order::kRandom, 99);
  auto bandwidth = [](const Csr& g) {
    std::int64_t bw = 0;
    for (vid_t u = 0; u < g.num_vertices(); ++u) {
      for (vid_t v : g.neighbors(u)) {
        bw = std::max<std::int64_t>(bw, std::abs(static_cast<std::int64_t>(u) -
                                                 static_cast<std::int64_t>(v)));
      }
    }
    return bw;
  };
  const Csr fixed = reorder(scrambled, Order::kRcm);
  EXPECT_GT(bandwidth(scrambled), 8);
  EXPECT_LE(bandwidth(fixed), 2);
}

TEST(Reorder, IsPermutationRejectsBadInputs) {
  EXPECT_FALSE(is_permutation({0, 0}, 2));    // duplicate
  EXPECT_FALSE(is_permutation({0, 2}, 2));    // out of range
  EXPECT_FALSE(is_permutation({0}, 2));       // wrong size
  EXPECT_TRUE(is_permutation({1, 0}, 2));
}

TEST(Reorder, OrderNamesRoundTrip) {
  for (Order o : {Order::kNatural, Order::kRandom, Order::kDegreeDescending,
                  Order::kDegreeAscending, Order::kBfs, Order::kRcm}) {
    EXPECT_EQ(order_from_name(order_name(o)), o);
  }
  EXPECT_THROW(order_from_name("bogus"), std::invalid_argument);
}

// --- Differential check against the comparison-sort relabeling -------
// make_order's degree orders are a counting sort and apply_order is a
// sort-free scatter. The references below are the comparison-sort
// versions they replaced; every other order's make_order is unchanged,
// so the reference delegates to it.

constexpr Order kAllOrders[] = {Order::kNatural,          Order::kRandom,
                                Order::kDegreeDescending, Order::kDegreeAscending,
                                Order::kBfs,              Order::kRcm};

std::vector<vid_t> reference_make_order(const Csr& g, Order o,
                                        std::uint64_t seed) {
  if (o != Order::kDegreeDescending && o != Order::kDegreeAscending) {
    return make_order(g, o, seed);
  }
  std::vector<vid_t> visit(g.num_vertices());
  std::iota(visit.begin(), visit.end(), vid_t{0});
  const bool desc = (o == Order::kDegreeDescending);
  std::stable_sort(visit.begin(), visit.end(), [&](vid_t a, vid_t b) {
    return desc ? g.degree(a) > g.degree(b) : g.degree(a) < g.degree(b);
  });
  std::vector<vid_t> perm(visit.size());
  for (vid_t k = 0; k < visit.size(); ++k) perm[visit[k]] = k;
  return perm;
}

/// Row v of the result is old row perm^-1(v), mapped and sorted.
Csr reference_apply_order(const Csr& g, const std::vector<vid_t>& perm) {
  const vid_t n = g.num_vertices();
  std::vector<eid_t> rows(std::size_t{n} + 1, 0);
  for (vid_t v = 0; v < n; ++v) rows[perm[v] + 1] = g.degree(v);
  for (std::size_t i = 1; i < rows.size(); ++i) rows[i] += rows[i - 1];
  std::vector<vid_t> cols(g.num_arcs());
  for (vid_t v = 0; v < n; ++v) {
    const auto row = cols.begin() + to_signed(rows[perm[v]]);
    std::vector<vid_t> mapped;
    for (vid_t u : g.neighbors(v)) mapped.push_back(perm[u]);
    std::sort(mapped.begin(), mapped.end());
    std::copy(mapped.begin(), mapped.end(), row);
  }
  return Csr(std::move(rows), std::move(cols));
}

void expect_same_arrays(const Csr& expected, const Csr& actual) {
  const auto er = expected.row_offsets();
  const auto ar = actual.row_offsets();
  ASSERT_TRUE(std::equal(er.begin(), er.end(), ar.begin(), ar.end()));
  const auto ec = expected.col_indices();
  const auto ac = actual.col_indices();
  ASSERT_TRUE(std::equal(ec.begin(), ec.end(), ac.begin(), ac.end()));
}

/// Asserts make_order and apply_order equal the references, bit for bit.
void expect_matches_reference(const Csr& g, Order o, std::uint64_t seed) {
  SCOPED_TRACE(order_name(o));
  const std::vector<vid_t> perm = make_order(g, o, seed);
  ASSERT_EQ(perm, reference_make_order(g, o, seed));
  expect_same_arrays(reference_apply_order(g, perm), apply_order(g, perm));
}

class ReorderDifferential : public ::testing::TestWithParam<std::string> {};

TEST_P(ReorderDifferential, EqualsSortBasedReferenceForEveryOrder) {
  for (const double scale : {0.02, 0.05}) {
    for (const std::uint64_t seed : {1u, 2u}) {
      const Csr g = make_suite_graph(GetParam(), {scale, seed}).graph;
      SCOPED_TRACE(::testing::Message() << "scale " << scale << " seed " << seed);
      for (const Order o : kAllOrders) expect_matches_reference(g, o, seed);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Suite, ReorderDifferential, ::testing::ValuesIn(suite_names()),
    [](const ::testing::TestParamInfo<std::string>& param) {
      std::string n = param.param;
      std::replace(n.begin(), n.end(), '-', '_');
      return n;
    });

TEST(ReorderEdgeCases, EmptyAndSingleVertexGraphs) {
  for (const vid_t n : {0u, 1u}) {
    const Csr g = make_empty(n);
    for (const Order o : kAllOrders) {
      expect_matches_reference(g, o, 3);
      EXPECT_EQ(reorder(g, o).num_vertices(), n);
    }
  }
}

TEST(ReorderEdgeCases, IsolatedVertices) {
  GraphBuilder b(9);
  b.add_edge(2, 5);
  b.add_edge(5, 7);
  const Csr g = b.build();
  for (const Order o : kAllOrders) expect_matches_reference(g, o, 3);
}

TEST(ReorderEdgeCases, EqualDegreesKeepAscendingIds) {
  // Every vertex of a cycle has degree 2, so both degree orders are the
  // identity: the tie order is ascending id, as a stable sort gives.
  const Csr g = make_cycle(17);
  for (const Order o : {Order::kDegreeDescending, Order::kDegreeAscending}) {
    const std::vector<vid_t> perm = make_order(g, o);
    for (vid_t v = 0; v < g.num_vertices(); ++v) ASSERT_EQ(perm[v], v);
  }
  for (const Order o : kAllOrders) expect_matches_reference(g, o, 3);
}

TEST(ReorderEdgeCases, StarHubRow) {
  const Csr g = make_star(300);
  EXPECT_EQ(make_order(g, Order::kDegreeDescending)[0], 0u);
  EXPECT_EQ(make_order(g, Order::kDegreeAscending)[0], 300u);
  for (const Order o : kAllOrders) expect_matches_reference(g, o, 3);
}

TEST(ReorderEdgeCases, AsymmetricInputYieldsTheRelabeledTranspose) {
  // Vertex 0 has four out-arcs and no in-arc; vertex 4 has no out-arc
  // and three in-arcs. Row sizes taken from out-degrees would overflow
  // row perm[4]; the scatter sizes rows by in-degree instead.
  const Csr g({0, 4, 5, 6, 6, 6}, {1, 2, 3, 4, 4, 4});
  const std::vector<vid_t> perm = {3, 0, 4, 1, 2};
  const Csr h = apply_order(g, perm);
  ASSERT_NO_THROW(h.validate());
  EXPECT_TRUE(h.is_sorted_unique());
  std::vector<std::vector<vid_t>> expected(g.num_vertices());
  for (vid_t u = 0; u < g.num_vertices(); ++u) {
    for (vid_t w : g.neighbors(u)) expected[perm[w]].push_back(perm[u]);
  }
  ASSERT_EQ(h.num_arcs(), g.num_arcs());
  for (vid_t x = 0; x < h.num_vertices(); ++x) {
    std::sort(expected[x].begin(), expected[x].end());
    const auto row = h.neighbors(x);
    EXPECT_EQ(std::vector<vid_t>(row.begin(), row.end()), expected[x])
        << "row " << x;
  }
}

}  // namespace
}  // namespace gcg
