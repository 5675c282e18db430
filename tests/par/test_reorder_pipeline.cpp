// The reorder-aware pipeline in run_par_coloring: preprocessing orders
// must come back unmapped to the caller's vertex ids (valid on the
// ORIGINAL graph), JPL must stay bit-identical across thread counts
// within each order, and the pipeline must equal the obvious two-step
// (reorder by hand, color, unmap by hand) computation.
#include <gtest/gtest.h>

#include <vector>

#include "check/coloring.hpp"
#include "graph/gen/powerlaw.hpp"
#include "graph/gen/random.hpp"
#include "graph/reorder.hpp"
#include "par/runner.hpp"

namespace gcg {
namespace {

constexpr Order kOrders[] = {Order::kNatural, Order::kDegreeDescending,
                             Order::kRcm};

par::ParOptions opts_for(Order order, unsigned threads,
                         std::uint64_t seed = 1) {
  par::ParOptions o;
  o.order = order;
  o.threads = threads;
  o.seed = seed;
  return o;
}

TEST(ReorderPipelineTest, ColorsAreValidOnTheOriginalGraph) {
  const Csr g = make_rmat(11, 8, {}, 17);
  for (Order order : {Order::kDegreeDescending, Order::kDegreeAscending,
                      Order::kBfs, Order::kRcm, Order::kRandom}) {
    for (par::ParAlgorithm algo : par::all_par_algorithms()) {
      const par::ParRun run =
          par::run_par_coloring(g, algo, opts_for(order, 4));
      EXPECT_TRUE(check::is_valid_coloring(g, run.colors))
          << order_name(order) << "/" << par_algorithm_name(algo);
      EXPECT_EQ(run.colors.size(), g.num_vertices());
      EXPECT_EQ(run.num_colors, count_colors(run.colors))
          << order_name(order) << "/" << par_algorithm_name(algo);
      EXPECT_EQ(run.order, order);
      EXPECT_GE(run.reorder_ms, 0.0);
    }
  }
}

TEST(ReorderPipelineTest, NaturalOrderReportsNoReorderCost) {
  const Csr g = make_erdos_renyi_gnm(2000, 12000, 3);
  const par::ParRun run = par::run_par_coloring(
      g, par::ParAlgorithm::kJpl, opts_for(Order::kNatural, 2));
  EXPECT_EQ(run.order, Order::kNatural);
  EXPECT_EQ(run.reorder_ms, 0.0);
}

TEST(ReorderPipelineTest, PipelineEqualsManualReorderColorUnmap) {
  // Round-trip property: the pipeline's output at vertex v must be what a
  // natural-order run on the hand-relabeled graph assigns to perm[v] (JPL
  // is deterministic, so this is an exact equality, not just same count).
  const Csr g = make_rmat(10, 8, {}, 23);
  for (Order order : {Order::kDegreeDescending, Order::kRcm, Order::kBfs}) {
    const std::vector<vid_t> perm = make_order(g, order, 1);
    const Csr relabeled = apply_order(g, perm);

    const par::ParRun direct = par::run_par_coloring(
        relabeled, par::ParAlgorithm::kJpl, opts_for(Order::kNatural, 2));
    const par::ParRun piped = par::run_par_coloring(
        g, par::ParAlgorithm::kJpl, opts_for(order, 2));

    ASSERT_EQ(piped.colors.size(), g.num_vertices());
    EXPECT_EQ(piped.num_colors, direct.num_colors) << order_name(order);
    for (vid_t v = 0; v < g.num_vertices(); ++v) {
      ASSERT_EQ(piped.colors[v], direct.colors[perm[v]])
          << order_name(order) << " vertex " << v;
    }
  }
}

TEST(ReorderPipelineTest, JplBitIdenticalAcrossThreadsAndSimdLevels) {
  // Within one order the thread count may not change a single color: JPL
  // is deterministic for any worker count.
  const Csr g = make_rmat(11, 8, {}, 99);
  for (Order order : kOrders) {
    const par::ParRun ref =
        par::run_par_coloring(g, par::ParAlgorithm::kJpl, opts_for(order, 1));
    ASSERT_TRUE(check::is_valid_coloring(g, ref.colors)) << order_name(order);

    for (unsigned threads : {1u, 2u, 8u}) {
      const par::ParRun run = par::run_par_coloring(
          g, par::ParAlgorithm::kJpl, opts_for(order, threads));
      EXPECT_EQ(run.colors, ref.colors) << order_name(order) << "/" << threads
                                        << "t";
      EXPECT_EQ(run.iterations, ref.iterations)
          << order_name(order) << "/" << threads << "t";
    }
  }
}

TEST(ReorderPipelineTest, RandomOrderIsSeedDeterministic) {
  const Csr g = make_erdos_renyi_gnm(3000, 18000, 11);
  const par::ParRun a = par::run_par_coloring(
      g, par::ParAlgorithm::kJpl, opts_for(Order::kRandom, 2, 42));
  const par::ParRun b = par::run_par_coloring(
      g, par::ParAlgorithm::kJpl, opts_for(Order::kRandom, 2, 42));
  EXPECT_EQ(a.colors, b.colors);
}

}  // namespace
}  // namespace gcg
