// End-to-end native backend tests: determinism (fixed seed + 1 thread
// reproduces the sequential reference), an independent JPL oracle
// (first-fit in priority order), parity (valid colorings on the full
// generator suite at several thread counts), and stats plumbing.
#include "par/runner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "coloring/priorities.hpp"
#include "coloring/seq_greedy.hpp"
#include "check/coloring.hpp"
#include "graph/gen/powerlaw.hpp"
#include "graph/gen/special.hpp"
#include "graph/gen/suite.hpp"
#include "par/pool.hpp"

namespace gcg {
namespace {

par::ParOptions opts_with(unsigned threads, std::uint64_t seed = 1) {
  par::ParOptions o;
  o.threads = threads;
  o.seed = seed;
  return o;
}

struct Shape {
  const char* name;
  Csr graph;
};

std::vector<Shape> degenerate_shapes() {
  return {{"petersen", make_petersen()},   {"single", make_empty(1)},
          {"isolated", make_empty(64)},    {"star", make_star(120)},
          {"complete", make_complete(17)}, {"empty", Csr{}}};
}

// --- determinism ------------------------------------------------------------

TEST(ParDeterminismTest, OneThreadSpeculativeEqualsSequentialGreedy) {
  // On one thread the speculative pass sees every earlier assignment, so
  // the whole run degenerates to sequential first-fit in natural order.
  const SuiteOptions sopts{.scale = 0.05, .seed = 3};
  for (const SuiteEntry& entry : make_suite(sopts)) {
    const SeqColoring seq = greedy_color(entry.graph, GreedyOrder::kNatural);
    const par::ParRun run = par::run_par_coloring(
        entry.graph, par::ParAlgorithm::kSpeculative, opts_with(1));
    EXPECT_EQ(run.colors, seq.colors) << entry.name;
    EXPECT_EQ(run.num_colors, seq.num_colors) << entry.name;
  }
}

TEST(ParDeterminismTest, JplNaturalOrderEqualsSequentialGreedyAtAnyThreads) {
  // The classic Jones–Plassmann property: under natural-order priorities
  // a vertex commits only after all lower-id neighbours, so the coloring
  // equals sequential first-fit greedy regardless of the schedule.
  const SuiteOptions sopts{.scale = 0.05, .seed = 2};
  for (const SuiteEntry& entry : make_suite(sopts)) {
    const SeqColoring seq = greedy_color(entry.graph, GreedyOrder::kNatural);
    for (unsigned threads : {1u, 4u}) {
      par::ParOptions o = opts_with(threads);
      o.priority = PriorityMode::kNaturalOrder;
      const par::ParRun run =
          par::run_par_coloring(entry.graph, par::ParAlgorithm::kJpl, o);
      EXPECT_EQ(run.colors, seq.colors) << entry.name << " @" << threads;
    }
  }
}

TEST(ParDeterminismTest, FixedSeedReproducesAcrossRuns) {
  const Csr g = make_barabasi_albert(2000, 4, 17);
  for (par::ParAlgorithm algo : par::all_par_algorithms()) {
    const par::ParRun a = par::run_par_coloring(g, algo, opts_with(3, 42));
    const par::ParRun b = par::run_par_coloring(g, algo, opts_with(3, 42));
    if (algo == par::ParAlgorithm::kSpeculative) {
      // Speculation races are benign but timing-dependent; only the
      // validity is stable. Determinism holds on one thread:
      const par::ParRun c = par::run_par_coloring(g, algo, opts_with(1, 42));
      const par::ParRun d = par::run_par_coloring(g, algo, opts_with(1, 42));
      EXPECT_EQ(c.colors, d.colors);
    } else {
      EXPECT_EQ(a.colors, b.colors) << par_algorithm_name(algo);
      EXPECT_EQ(a.iterations, b.iterations) << par_algorithm_name(algo);
    }
  }
}

TEST(ParDeterminismTest, JplIsThreadCountInvariant) {
  // Round barriers make the ready sets independent of how work is
  // scheduled, so colors must not depend on the thread count.
  const Csr g = make_barabasi_albert(3000, 5, 7);
  const par::ParRun one =
      par::run_par_coloring(g, par::ParAlgorithm::kJpl, opts_with(1, 5));
  const par::ParRun four =
      par::run_par_coloring(g, par::ParAlgorithm::kJpl, opts_with(4, 5));
  EXPECT_EQ(one.colors, four.colors);
  EXPECT_EQ(one.iterations, four.iterations);
}

// --- JPL against an independent sequential oracle ---------------------------

struct JplOracle {
  std::vector<color_t> colors;
  unsigned rounds = 0;  ///< vertices on the longest decreasing-priority path
};

// Sequential first-fit in descending (priority, id) order. A vertex's
// depth is one past the deepest higher-priority neighbour, i.e. the round
// in which Jones–Plassmann selection would pick it.
JplOracle jpl_oracle(const Csr& g, const std::vector<std::uint32_t>& prio) {
  const vid_t n = g.num_vertices();
  std::vector<vid_t> order(n);
  std::iota(order.begin(), order.end(), vid_t{0});
  std::sort(order.begin(), order.end(), [&](vid_t a, vid_t b) {
    return priority_less(prio[b], b, prio[a], a);
  });
  JplOracle out;
  out.colors.assign(n, kUncolored);
  std::vector<unsigned> depth(n, 0);
  for (vid_t v : order) {
    std::vector<bool> used(g.degree(v) + 1, false);
    unsigned deepest = 0;
    for (vid_t u : g.neighbors(v)) {
      if (out.colors[u] == kUncolored) continue;
      if (static_cast<std::size_t>(out.colors[u]) < used.size()) {
        used[static_cast<std::size_t>(out.colors[u])] = true;
      }
      deepest = std::max(deepest, depth[u]);
    }
    const auto free = std::find(used.begin(), used.end(), false);
    out.colors[v] = static_cast<color_t>(free - used.begin());
    depth[v] = deepest + 1;
    out.rounds = std::max(out.rounds, depth[v]);
  }
  return out;
}

void expect_jpl_matches_oracle(const Csr& g, const std::string& name) {
  for (PriorityMode mode :
       {PriorityMode::kRandom, PriorityMode::kDegreeBiased}) {
    const JplOracle ref = jpl_oracle(g, make_priorities(g, mode, 9));
    for (unsigned threads : {1u, 2u, 4u}) {
      par::ParOptions o = opts_with(threads, 9);
      o.priority = mode;
      const par::ParRun run =
          par::run_par_coloring(g, par::ParAlgorithm::kJpl, o);
      EXPECT_EQ(run.colors, ref.colors)
          << name << "/" << priority_mode_name(mode) << " @" << threads;
      EXPECT_EQ(run.iterations, ref.rounds)
          << name << "/" << priority_mode_name(mode) << " @" << threads;
    }
  }
}

TEST(JplOracleTest, MatchesPriorityOrderFirstFitOnGeneratorSuite) {
  const SuiteOptions sopts{.scale = 0.05, .seed = 4};
  for (const SuiteEntry& entry : make_suite(sopts)) {
    expect_jpl_matches_oracle(entry.graph, entry.name);
  }
}

TEST(JplOracleTest, MatchesWhenWideRoundsMeetCallerRounds) {
  // Large enough that early rounds go to the pool, while the short tail
  // rounds run on the caller: helpers must have colored some vertices.
  const Csr g = make_suite_graph("er-like", {.scale = 0.3, .seed = 4}).graph;
  expect_jpl_matches_oracle(g, "er-like@0.3");
  const par::ParRun run =
      par::run_par_coloring(g, par::ParAlgorithm::kJpl, opts_with(4, 9));
  std::uint64_t helper_vertices = 0;
  for (std::size_t w = 1; w < run.workers.size(); ++w) {
    helper_vertices += run.workers[w].vertices;
  }
  EXPECT_GT(helper_vertices, 0u);
}

TEST(JplOracleTest, MatchesPriorityOrderFirstFitOnDegenerateShapes) {
  for (const Shape& s : degenerate_shapes()) {
    expect_jpl_matches_oracle(s.graph, s.name);
  }
}

// --- parity over the generator suite ----------------------------------------

class ParParityTest : public ::testing::TestWithParam<par::ParAlgorithm> {};

TEST_P(ParParityTest, ValidCompleteColoringOnGeneratorSuite) {
  const SuiteOptions sopts{.scale = 0.05, .seed = 1};
  for (const SuiteEntry& entry : make_suite(sopts)) {
    for (unsigned threads : {1u, 4u}) {
      const par::ParRun run =
          par::run_par_coloring(entry.graph, GetParam(), opts_with(threads));
      EXPECT_TRUE(check::is_valid_coloring(entry.graph, run.colors))
          << entry.name << " @" << threads << ": "
          << check::verify_coloring(entry.graph, run.colors)->to_string();
      EXPECT_EQ(run.num_colors, count_colors(run.colors)) << entry.name;
      EXPECT_GT(run.iterations, 0u) << entry.name;
    }
  }
}

TEST_P(ParParityTest, ValidOnDegenerateShapes) {
  for (const Shape& c : degenerate_shapes()) {
    const par::ParRun run =
        par::run_par_coloring(c.graph, GetParam(), opts_with(2));
    EXPECT_TRUE(check::is_valid_coloring(c.graph, run.colors)) << c.name;
    EXPECT_EQ(run.colors.size(), c.graph.num_vertices()) << c.name;
  }
}

TEST_P(ParParityTest, FirstFitCommitsStayWithinDegreeBound) {
  // Both algorithms commit first-fit colors, so they stay within the
  // Brooks-style degree+1 bound (and close to the sequential greedy count).
  const SuiteOptions sopts{.scale = 0.05, .seed = 1};
  for (const SuiteEntry& entry : make_suite(sopts)) {
    const par::ParRun run =
        par::run_par_coloring(entry.graph, GetParam(), opts_with(4));
    EXPECT_LE(run.num_colors,
              static_cast<int>(entry.graph.max_degree()) + 1)
        << entry.name;
  }
}

INSTANTIATE_TEST_SUITE_P(AllParAlgorithms, ParParityTest,
                         ::testing::ValuesIn(par::all_par_algorithms()),
                         [](const auto& info) {
                           return std::string(par_algorithm_name(info.param));
                         });

// --- stats plumbing ----------------------------------------------------------

TEST(ParStatsTest, WorkerStatsAndImbalanceArePopulated) {
  const Csr g = make_barabasi_albert(5000, 6, 3);
  par::ThreadPool pool(4);
  const par::ParRun run =
      par::run_par_coloring(pool, g, par::ParAlgorithm::kJpl, opts_with(4));
  ASSERT_EQ(run.workers.size(), 4u);
  EXPECT_EQ(run.threads, 4u);
  EXPECT_GT(run.wall_ms, 0.0);
  std::uint64_t vertices = 0;
  double busy = 0.0;
  for (const auto& w : run.workers) {
    vertices += w.vertices;
    busy += w.busy_ms;
  }
  EXPECT_EQ(vertices, g.num_vertices());  // each vertex commits once
  EXPECT_GT(busy, 0.0);
  EXPECT_GE(run.imbalance.cu_max_over_mean, 1.0);
}

TEST(ParStatsTest, PoolReuseAcrossRunsIsClean) {
  const Csr g = make_barabasi_albert(1000, 3, 9);
  par::ThreadPool pool(2);
  for (par::ParAlgorithm algo : par::all_par_algorithms()) {
    const par::ParRun run = par::run_par_coloring(pool, g, algo, opts_with(2));
    EXPECT_TRUE(check::is_valid_coloring(g, run.colors)) << par_algorithm_name(algo);
    EXPECT_EQ(run.threads, 2u);
  }
}

}  // namespace
}  // namespace gcg
