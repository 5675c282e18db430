// Degree-aware scheduling tests: the edge-balanced partitioner, the hub
// cooperation path, and the bitset first-fit scratch must not change any
// observable coloring — JPL stays bit-identical across thread counts,
// schedules, and hub settings, and every par algorithm stays valid and
// complete on skewed degree distributions.
#include <gtest/gtest.h>

#include <random>

#include "coloring/seq_greedy.hpp"
#include "check/coloring.hpp"
#include "graph/gen/powerlaw.hpp"
#include "graph/gen/random.hpp"
#include "graph/gen/special.hpp"
#include "par/detail/driver.hpp"
#include "par/runner.hpp"

namespace gcg {
namespace {

// Hub processing needs degree > threshold; these skewed generators all
// have hubs far above kHubOn while most vertices sit well below it.
constexpr std::uint32_t kHubOn = 32;        // forces the cooperative path
constexpr std::uint32_t kHubOff = 0xFFFFFFFFu;  // disables it outright

struct Combo {
  unsigned threads;
  par::Schedule schedule;
  std::uint32_t hub_threshold;
};

std::vector<Combo> all_combos() {
  std::vector<Combo> out;
  for (unsigned threads : {1u, 2u, 8u}) {
    for (par::Schedule s :
         {par::Schedule::kVertexChunks, par::Schedule::kEdgeBalanced}) {
      for (std::uint32_t hub : {kHubOn, kHubOff}) {
        out.push_back({threads, s, hub});
      }
    }
  }
  return out;
}

std::string describe(const Combo& c) {
  return std::to_string(c.threads) + "t/" + par::schedule_name(c.schedule) +
         "/hub=" + std::to_string(c.hub_threshold);
}

par::ParOptions opts_for(const Combo& c, std::uint64_t seed = 1) {
  par::ParOptions o;
  o.threads = c.threads;
  o.seed = seed;
  o.schedule = c.schedule;
  o.hub_degree_threshold = c.hub_threshold;
  return o;
}

// --- schedule names ---------------------------------------------------------

TEST(ScheduleTest, NamesRoundTripAndRejectUnknown) {
  for (par::Schedule s :
       {par::Schedule::kVertexChunks, par::Schedule::kEdgeBalanced}) {
    EXPECT_EQ(par::schedule_from_name(par::schedule_name(s)), s);
  }
  EXPECT_THROW(par::schedule_from_name("bogus"), std::invalid_argument);
}

// --- JPL bit-identical parity ----------------------------------------------

TEST(ScheduleParityTest, JplIsInvariantAcrossSchedulesThreadsAndHubs) {
  // RMAT gives the power-law skew the scheduler exists for. The baseline
  // is the most conservative configuration; every combination must
  // reproduce its colors AND its iteration count exactly.
  const Csr g = make_rmat(12, 8, {}, 99);
  Combo base{1u, par::Schedule::kVertexChunks, kHubOff};
  const par::ParRun ref =
      par::run_par_coloring(g, par::ParAlgorithm::kJpl, opts_for(base));
  ASSERT_TRUE(check::is_valid_coloring(g, ref.colors));

  for (const Combo& c : all_combos()) {
    const par::ParRun run =
        par::run_par_coloring(g, par::ParAlgorithm::kJpl, opts_for(c));
    EXPECT_EQ(run.colors, ref.colors) << describe(c);
    EXPECT_EQ(run.iterations, ref.iterations) << describe(c);
  }
}

TEST(ScheduleParityTest, OneThreadSpeculativeStaysSequentialUnderAllKnobs) {
  // The 1-thread speculative ≡ sequential-greedy contract must survive
  // every schedule/hub setting (the hub path is defined to disengage on
  // one thread precisely to keep the natural processing order).
  const Csr g = make_barabasi_albert(4000, 6, 21);
  const SeqColoring seq = greedy_color(g, GreedyOrder::kNatural);
  for (par::Schedule s :
       {par::Schedule::kVertexChunks, par::Schedule::kEdgeBalanced}) {
    for (std::uint32_t hub : {kHubOn, kHubOff, 0u}) {
      Combo c{1u, s, hub};
      const par::ParRun run = par::run_par_coloring(
          g, par::ParAlgorithm::kSpeculative, opts_for(c));
      EXPECT_EQ(run.colors, seq.colors) << describe(c);
    }
  }
}

// --- validity on skewed graphs ----------------------------------------------

class ScheduleValidityTest
    : public ::testing::TestWithParam<par::ParAlgorithm> {};

TEST_P(ScheduleValidityTest, ValidAndCompleteOnSkewedGraphs) {
  const struct {
    const char* name;
    Csr graph;
  } cases[] = {
      {"rmat", make_rmat(11, 8, {}, 5)},
      {"ba", make_barabasi_albert(3000, 8, 5)},
      {"star", make_star(5000)},
      {"gnm", make_erdos_renyi_gnm(3000, 24000, 5)},
  };
  for (const auto& tc : cases) {
    for (const Combo& c : all_combos()) {
      const par::ParRun run =
          par::run_par_coloring(tc.graph, GetParam(), opts_for(c));
      EXPECT_TRUE(check::is_valid_coloring(tc.graph, run.colors))
          << tc.name << " " << describe(c) << ": "
          << check::verify_coloring(tc.graph, run.colors)->to_string();
      EXPECT_EQ(run.colors.size(), tc.graph.num_vertices()) << tc.name;
      EXPECT_EQ(run.num_colors, count_colors(run.colors))
          << tc.name << " " << describe(c);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllParAlgorithms, ScheduleValidityTest,
                         ::testing::ValuesIn(par::all_par_algorithms()),
                         [](const auto& param_info) {
                           return std::string(
                               par_algorithm_name(param_info.param));
                         });

// --- hub engagement ----------------------------------------------------------

TEST(ScheduleHubTest, HubPathEngagesAndMatchesHubOffColoring) {
  // A star's center dwarfs the threshold, so speculative's cooperative
  // path must actually run (run.hub_vertices counts hub phase visits).
  // JPL has no hub path, so the threshold must not change its coloring.
  const Csr g = make_star(20'000);
  Combo on{4u, par::Schedule::kEdgeBalanced, kHubOn};
  Combo off{4u, par::Schedule::kEdgeBalanced, kHubOff};
  const par::ParRun hub =
      par::run_par_coloring(g, par::ParAlgorithm::kSpeculative, opts_for(on));
  const par::ParRun flat =
      par::run_par_coloring(g, par::ParAlgorithm::kSpeculative, opts_for(off));
  EXPECT_GT(hub.hub_vertices, 0u);
  EXPECT_EQ(flat.hub_vertices, 0u);
  EXPECT_TRUE(check::is_valid_coloring(g, hub.colors));
  EXPECT_EQ(par::run_par_coloring(g, par::ParAlgorithm::kJpl, opts_for(on))
                .colors,
            par::run_par_coloring(g, par::ParAlgorithm::kJpl, opts_for(off))
                .colors);
}

TEST(ScheduleHubTest, HubPathStaysOffOnOneThread) {
  const Csr g = make_star(20'000);
  Combo c{1u, par::Schedule::kEdgeBalanced, kHubOn};
  const par::ParRun run =
      par::run_par_coloring(g, par::ParAlgorithm::kSpeculative, opts_for(c));
  EXPECT_EQ(run.hub_vertices, 0u);
  EXPECT_TRUE(check::is_valid_coloring(g, run.colors));
}

// --- bitset first-fit scratch ------------------------------------------------

// Reference first-fit: smallest color not used by any colored neighbour.
color_t naive_first_fit(const Csr& g, const std::vector<color_t>& colors,
                        vid_t v) {
  std::vector<char> used(g.degree(v) + 2, 0);
  for (vid_t u : g.neighbors(v)) {
    const color_t c = colors[u];
    if (c != kUncolored && static_cast<std::size_t>(c) < used.size()) {
      used[static_cast<std::size_t>(c)] = 1;
    }
  }
  color_t c = 0;
  while (used[static_cast<std::size_t>(c)]) ++c;
  return c;
}

TEST(FirstFitScratchTest, BitsetMatchesNaiveOnRandomPartialColorings) {
  const Csr g = make_rmat(10, 8, {}, 13);
  par::detail::FirstFitScratch scratch(g.max_degree());
  std::mt19937_64 rng(7);
  std::vector<color_t> colors(g.num_vertices(), kUncolored);
  // Grow a random valid-ish partial coloring (values don't have to be a
  // proper coloring for first-fit equivalence — any assignment works).
  std::uniform_int_distribution<color_t> pick(0, 40);
  for (std::size_t round = 0; round < 4; ++round) {
    for (vid_t v = 0; v < g.num_vertices(); ++v) {
      if (rng() % 3 == 0) colors[v] = pick(rng);
    }
    for (vid_t v = 0; v < g.num_vertices(); v += 17) {
      EXPECT_EQ(scratch.first_fit(g, colors, v), naive_first_fit(g, colors, v))
          << "vertex " << v << " round " << round;
    }
  }
}

TEST(FirstFitScratchTest, StampFallbackCoversDegreesAboveTheBitsetCap) {
  // The star center's degree (5000) exceeds kBitsetColorCap (4096), so
  // this exercises the stamp fallback on the same API.
  const Csr g = make_star(5000);
  ASSERT_GT(g.max_degree() + 1, par::detail::FirstFitScratch::kBitsetColorCap);
  par::detail::FirstFitScratch scratch(g.max_degree());
  std::vector<color_t> colors(g.num_vertices(), kUncolored);
  for (vid_t leaf = 1; leaf <= 4500; ++leaf) {
    colors[leaf] = static_cast<color_t>(leaf - 1);  // leaves use 0..4499
  }
  EXPECT_EQ(scratch.first_fit(g, colors, 0), 4500);
  EXPECT_EQ(scratch.first_fit(g, colors, 0), naive_first_fit(g, colors, 0));
}

TEST(FirstFitScratchTest, StampFallbackStartWordHintStaysExact) {
  // Regression for the quadratic rescan above the bitset cap: repeated
  // fallback calls on a hub restart their scan at the hinted word — but
  // the hint is only an accelerator, never allowed to change the answer,
  // including when previously-forbidden low colors are freed again.
  const Csr g = make_star(5000);
  ASSERT_GT(g.max_degree() + 1, par::detail::FirstFitScratch::kBitsetColorCap);
  par::detail::FirstFitScratch scratch(g.max_degree());
  std::vector<color_t> colors(g.num_vertices(), kUncolored);
  for (vid_t leaf = 1; leaf <= 4500; ++leaf) {
    colors[leaf] = static_cast<color_t>(leaf - 1);  // leaves use 0..4499
  }

  std::uint32_t hint = 0;
  EXPECT_EQ(scratch.first_fit(g, colors, 0, &hint), 4500);
  EXPECT_EQ(hint, 4500u / 64u);  // answer word, proven saturated below

  // Steady state: the hinted rescan must reproduce the exact answer.
  for (int repeat = 0; repeat < 3; ++repeat) {
    EXPECT_EQ(scratch.first_fit(g, colors, 0, &hint),
              naive_first_fit(g, colors, 0))
        << repeat;
  }

  // Free a low color: the words below the hint are no longer saturated,
  // so the hint must be ignored (not trusted) and the freed color found.
  colors[101] = kUncolored;  // color 100 is now available again
  EXPECT_EQ(scratch.first_fit(g, colors, 0, &hint), 100);
  EXPECT_EQ(scratch.first_fit(g, colors, 0, &hint),
            naive_first_fit(g, colors, 0));

  // Re-taking the color restores the original answer.
  colors[101] = 100;
  EXPECT_EQ(scratch.first_fit(g, colors, 0, &hint), 4500);
}

// --- FrontierAppender wraparound guard ---------------------------------------

#if GTEST_HAS_DEATH_TEST && !defined(__SANITIZE_THREAD__)
TEST(FrontierAppenderDeathTest, OversizedClaimTripsTheAssert) {
  // The old bounds check computed at+count in 32 bits: a huge claim
  // wrapped past zero and "passed". The 64-bit check must abort.
  std::vector<vid_t> out(8);
  par::detail::FrontierAppender app{out};
  app.claim(8);
  EXPECT_DEATH(app.claim(0xFFFFFFF8u), "invariant");
}
#endif

}  // namespace
}  // namespace gcg
