// Table-driven malformed-CSR tests: every defect class the validator
// knows about, fed as raw arrays (the Csr constructor would reject some
// of these shapes outright, which is exactly why validate_csr accepts
// spans).
#include "check/csr.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>

#include "graph/gen/special.hpp"
#include "graph/gen/random.hpp"
#include "graph/gen/suite.hpp"
#include "util/narrow.hpp"
#include "util/rng.hpp"

namespace gcg {
namespace {

using check::CsrCheckOptions;
using check::CsrDefect;
using check::validate_csr;

struct MalformedCase {
  const char* name;
  std::vector<eid_t> rows;
  std::vector<vid_t> cols;
  CsrDefect expect;
};

TEST(ValidateCsr, MalformedTable) {
  const MalformedCase cases[] = {
      {"empty_offsets", {}, {}, CsrDefect::kEmptyOffsets},
      {"bad_first_offset", {1, 2}, {0, 0}, CsrDefect::kBadFirstOffset},
      {"non_monotone", {0, 3, 2, 4}, {1, 2, 0, 0}, CsrDefect::kNonMonotoneOffsets},
      {"arc_count_mismatch", {0, 1, 2}, {1, 0, 0}, CsrDefect::kArcCountMismatch},
      {"out_of_range", {0, 1, 2}, {1, 7}, CsrDefect::kColumnOutOfRange},
      // vertex 0 lists {2, 1}: descending, no self loop involved
      {"unsorted", {0, 2, 2, 2}, {2, 1}, CsrDefect::kUnsortedNeighbors},
      {"unsorted_row2", {0, 1, 3, 4}, {1, 2, 0, 1}, CsrDefect::kUnsortedNeighbors},
      {"duplicate", {0, 2, 4}, {1, 1, 0, 0}, CsrDefect::kDuplicateNeighbor},
      {"self_loop", {0, 1, 2}, {0, 1}, CsrDefect::kSelfLoop},
      // 0->1 present, 1->0 missing (1 lists only itself? no: 1 lists 2)
      {"asymmetric", {0, 1, 2, 3}, {1, 2, 1}, CsrDefect::kAsymmetricEdge},
  };
  for (const auto& tc : cases) {
    const auto issue = validate_csr(tc.rows, tc.cols);
    ASSERT_TRUE(issue.has_value()) << tc.name;
    EXPECT_EQ(issue->defect, tc.expect)
        << tc.name << ": " << issue->to_string();
    EXPECT_FALSE(issue->to_string().empty()) << tc.name;
  }
}

TEST(ValidateCsr, UnsortedReportsRowAndPosition) {
  // Row 1's adjacency list {2, 0} descends at flat position 2.
  const std::vector<eid_t> rows{0, 1, 3, 4};
  const std::vector<vid_t> cols{1, 2, 0, 1};
  const auto issue = validate_csr(rows, cols, {.require_symmetric = false});
  ASSERT_TRUE(issue.has_value());
  EXPECT_EQ(issue->defect, CsrDefect::kUnsortedNeighbors);
  EXPECT_EQ(issue->row, 1u);
  EXPECT_EQ(issue->index, 2u);
}

TEST(ValidateCsr, OptionsRelaxChecks) {
  // A directed (asymmetric) edge passes when symmetry is not required.
  const std::vector<eid_t> rows{0, 1, 1};
  const std::vector<vid_t> cols{1};
  EXPECT_TRUE(validate_csr(rows, cols).has_value());
  EXPECT_FALSE(
      validate_csr(rows, cols, {.require_symmetric = false}).has_value());

  // Self loop allowed when asked for (and must then satisfy symmetry
  // trivially: u->u is its own mate).
  const std::vector<eid_t> loop_rows{0, 1};
  const std::vector<vid_t> loop_cols{0};
  EXPECT_TRUE(validate_csr(loop_rows, loop_cols).has_value());
  EXPECT_FALSE(
      validate_csr(loop_rows, loop_cols, {.allow_self_loops = true})
          .has_value());

  // Duplicates allowed when uniqueness is off (still sorted).
  const std::vector<eid_t> dup_rows{0, 2, 4};
  const std::vector<vid_t> dup_cols{1, 1, 0, 0};
  EXPECT_TRUE(validate_csr(dup_rows, dup_cols).has_value());
  EXPECT_FALSE(
      validate_csr(dup_rows, dup_cols, {.require_unique = false}).has_value());
}

TEST(ValidateCsr, AcceptsWellFormedGraphs) {
  EXPECT_FALSE(validate_csr(make_cycle(5)).has_value());
  EXPECT_FALSE(validate_csr(make_star(100)).has_value());
  EXPECT_FALSE(validate_csr(make_empty(3)).has_value());
  EXPECT_FALSE(validate_csr(make_erdos_renyi_gnm(500, 2000, 7)).has_value());
}

TEST(ValidateCsr, EmptyGraphSingleOffsetIsValid) {
  const std::vector<eid_t> rows{0};
  EXPECT_FALSE(validate_csr(rows, {}).has_value());
}

// Reference validator for the differential test: the same checks in the
// same order, with symmetry decided by one search per arc (binary search
// on sorted rows, linear scan otherwise). validate_csr must agree with it
// on every field of the reported issue.
std::optional<check::CsrIssue> reference_validate(
    const std::vector<eid_t>& rows, const std::vector<vid_t>& cols,
    const CsrCheckOptions& opts) {
  using check::CsrIssue;
  if (rows.empty()) return CsrIssue{CsrDefect::kEmptyOffsets, 0, 0, 0};
  if (rows.front() != 0) {
    return CsrIssue{CsrDefect::kBadFirstOffset, 0, rows.front(), 0};
  }
  const vid_t n = narrow<vid_t>(rows.size() - 1);
  for (std::size_t i = 1; i < rows.size(); ++i) {
    if (rows[i] < rows[i - 1]) {
      return CsrIssue{CsrDefect::kNonMonotoneOffsets, narrow<vid_t>(i - 1),
                      rows[i], i};
    }
  }
  if (rows.back() != cols.size()) {
    return CsrIssue{CsrDefect::kArcCountMismatch, n, rows.back(),
                    cols.size()};
  }
  for (vid_t u = 0; u < n; ++u) {
    for (eid_t k = rows[u]; k < rows[u + 1]; ++k) {
      const vid_t v = cols[k];
      const std::size_t at = narrow<std::size_t>(k);
      if (v >= n) return CsrIssue{CsrDefect::kColumnOutOfRange, u, v, at};
      if (v == u && !opts.allow_self_loops) {
        return CsrIssue{CsrDefect::kSelfLoop, u, v, at};
      }
      if (k > rows[u]) {
        if (opts.require_unique && v == cols[k - 1]) {
          return CsrIssue{CsrDefect::kDuplicateNeighbor, u, v, at};
        }
        if (opts.require_sorted && v < cols[k - 1]) {
          return CsrIssue{CsrDefect::kUnsortedNeighbors, u, v, at};
        }
      }
    }
  }
  if (!opts.require_symmetric) return std::nullopt;
  for (vid_t u = 0; u < n; ++u) {
    for (eid_t k = rows[u]; k < rows[u + 1]; ++k) {
      const vid_t v = cols[k];
      if (v == u) continue;
      const auto first = cols.begin() + to_signed(rows[v]);
      const auto last = cols.begin() + to_signed(rows[v + 1]);
      const bool found = opts.require_sorted
                             ? std::binary_search(first, last, u)
                             : std::find(first, last, u) != last;
      if (!found) {
        return CsrIssue{CsrDefect::kAsymmetricEdge, u, v,
                        narrow<std::size_t>(k)};
      }
    }
  }
  return std::nullopt;
}

/// Raw CSR arrays with the edits the differential test applies.
struct MutableCsr {
  std::vector<eid_t> rows;
  std::vector<vid_t> cols;

  vid_t n() const { return narrow<vid_t>(rows.size() - 1); }
  vid_t row_of(eid_t k) const {
    const auto it = std::upper_bound(rows.begin(), rows.end(), k);
    return narrow<vid_t>(std::distance(rows.begin(), it) - 1);
  }
  void erase(eid_t k) {
    const vid_t u = row_of(k);
    cols.erase(cols.begin() + to_signed(k));
    for (std::size_t i = std::size_t{u} + 1; i < rows.size(); ++i) --rows[i];
  }
  void insert(vid_t u, eid_t k, vid_t v) {
    cols.insert(cols.begin() + to_signed(k), v);
    for (std::size_t i = std::size_t{u} + 1; i < rows.size(); ++i) ++rows[i];
  }
};

enum class Mutation {
  kDropEdge,
  kDropHalf,
  kDuplicate,
  kSelfLoop,
  kSwap,
  kCrossArcs,
};

const char* mutation_name(Mutation m) {
  switch (m) {
    case Mutation::kDropEdge: return "drop_edge";
    case Mutation::kDropHalf: return "drop_half";
    case Mutation::kDuplicate: return "duplicate";
    case Mutation::kSelfLoop: return "self_loop";
    case Mutation::kSwap: return "swap";
    case Mutation::kCrossArcs: return "cross_arcs";
  }
  return "?";
}

void mutate(MutableCsr& g, Mutation m, Xoshiro256ss& rng) {
  if (g.cols.empty() && m != Mutation::kSelfLoop) return;
  const eid_t k = rng.bounded(g.cols.size());
  const vid_t u = g.row_of(k);
  switch (m) {
    case Mutation::kDropEdge: {
      // Both halves: the graph stays symmetric (if it was).
      const vid_t v = g.cols[k];
      const auto first = g.cols.begin() + to_signed(g.rows[v]);
      const auto last = g.cols.begin() + to_signed(g.rows[v + 1]);
      const auto mate = std::find(first, last, u);
      if (v == u || mate == last) return;
      const auto j = to_unsigned(std::distance(g.cols.begin(), mate));
      g.erase(std::max(j, k));
      g.erase(std::min(j, k));
      return;
    }
    case Mutation::kDropHalf:
      g.erase(k);
      return;
    case Mutation::kDuplicate:
      g.insert(u, k, g.cols[k]);
      return;
    case Mutation::kSelfLoop: {
      const vid_t w = narrow<vid_t>(rng.bounded(g.n()));
      const auto first = g.cols.begin() + to_signed(g.rows[w]);
      const auto last = g.cols.begin() + to_signed(g.rows[w + 1]);
      const auto at = std::lower_bound(first, last, w);
      g.insert(w, to_unsigned(std::distance(g.cols.begin(), at)), w);
      return;
    }
    case Mutation::kSwap:
      if (k + 1 < g.rows[u + 1]) std::swap(g.cols[k], g.cols[k + 1]);
      return;
    case Mutation::kCrossArcs: {
      // u->v and w->x become u->x and w->v: every in- and out-degree is
      // kept, so only the neighbour values can reveal the asymmetry.
      const eid_t j = rng.bounded(g.cols.size());
      const vid_t w = g.row_of(j);
      std::swap(g.cols[k], g.cols[j]);
      for (const vid_t r : {u, w}) {
        std::sort(g.cols.begin() + to_signed(g.rows[r]),
                  g.cols.begin() + to_signed(g.rows[r + 1]));
      }
      return;
    }
  }
}

void expect_same_issue(const std::optional<check::CsrIssue>& got,
                       const std::optional<check::CsrIssue>& want,
                       const std::string& what) {
  ASSERT_EQ(got.has_value(), want.has_value())
      << what << ": got " << (got ? got->to_string() : "valid")
      << ", reference " << (want ? want->to_string() : "valid");
  if (!got) return;
  EXPECT_EQ(got->defect, want->defect) << what;
  EXPECT_EQ(got->row, want->row) << what;
  EXPECT_EQ(got->value, want->value) << what;
  EXPECT_EQ(got->index, want->index) << what;
  EXPECT_EQ(got->to_string(), want->to_string()) << what;
}

TEST(ValidateCsr, DifferentialAgainstSearchReference) {
  constexpr Mutation kMutations[] = {
      Mutation::kDropEdge, Mutation::kDropHalf, Mutation::kDuplicate,
      Mutation::kSelfLoop, Mutation::kSwap,     Mutation::kCrossArcs};
  constexpr int kTrialsPerGraph = 12;
  std::size_t asymmetric = 0;
  std::size_t valid = 0;
  const std::vector<std::string> names = suite_names();
  for (std::uint64_t which = 0; which < names.size(); ++which) {
    const std::string& name = names[which];
    for (const std::uint64_t seed : {1u, 2u}) {
      const double scale = seed == 1 ? 0.02 : 0.05;
      const Csr base = make_suite_graph(name, {.scale = scale, .seed = seed})
                           .graph;
      Xoshiro256ss rng(seed * 7919 + which);
      for (int trial = 0; trial <= kTrialsPerGraph; ++trial) {
        MutableCsr g{{base.row_offsets().begin(), base.row_offsets().end()},
                     {base.col_indices().begin(), base.col_indices().end()}};
        std::string what = name + " seed " + std::to_string(seed);
        // Trial 0 is the unmutated graph; the rest stack one to three
        // random edits.
        const std::uint64_t edits = trial == 0 ? 0 : 1 + rng.bounded(3);
        for (std::uint64_t e = 0; e < edits; ++e) {
          const Mutation m = kMutations[rng.bounded(std::size(kMutations))];
          mutate(g, m, rng);
          what += std::string(" ") + mutation_name(m);
        }
        for (unsigned mask = 0; mask < 16; ++mask) {
          const CsrCheckOptions opts{.require_sorted = (mask & 1u) != 0,
                                     .require_unique = (mask & 2u) != 0,
                                     .require_symmetric = (mask & 4u) != 0,
                                     .allow_self_loops = (mask & 8u) != 0};
          const auto want = reference_validate(g.rows, g.cols, opts);
          expect_same_issue(validate_csr(g.rows, g.cols, opts), want,
                            what + " options " + std::to_string(mask));
          if (!want) ++valid;
          if (want && want->defect == CsrDefect::kAsymmetricEdge) {
            ++asymmetric;
          }
        }
      }
    }
  }
  // The edits must reach both verdicts, including symmetry failures.
  EXPECT_GT(asymmetric, 0u);
  EXPECT_GT(valid, 0u);
}

TEST(ValidateCsr, DuplicateArcWithOneMateIsSymmetric) {
  // Row 0 lists 1 twice; row 1 lists 0 once. Every arc has a mate, so
  // with uniqueness relaxed the graph is symmetric even though the
  // cursor walk cannot pair the second 0->1 with a distinct entry.
  const std::vector<eid_t> rows{0, 2, 3};
  const std::vector<vid_t> cols{1, 1, 0};
  EXPECT_FALSE(
      validate_csr(rows, cols, {.require_unique = false}).has_value());
}

TEST(ValidateCsr, AsymmetricReportsFirstArcWithoutMate) {
  // Row 2 lists only 0, so 0->2 has its mate and 1->2 (cols[1]) is the
  // first arc in row order without one.
  const std::vector<eid_t> rows{0, 1, 2, 3};
  const std::vector<vid_t> cols{2, 2, 0};
  const auto issue = validate_csr(rows, cols);
  ASSERT_TRUE(issue.has_value());
  EXPECT_EQ(issue->defect, CsrDefect::kAsymmetricEdge);
  EXPECT_EQ(issue->row, 1u);
  EXPECT_EQ(issue->value, 2u);
  EXPECT_EQ(issue->index, 1u);
}

}  // namespace
}  // namespace gcg
