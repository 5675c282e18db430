#include "graph/reorder.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "util/expect.hpp"
#include "util/narrow.hpp"
#include "util/rng.hpp"

namespace gcg {

const char* order_name(Order o) {
  switch (o) {
    case Order::kNatural: return "natural";
    case Order::kRandom: return "random";
    case Order::kDegreeDescending: return "degree-desc";
    case Order::kDegreeAscending: return "degree-asc";
    case Order::kBfs: return "bfs";
    case Order::kRcm: return "rcm";
  }
  return "?";
}

Order order_from_name(const std::string& name) {
  for (Order o : {Order::kNatural, Order::kRandom, Order::kDegreeDescending,
                  Order::kDegreeAscending, Order::kBfs, Order::kRcm}) {
    if (name == order_name(o)) return o;
  }
  throw std::invalid_argument("unknown order: " + name);
}

namespace {

/// BFS visit order from each unvisited root (ascending id), optionally
/// sorting each frontier expansion by degree (for RCM).
std::vector<vid_t> bfs_visit_order(const Csr& g, bool sort_by_degree) {
  const vid_t n = g.num_vertices();
  std::vector<vid_t> visit;  // visit[k] = old id visited k-th
  visit.reserve(n);
  std::vector<bool> seen(n, false);
  std::vector<vid_t> scratch;
  for (vid_t root = 0; root < n; ++root) {
    if (seen[root]) continue;
    seen[root] = true;
    visit.push_back(root);
    // classic array-as-queue BFS; `head` chases the growing visit list
    for (std::size_t head = visit.size() - 1; head < visit.size(); ++head) {
      const vid_t u = visit[head];
      scratch.clear();
      for (vid_t v : g.neighbors(u)) {
        if (!seen[v]) {
          seen[v] = true;
          scratch.push_back(v);
        }
      }
      if (sort_by_degree) {
        std::sort(scratch.begin(), scratch.end(), [&](vid_t a, vid_t b) {
          return g.degree(a) < g.degree(b) || (g.degree(a) == g.degree(b) && a < b);
        });
      }
      visit.insert(visit.end(), scratch.begin(), scratch.end());
    }
  }
  return visit;
}

std::vector<vid_t> visit_to_perm(const std::vector<vid_t>& visit) {
  std::vector<vid_t> perm(visit.size());
  for (vid_t k = 0; k < visit.size(); ++k) perm[visit[k]] = k;
  return perm;
}

}  // namespace

std::vector<vid_t> make_order(const Csr& g, Order o, std::uint64_t seed) {
  const vid_t n = g.num_vertices();
  std::vector<vid_t> perm(n);
  std::iota(perm.begin(), perm.end(), vid_t{0});

  switch (o) {
    case Order::kNatural:
      return perm;
    case Order::kRandom: {
      // Fisher–Yates over the *new ids*: shuffle identity then invert is
      // equivalent to shuffling directly since uniform.
      Xoshiro256ss rng(seed);
      for (vid_t i = n; i > 1; --i) {
        const auto j = narrow<vid_t>(rng.bounded(i));
        std::swap(perm[i - 1], perm[j]);
      }
      return perm;
    }
    case Order::kDegreeDescending:
    case Order::kDegreeAscending: {
      // Stable counting sort on degree, O(n + max_degree): each degree
      // class gets a block of new ids, and within a class ascending old
      // ids take ascending new ids, as a stable comparison sort would.
      const bool desc = (o == Order::kDegreeDescending);
      const vid_t max_degree = g.max_degree();
      std::vector<vid_t> next(std::size_t{max_degree} + 1, 0);
      for (vid_t v = 0; v < n; ++v) ++next[g.degree(v)];
      vid_t placed = 0;
      for (std::size_t i = 0; i < next.size(); ++i) {
        vid_t& slot = next[desc ? max_degree - i : i];
        const vid_t count = slot;
        slot = placed;
        placed += count;
      }
      for (vid_t v = 0; v < n; ++v) perm[v] = next[g.degree(v)]++;
      return perm;
    }
    case Order::kBfs:
      return visit_to_perm(bfs_visit_order(g, /*sort_by_degree=*/false));
    case Order::kRcm: {
      auto visit = bfs_visit_order(g, /*sort_by_degree=*/true);
      std::reverse(visit.begin(), visit.end());
      return visit_to_perm(visit);
    }
  }
  GCG_ASSERT(false && "unreachable");
  return perm;
}

namespace {

/// Fills inv with the inverse of perm (inv[perm[v]] = v). Returns false,
/// leaving inv unspecified, if perm is not a permutation of [0, n).
bool invert_permutation(const std::vector<vid_t>& perm, vid_t n,
                        std::vector<vid_t>& inv) {
  if (perm.size() != n) return false;
  inv.assign(n, n);  // n marks a new id that no old id has claimed yet
  for (vid_t v = 0; v < n; ++v) {
    const vid_t p = perm[v];
    if (p >= n || inv[p] != n) return false;
    inv[p] = v;
  }
  return true;
}

}  // namespace

bool is_permutation(const std::vector<vid_t>& perm, vid_t n) {
  std::vector<vid_t> inv;
  return invert_permutation(perm, n, inv);
}

Csr apply_order(const Csr& g, const std::vector<vid_t>& perm) {
  const vid_t n = g.num_vertices();
  std::vector<vid_t> inv;
  GCG_EXPECT(invert_permutation(perm, n, inv));
  // Arc u->w becomes perm[w]->perm[u]: every arc is scattered into its
  // target's row, sources visited in ascending new id, so each row fills
  // in ascending order and none is sorted. Row sizes count the arcs the
  // scatter writes, so every write stays inside its row for any input;
  // on a symmetric graph they are the relabeled degrees.
  std::vector<eid_t> rows(std::size_t{n} + 1, 0);
  for (vid_t w : g.col_indices()) ++rows[perm[w] + 1];
  for (std::size_t i = 1; i < rows.size(); ++i) rows[i] += rows[i - 1];
  std::vector<eid_t> cursor(rows.begin(), rows.end() - 1);
  std::vector<vid_t> cols(g.num_arcs());
  for (vid_t x = 0; x < n; ++x) {
    for (vid_t w : g.neighbors(inv[x])) cols[cursor[perm[w]]++] = x;
  }
  return Csr(std::move(rows), std::move(cols));
}

Csr reorder(const Csr& g, Order o, std::uint64_t seed) {
  return apply_order(g, make_order(g, o, seed));
}

}  // namespace gcg
