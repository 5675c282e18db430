// Native Jones–Plassmann as a dependency-counter worklist. Every vertex
// counts its higher-priority neighbours in the strict (priority, id)
// order; the vertices with none form round 1. In each round every ready
// vertex commits first-fit and then decrements the counts of its
// lower-priority neighbours, and a vertex whose count reaches zero joins
// the next round. Total work is O(n + m), with one pool barrier per round
// of at least kCallerRoundWork; smaller rounds run on the caller.
//
// This is the round-based JPL without the rescans: a vertex becomes ready
// in exactly the round where it would have beaten every uncolored
// neighbour (one past the longest decreasing-priority path into it), and
// its first-fit sees the same colors — all higher-priority neighbours are
// committed, all lower-priority ones are still uncolored. So the coloring
// equals sequential first-fit in descending priority order, and colors
// and ParRun::iterations are identical at any thread count. Two ready
// vertices are never adjacent, so the first-fit reads never race with a
// commit of the same round.
#include <algorithm>

#include "par/detail/driver.hpp"

namespace gcg::par::detail {

namespace {
/// Chunks per worker and round: enough for the shared chunk cursor to
/// even out degree skew within a round.
constexpr std::uint32_t kChunksPerWorker = 8;
/// A round whose work (degree + 1 summed over its ready vertices) is
/// below this runs on the calling thread: waking the pool and meeting at
/// its barrier would cost more than the round itself. Work, not vertex
/// count, so dense rounds of a few hundred vertices still go wide. Ready
/// vertices of one round are never adjacent, so where a round runs
/// changes neither the colors nor ParRun::iterations.
constexpr std::uint64_t kCallerRoundWork = 4096;
}  // namespace

void run_jpl(DriverState& st) {
  const Csr& g = st.g;
  const vid_t n = g.num_vertices();
  if (n == 0) return;
  const auto workers = std::uint32_t{st.pool.size()};
  const auto grain = [&](std::uint32_t items) {
    return std::max<std::uint32_t>(1, items / (workers * kChunksPerWorker));
  };

  // Every vertex is appended exactly once, so `ready` holds the rounds
  // back to back: each round is the slice its predecessor appended.
  std::vector<vid_t> ready(n);
  FrontierAppender app{ready};
  const auto append = [&](const std::vector<vid_t>& released) {
    if (released.empty()) return;
    std::uint32_t at = app.claim(narrow<std::uint32_t>(released.size()));
    for (vid_t u : released) ready[at++] = u;
  };
  std::vector<std::uint32_t> pending(n);
  std::vector<FirstFitScratch> scratch(workers,
                                       FirstFitScratch(g.max_degree()));

  st.pool.parallel_for(n, grain(n), [&](std::uint32_t b, std::uint32_t e,
                                        unsigned w) {
    BusyTimer timer(st.run.workers[w]);
    std::vector<vid_t> released;
    for (vid_t v = b; v < e; ++v) {
      std::uint32_t higher = 0;
      for (vid_t u : g.neighbors(v)) {
        if (priority_less(st.prio[v], v, st.prio[u], u)) ++higher;
      }
      pending[v] = higher;
      if (higher == 0) released.push_back(v);
    }
    append(released);
  });

  std::uint32_t begin = 0;
  // order: relaxed — the pool barrier that ended the pass ordered every
  // claim() and the slots it handed out.
  std::uint32_t end = app.counter.load(std::memory_order_relaxed);
  while (begin < end && !cancel_requested(st)) {
    GCG_ASSERT(st.run.iterations < st.opts.max_iterations);
    ++st.run.iterations;
    const std::uint32_t size = end - begin;
    const auto commit = [&](std::uint32_t b, std::uint32_t e, unsigned w) {
      ParWorkerStats& ws = st.run.workers[w];
      BusyTimer timer(ws);
      std::vector<vid_t> released;
      for (std::uint32_t i = begin + b; i < begin + e; ++i) {
        const vid_t v = ready[i];
        store_color(st.colors[v],
                    scratch[w].first_fit(g, st.colors, v, st.stamp_hint(v)));
        for (vid_t u : g.neighbors(v)) {
          // order: relaxed — exactly one decrement sees 1 and releases u;
          // the pool barrier that ends the round (or program order, when
          // the caller ran it) publishes v's color to u.
          if (priority_less(st.prio[u], u, st.prio[v], v) &&
              std::atomic_ref<std::uint32_t>(pending[u]).fetch_sub(
                  1, std::memory_order_relaxed) == 1) {
            released.push_back(u);
          }
        }
      }
      ws.vertices += e - b;
      append(released);
    };
    std::uint64_t work = 0;
    for (std::uint32_t i = begin; i < end && work < kCallerRoundWork; ++i) {
      work += std::uint64_t{g.degree(ready[i])} + 1;
    }
    if (work < kCallerRoundWork) {
      commit(0, size, 0);  // the caller is worker 0
    } else {
      st.pool.parallel_for(size, grain(size), commit);
    }
    begin = end;
    // order: relaxed — read after the round's pool barrier, or on the
    // caller that ran the round alone.
    end = app.counter.load(std::memory_order_relaxed);
  }
}

}  // namespace gcg::par::detail
