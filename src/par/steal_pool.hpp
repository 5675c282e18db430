// Per-worker Chase–Lev deques plus victim selection — the native-thread
// analogue of the simulated sched::StealQueues, sharing its VictimPolicy
// and StealStats vocabulary so sim and par runs report comparable numbers.
//
// Thread safety: entirely lock-free — coordination is sync::atomic
// top/bottom indices inside the Chase–Lev deques, so there is no mutex
// here and nothing for clang TSA capabilities to annotate. The ordering
// arguments live next to each memory_order at the call sites
// (par/deque.hpp) per the order-comment lint rule.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "par/deque.hpp"
#include "sched/chunk.hpp"
#include "sched/steal_queues.hpp"  // VictimPolicy, StealStats
#include "util/narrow.hpp"
#include "util/rng.hpp"
#include "util/sync.hpp"

namespace gcg::par {

class StealPool {
 public:
  explicit StealPool(unsigned workers);

  /// Load one round's distribution (from deal_round_robin/deal_blocked).
  /// Callable only while no worker is popping/stealing. Stats accumulate
  /// across fills; see reset_stats().
  void fill(const std::vector<std::vector<Chunk>>& per_worker);

  unsigned workers() const { return narrow<unsigned>(slots_.size()); }

  /// Owner pop from the bottom of `worker`'s own deque.
  std::optional<Chunk> pop_own(unsigned worker);

  /// One steal attempt per `policy`. nullopt = every candidate looked
  /// empty or the thief lost its race; retry while !drained().
  std::optional<Chunk> steal(unsigned thief, VictimPolicy policy,
                             Xoshiro256ss& rng);

  /// pop_own, falling back to one steal attempt.
  std::optional<Chunk> acquire(unsigned worker, VictimPolicy policy,
                               Xoshiro256ss& rng);

  /// True once every chunk of the current fill has been handed out
  /// (handed out, not necessarily finished — pair with a pool barrier).
  bool drained() const {
    // order: acquire pairs with the release decrements in pop/steal so a
    // worker that sees 0 also sees every handed-out chunk's bookkeeping
    // (the release sequence headed by fill()'s store runs unbroken through
    // the RMW decrements — model-checked as LIT-CNT-1).
    return remaining_.load(std::memory_order_acquire) == 0;
  }

  const StealStats& worker_stats(unsigned w) const { return slots_[w]->stats; }
  StealStats stats() const;  ///< aggregate over workers
  void reset_stats();

 private:
  // Heap-allocate per-worker state so deque cursors and stats counters of
  // different workers never share a cache line.
  struct alignas(64) Slot {
    WorkStealingDeque<Chunk> deque;
    StealStats stats;
  };
  std::optional<Chunk> try_victim(unsigned thief, unsigned victim);

  std::vector<std::unique_ptr<Slot>> slots_;
  alignas(64) sync::atomic<std::int64_t> remaining_{0};
};

}  // namespace gcg::par
