// The benchmark's workloads and the seeded plan one run executes: which
// graphs the server is given (written as .gbin v2 files before any timer
// starts), which job each request asks for, and when each open-loop
// request is due. Everything here is a pure function of (workload, seed,
// seconds), so two runs with the same seed send the same jobs on the same
// schedule.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/csr.hpp"
#include "svc/json.hpp"

namespace perfbench {

struct GraphInput {
  std::string family;  ///< suite name (graph/gen/suite.hpp)
  double scale = 0.5;
};

/// One request shape.
struct JobKind {
  std::size_t graph = 0;   ///< index into Workload::graphs
  std::string algorithm;   ///< par algorithm name
  std::string order;       ///< "" = natural (the field is left out)
};

struct Workload {
  std::string name;
  /// Open-loop arrival rate (jobs/s): fixed below half the closed-loop
  /// capacity of the first baseline (README.md says why); never derived
  /// again per run.
  double rate_jps = 1.0;
  unsigned cache_graphs = 16;    ///< color_server --cache-graphs
  std::vector<GraphInput> graphs;
  std::vector<JobKind> mix;      ///< requested round-robin
};

/// Throws std::invalid_argument on unknown names.
const Workload& workload_by_name(const std::string& name);

// Server shape every workload runs with.
inline constexpr unsigned kDispatchers = 2;
inline constexpr unsigned kThreadsPerJob = 2;
inline constexpr unsigned kClients = 4;       ///< connections = nproc here
inline constexpr int kSetups = 5;             ///< timed server starts per run
inline constexpr double kOpenShare = 0.75;    ///< of --seconds; rest closed
/// A run alternates open- and closed-loop phases this many times, so each
/// metric is sampled at several points of the run and its median can
/// step over a stretch in which the host ran slow.
inline constexpr int kCycles = 4;

class Plan {
 public:
  /// Generates the graphs from `seed`, writes them under `dir` and draws
  /// the open-loop arrival schedule for `open_s` seconds.
  Plan(const Workload& w, std::uint64_t seed, double open_s,
       const std::string& dir);

  const Workload& workload() const { return *w_; }
  std::uint64_t seed() const { return seed_; }
  const std::vector<std::string>& paths() const { return paths_; }
  const gcg::Csr& graph(std::size_t g) const { return graphs_[g]; }

  /// Due times (ms after the open-loop start) of jobs 0..open_jobs()-1.
  const std::vector<double>& due_ms() const { return due_ms_; }
  std::size_t open_jobs() const { return due_ms_.size(); }

  const JobKind& kind(std::size_t job) const;
  std::uint64_t job_seed(std::size_t job) const;
  /// The submit request for job `job` (wait=true, as a user sends it).
  gcg::svc::Json request(std::size_t job, bool keep_colors = false) const;
  /// One warm-up job per graph (the first mix entry naming it).
  std::vector<std::size_t> warmup_jobs() const;

 private:
  const Workload* w_;
  std::uint64_t seed_;
  std::vector<std::string> paths_;
  std::vector<gcg::Csr> graphs_;
  std::vector<double> due_ms_;
};

}  // namespace perfbench
