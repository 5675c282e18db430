// Admission validation: the registry checks each graph once, when it
// loads, and the scheduler fails every job on a malformed graph from that
// one verdict. The asymmetric graph below is well-formed enough for the
// Csr constructor (which only refuses memory-unsafe shapes) and for the
// .gbin v2 writer, so only check::validate_csr can reject it.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "store/writer.hpp"
#include "svc/graph_registry.hpp"
#include "svc/scheduler.hpp"
#include "util/narrow.hpp"

namespace gcg::svc {
namespace {

constexpr const char* kTiny = "gen:ecology-like?scale=0.02&seed=1";
constexpr const char* kAsymmetricError =
    "invalid_graph: asymmetric_edge: arc 2->3 has no reverse arc";

class ScopedFile {
 public:
  explicit ScopedFile(const std::string& name)
      : path_(std::string(::testing::TempDir()) + "/" + name) {}
  ~ScopedFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Path 0-1-2 plus the arc 2->3, whose reverse 3->2 is missing.
ScopedFile asymmetric_gbin(const std::string& name) {
  ScopedFile f(name);
  store::write_gbin_v2(f.path(), Csr({0, 1, 3, 5, 5}, {1, 0, 2, 1, 3}));
  return f;
}

JobSpec par_job(const std::string& graph) {
  JobSpec spec;
  spec.graph = graph;
  spec.backend = Backend::kPar;
  spec.algorithm = "speculative";
  return spec;
}

JobSnapshot run_job(Scheduler& sched, const std::string& graph) {
  const auto sub = sched.submit(par_job(graph));
  EXPECT_TRUE(sub.accepted) << sub.detail;
  const auto snap = sched.wait(sub.id);
  EXPECT_TRUE(snap.has_value());
  return *snap;
}

TEST(AdmissionValidation, InvalidGraphFailsEveryJobFromOneValidation) {
  const ScopedFile f = asymmetric_gbin("admission_asym.gbin");
  SchedulerOptions opts;
  opts.dispatchers = 1;
  opts.registry.max_entries = 1;  // a second graph evicts the first
  Scheduler sched(opts);

  constexpr int kJobs = 4;
  for (int i = 0; i < kJobs; ++i) {
    const JobSnapshot snap = run_job(sched, f.path());
    EXPECT_EQ(snap.status, JobStatus::kFailed);
    EXPECT_EQ(snap.result.error, kAsymmetricError);
    EXPECT_FALSE(snap.result.verified);
  }
  EXPECT_EQ(sched.registry().stats().validations, 1u);

  // Evict, then reload: the new residency validates again, once.
  const JobSnapshot other = run_job(sched, kTiny);
  ASSERT_EQ(other.status, JobStatus::kDone) << other.result.error;
  EXPECT_TRUE(other.result.verified);
  EXPECT_EQ(sched.registry().stats().evictions, 1u);
  EXPECT_EQ(sched.registry().stats().validations, 2u);
  for (int i = 0; i < kJobs; ++i) {
    const JobSnapshot snap = run_job(sched, f.path());
    EXPECT_EQ(snap.result.error, kAsymmetricError);
  }
  EXPECT_EQ(sched.registry().stats().validations, 3u);
  sched.shutdown();
}

TEST(AdmissionValidation, ValidGraphJobsAllVerifiedFromOneValidation) {
  SchedulerOptions opts;
  opts.dispatchers = 1;
  Scheduler sched(opts);
  for (int i = 0; i < 4; ++i) {
    const JobSnapshot snap = run_job(sched, kTiny);
    ASSERT_EQ(snap.status, JobStatus::kDone) << snap.result.error;
    EXPECT_TRUE(snap.result.verified);  // verify_coloring runs every job
  }
  EXPECT_EQ(sched.registry().stats().validations, 1u);
  sched.shutdown();
}

TEST(AdmissionValidation, ConcurrentColdAcquiresValidateOnce) {
  const ScopedFile f = asymmetric_gbin("admission_concurrent.gbin");
  GraphRegistry reg;
  constexpr int kThreads = 8;
  std::vector<std::optional<check::CsrIssue>> verdicts(kThreads);
  std::vector<std::thread> team;
  for (int t = 0; t < kThreads; ++t) {
    team.emplace_back([&, t] {
      reg.acquire(f.path(), nullptr, &verdicts[to_unsigned(t)]);
    });
  }
  for (auto& th : team) th.join();

  const GraphRegistry::Stats s = reg.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.validations, 1u) << "exactly one thread should have validated";
  // Loader and joiners alike receive the admission verdict.
  for (const auto& v : verdicts) {
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->defect, check::CsrDefect::kAsymmetricEdge);
    EXPECT_EQ(v->row, 2u);
    EXPECT_EQ(v->value, 3u);
  }
}

}  // namespace
}  // namespace gcg::svc
