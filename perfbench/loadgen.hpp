// The untraced run: a real color_server process driven over its Unix
// socket by kClients client threads (one connection each), in open-loop
// slices on the plan's Poisson schedule and closed-loop slices for
// capacity. Every request is `submit wait=true`, the way a user waits for
// a job.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "shard/process.hpp"
#include "svc/json.hpp"
#include "workload.hpp"

namespace perfbench {

/// One request as the client saw it. Times are ms since the phase start;
/// in the closed loop due == ready == send.
struct Reply {
  std::size_t job = 0;
  double due_ms = 0.0;
  double ready_ms = 0.0;  ///< max(due, a connection was free)
  double send_ms = 0.0;
  double done_ms = 0.0;
  gcg::svc::Json body;    ///< the server's reply line
};

/// A spawned color_server serving one plan. The destructor shuts it down
/// (shutdown verb, then signals) and reaps it.
class ServerProcess {
 public:
  ServerProcess(const Plan& plan, const std::string& bin_dir,
                const std::string& socket);
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Peak resident set (VmHWM) of the server plus its descendants, MiB.
  double rss_peak_mb() const;

 private:
  std::string socket_;
  gcg::shard::ChildProcess process_;
};

/// Spawns the server and blocks until its preload and one warm-up job per
/// graph completed. `seconds` receives the wall time of all of that.
std::unique_ptr<ServerProcess> start_server(const Plan& plan,
                                            const std::string& bin_dir,
                                            const std::string& socket,
                                            double* seconds);

/// The plan's open-loop jobs due in [begin_ms, end_ms) of its schedule.
/// Reply times are on the schedule's clock: the call starts at begin_ms.
std::vector<Reply> run_open_loop(const Plan& plan, const std::string& socket,
                                 double begin_ms, double end_ms);

/// Jobs first_job, first_job+1, ... for `seconds`; *elapsed_s receives
/// the time from start to the last reply.
std::vector<Reply> run_closed_loop(const Plan& plan, const std::string& socket,
                                   std::size_t first_job, double seconds,
                                   double* elapsed_s);

gcg::svc::Json server_stats(const std::string& socket);

/// Checks one reply: status done and verified. "" = correct, else what
/// is wrong. queue_full is a refusal, not a wrong output, and passes here.
std::string check_reply(const Reply& r);

/// The compact record of `r` the report reads (status, client and
/// server timings, color count).
gcg::svc::Json reply_record(const Reply& r);

/// Re-submits a seeded sample of jobs (one per mix entry) with
/// keep_colors and checks each coloring on the benchmark's own copy of
/// the graph. One more sampled job is sent as jpl: its colors must equal
/// a 1-thread jpl run here, bit for bit (jpl is deterministic at any
/// thread count). Appends one message per failure to *errors; returns
/// the sampled job ids.
gcg::svc::Json check_sample(const Plan& plan, const std::string& socket,
                            std::vector<std::string>* errors);

}  // namespace perfbench
