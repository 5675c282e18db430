// Coloring-service throughput: an in-process svc::Server on a Unix-domain
// socket, driven by closed-loop clients (submit wait=true, measure, repeat).
// Sweeping the client count traces out the service's latency/throughput
// curve: each row is one offered-load point with the achieved QPS and the
// client-observed p50/p99 latency. tools/plot_results.py turns the CSV
// block into the offered-QPS vs latency figure.
//
//   bench_svc_throughput [--scale S] [--seed N] [--graphs a,b,c]
//                        [--clients 1,2,4,8,16] [--jobs-per-client 20]
//                        [--dispatchers 2] [--threads-per-job 2]
//                        [--queue 256] [--algorithm jpl]
#include <algorithm>
#include <atomic>
#include <sstream>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "svc/client.hpp"
#include "svc/server.hpp"
#include "util/stats.hpp"
#include "util/narrow.hpp"

namespace {

std::vector<unsigned> client_sweep(const gcg::Cli& cli) {
  const std::string sel = cli.get("clients", "");
  std::vector<unsigned> out;
  if (!sel.empty()) {
    std::istringstream is(sel);
    std::string tok;
    while (std::getline(is, tok, ',')) {
      if (!tok.empty()) out.push_back(static_cast<unsigned>(std::stoul(tok)));
    }
    return out;
  }
  return {1, 2, 4, 8, 16};
}

std::string gen_spec(const gcg::SuiteEntry& entry, const gcg::bench::BenchEnv& env) {
  std::ostringstream os;
  os << "gen:" << entry.name << "?scale=" << env.suite.scale
     << "&seed=" << env.suite.seed;
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gcg;
  using namespace gcg::bench;
  const BenchEnv env = parse_env(
      argc, argv, "svc_throughput",
      {"clients", "jobs-per-client", "dispatchers", "threads-per-job",
       "queue", "algorithm"});
  const Cli cli(argc, argv);
  const auto sweep = client_sweep(cli);
  const int jobs_per_client =
      static_cast<int>(cli.get_int("jobs-per-client", 20));
  const std::string algorithm = cli.get("algorithm", svc::kDefaultParAlgorithm);

  svc::ServerOptions sopts;
  sopts.socket_path = "/tmp/gcg_bench_svc.sock";
  sopts.scheduler.dispatchers =
      static_cast<unsigned>(cli.get_int("dispatchers", 2));
  sopts.scheduler.threads_per_job =
      static_cast<unsigned>(cli.get_int("threads-per-job", 2));
  sopts.scheduler.queue_capacity =
      static_cast<std::size_t>(cli.get_int("queue", 256));

  const std::vector<SuiteEntry> graphs = load_graphs(env);
  std::vector<std::string> specs;
  specs.reserve(graphs.size());
  for (const SuiteEntry& entry : graphs) specs.push_back(gen_spec(entry, env));

  Table table({"clients", "jobs", "ok", "queue_full", "failed",
               "offered_qps", "achieved_qps", "p50_ms", "p99_ms", "mean_ms",
               "cache_hit_rate"});
  table.title("Coloring service throughput (closed-loop clients, algorithm=" +
              algorithm + ")");

  for (const unsigned clients : sweep) {
    // Fresh server per point: cold registry, zeroed stats.
    svc::Server server(sopts);
    // Warm the registry once so the sweep measures serving, not file IO.
    {
      svc::Client warm(server.socket_path());
      for (const std::string& spec : specs) {
        svc::JobSpec job;
        job.graph = spec;
        job.algorithm = algorithm;
        warm.submit(job, /*wait=*/true);
      }
    }

    std::atomic<long> ok{0}, queue_full{0}, failed{0}, cache_hits{0};
    std::vector<SampleStats> latencies(clients);
    WallTimer window;
    std::vector<std::thread> team;
    for (unsigned c = 0; c < clients; ++c) {
      team.emplace_back([&, c] {
        svc::Client client(server.socket_path());
        for (int j = 0; j < jobs_per_client; ++j) {
          svc::JobSpec job;
          job.graph = specs[(c + static_cast<unsigned>(j)) % specs.size()];
          job.algorithm = algorithm;
          job.seed = env.seed + c;
          WallTimer t;
          const svc::Json reply = client.submit(job, /*wait=*/true);
          const double ms = t.elapsed_ms();
          if (reply.get_bool("ok", false) &&
              reply.get_string("status", "") == "done") {
            ok.fetch_add(1);
            latencies[c].add(ms);
            const svc::Json* result = reply.find("result");
            if (result && result->get_bool("cache_hit", false)) {
              cache_hits.fetch_add(1);
            }
          } else if (reply.get_string("error", "") == "queue_full") {
            queue_full.fetch_add(1);
          } else {
            failed.fetch_add(1);
          }
        }
      });
    }
    for (auto& t : team) t.join();
    const double elapsed_s = window.elapsed_ms() / 1000.0;
    server.stop();

    SampleStats merged;
    for (const SampleStats& s : latencies) {
      for (double v : s.values()) merged.add(v);
    }
    const long attempts = static_cast<long>(clients) * jobs_per_client;
    // Row built cell by cell: a single braced 11-cell initializer trips a
    // gcc-12 -Wmaybe-uninitialized false positive in the variant storage.
    std::vector<Table::Cell> row;
    row.emplace_back(static_cast<std::int64_t>(clients));
    row.emplace_back(static_cast<std::int64_t>(attempts));
    row.emplace_back(static_cast<std::int64_t>(ok.load()));
    row.emplace_back(static_cast<std::int64_t>(queue_full.load()));
    row.emplace_back(static_cast<std::int64_t>(failed.load()));
    // lossy: throughput figures; > 2^53 ops is unreachable in a bench run
    row.emplace_back(elapsed_s > 0.0 ? narrow_cast<double>(attempts) / elapsed_s
                                     : 0.0);
    // lossy: same
    row.emplace_back(
        elapsed_s > 0.0 ? narrow_cast<double>(ok.load()) / elapsed_s : 0.0);
    row.emplace_back(merged.count() ? merged.percentile(50.0) : 0.0);
    row.emplace_back(merged.count() ? merged.percentile(99.0) : 0.0);
    row.emplace_back(merged.count() ? merged.summary().mean() : 0.0);
    row.emplace_back(
        // lossy: hit-rate ratio
        ok.load() ? static_cast<double>(cache_hits.load()) /
                        narrow_cast<double>(ok.load())
                  : 0.0);
    table.add_row(std::move(row));
  }
  table.print(std::cout);
  return 0;
}
