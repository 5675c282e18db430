#include "loadgen.hpp"

#include <dirent.h>
#include <sys/types.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "check/coloring.hpp"
#include "replay.hpp"
#include "svc/client.hpp"
#include "svc/protocol.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
using gcg::svc::Client;
using gcg::svc::Json;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

Client connect(const std::string& socket) {
  gcg::svc::ClientOptions opts;
  opts.connect_timeout_ms = 10000.0;
  opts.request_timeout_ms = 120000.0;
  return Client(socket, opts);
}

/// "done" / "failed" / "cancelled" for accepted jobs, the error code
/// (e.g. "queue_full") for refused ones.
std::string status_of(const Json& body) {
  if (!body.get_bool("ok", false)) return body.get_string("error", "error");
  return body.get_string("status", "?");
}

const Json& result_of(const Json& body) {
  static const Json empty{gcg::svc::JsonObject{}};
  const Json* r = body.find("result");
  return r ? *r : empty;
}

/// Runs `body(index, client)` on kClients threads, one connection each.
/// The connections open first; just before the threads start, *t0 is set
/// so that ms_since(*t0) reads `start_ms`. Rethrows the first failure
/// after joining every thread.
template <typename Body>
void on_clients(const std::string& socket, double start_ms,
                Clock::time_point* t0, Body body) {
  std::vector<Client> clients;
  for (unsigned c = 0; c < kClients; ++c) clients.push_back(connect(socket));
  std::vector<std::exception_ptr> errors(kClients);
  *t0 = Clock::now() - std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double, std::milli>(start_ms));
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      try {
        body(c, clients[c]);
      } catch (...) {
        errors[c] = std::current_exception();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

std::vector<std::string> split_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> out;
  for (std::string line; std::getline(in, line);) out.push_back(line);
  return out;
}

/// VmHWM of one process in KiB (0 if it is gone).
double vm_hwm_kib(pid_t pid) {
  for (const std::string& line :
       split_lines("/proc/" + std::to_string(pid) + "/status")) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6));
    }
  }
  return 0.0;
}

/// Parent pid from /proc/<pid>/stat (field 4, after the "(comm)").
pid_t parent_of(pid_t pid) {
  const std::vector<std::string> lines =
      split_lines("/proc/" + std::to_string(pid) + "/stat");
  if (lines.empty()) return -1;
  const auto close = lines[0].rfind(')');
  if (close == std::string::npos) return -1;
  std::istringstream rest(lines[0].substr(close + 1));
  std::string state;
  pid_t ppid = -1;
  rest >> state >> ppid;
  return ppid;
}

std::vector<pid_t> descendants(pid_t root) {
  std::vector<pid_t> all;
  if (DIR* d = ::opendir("/proc")) {
    while (const dirent* e = ::readdir(d)) {
      const std::string name = e->d_name;
      if (!name.empty() &&
          std::all_of(name.begin(), name.end(),
                      [](char ch) { return ch >= '0' && ch <= '9'; })) {
        all.push_back(static_cast<pid_t>(std::stol(name)));
      }
    }
    ::closedir(d);
  }
  std::vector<pid_t> out{root};
  for (std::size_t i = 0; i < out.size(); ++i) {
    for (pid_t p : all) {
      if (parent_of(p) == out[i]) out.push_back(p);
    }
  }
  return out;
}

}  // namespace

ServerProcess::ServerProcess(const Plan& plan, const std::string& bin_dir,
                             const std::string& socket)
    : socket_(socket) {
  std::string preload;
  for (const std::string& p : plan.paths()) {
    preload += (preload.empty() ? "" : ",") + p;
  }
  process_ = gcg::shard::ChildProcess::spawn(
      bin_dir + "/color_server",
      {"--socket", socket, "--dispatchers", std::to_string(kDispatchers),
       "--threads-per-job", std::to_string(kThreadsPerJob), "--cache-graphs",
       std::to_string(plan.workload().cache_graphs), "--preload", preload,
       "--shard-workers", "0"});
}

ServerProcess::~ServerProcess() {
  try {
    Client c(socket_);
    c.shutdown_server();
  } catch (const std::exception&) {
    // Not listening (never came up, or already gone): signals below.
  }
  if (!process_.wait_for(10000.0)) {
    process_.terminate();
    if (!process_.wait_for(2000.0)) process_.kill_hard();
  }
  process_.wait();
}

double ServerProcess::rss_peak_mb() const {
  double kib = 0.0;
  for (pid_t p : descendants(process_.pid())) kib += vm_hwm_kib(p);
  return kib / 1024.0;
}

std::unique_ptr<ServerProcess> start_server(const Plan& plan,
                                            const std::string& bin_dir,
                                            const std::string& socket,
                                            double* seconds) {
  const Clock::time_point t0 = Clock::now();
  auto server = std::make_unique<ServerProcess>(plan, bin_dir, socket);
  Client c = connect(socket);
  // The server binds before it preloads; its registry counts one miss
  // (or load error) per preloaded graph once the preload is over.
  for (;;) {
    const Json reg = *c.stats().find("registry");
    if (reg.get_int("misses", 0) + reg.get_int("load_errors", 0) >=
        static_cast<std::int64_t>(plan.paths().size())) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (std::size_t job : plan.warmup_jobs()) {
    Reply r;
    r.job = job;
    r.body = c.request(plan.request(job));
    if (const std::string err = check_reply(r); !err.empty()) {
      throw std::runtime_error("warm-up job: " + err);
    }
  }
  *seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  return server;
}

std::vector<Reply> run_open_loop(const Plan& plan, const std::string& socket,
                                 double begin_ms, double end_ms) {
  const std::vector<double>& due = plan.due_ms();
  const auto first = static_cast<std::size_t>(
      std::lower_bound(due.begin(), due.end(), begin_ms) - due.begin());
  const auto last = static_cast<std::size_t>(
      std::lower_bound(due.begin(), due.end(), end_ms) - due.begin());
  std::vector<Json> requests;
  for (std::size_t i = first; i < last; ++i) {
    requests.push_back(plan.request(i));
  }
  std::vector<Reply> out(last - first);
  std::atomic<std::size_t> next{first};
  Clock::time_point t0;
  on_clients(socket, begin_ms, &t0, [&](unsigned, Client& client) {
    for (;;) {
      // Jobs are taken in due order by whichever connection is free, so
      // a job waits past its due time only while every connection is
      // still waiting on the server.
      const std::size_t i = next.fetch_add(1);
      if (i >= last) return;
      Reply& r = out[i - first];
      r.job = i;
      r.due_ms = plan.due_ms()[i];
      const double picked = ms_since(t0);
      if (r.due_ms > picked) {
        std::this_thread::sleep_until(
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double, std::milli>(r.due_ms)));
      }
      r.ready_ms = std::max(r.due_ms, picked);
      r.send_ms = ms_since(t0);
      r.body = client.request(requests[i - first]);
      r.done_ms = ms_since(t0);
    }
  });
  return out;
}

std::vector<Reply> run_closed_loop(const Plan& plan, const std::string& socket,
                                   std::size_t first_job, double seconds,
                                   double* elapsed_s) {
  std::atomic<std::size_t> next{first_job};
  std::vector<std::vector<Reply>> per_client(kClients);
  Clock::time_point t0;
  on_clients(socket, 0.0, &t0, [&](unsigned c, Client& client) {
    std::vector<Reply>& mine = per_client[c];
    while (ms_since(t0) < seconds * 1000.0) {
      Reply r;
      r.job = next.fetch_add(1);
      const Json req = plan.request(r.job);
      r.send_ms = r.ready_ms = r.due_ms = ms_since(t0);
      r.body = client.request(req);
      r.done_ms = ms_since(t0);
      mine.push_back(std::move(r));
    }
  });
  std::vector<Reply> out;
  double last = 0.0;
  for (std::vector<Reply>& v : per_client) {
    for (Reply& r : v) {
      last = std::max(last, r.done_ms);
      out.push_back(std::move(r));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const Reply& a, const Reply& b) { return a.job < b.job; });
  *elapsed_s = last / 1000.0;
  return out;
}

Json server_stats(const std::string& socket) {
  return connect(socket).stats();
}

std::string check_reply(const Reply& r) {
  const std::string status = status_of(r.body);
  const std::string where = "job " + std::to_string(r.job) + ": ";
  if (status == "queue_full") return "";
  if (status != "done") {
    return where + status + " " + r.body.get_string("detail", "") +
           result_of(r.body).get_string("error", "");
  }
  if (!result_of(r.body).get_bool("verified", false)) {
    return where + "not verified";
  }
  return "";
}

Json reply_record(const Reply& r) {
  const Json& res = result_of(r.body);
  Json out{gcg::svc::JsonObject{}};
  out["job"] = Json(static_cast<std::uint64_t>(r.job));
  out["due_ms"] = Json(r.due_ms);
  out["ready_ms"] = Json(r.ready_ms);
  out["send_ms"] = Json(r.send_ms);
  out["done_ms"] = Json(r.done_ms);
  out["status"] = Json(status_of(r.body));
  out["latency_ms"] = Json(res.get_double("latency_ms", 0.0));
  out["queue_ms"] = Json(res.get_double("queue_ms", 0.0));
  out["num_colors"] = Json(res.get_int("num_colors", 0));
  return out;
}

Json check_sample(const Plan& plan, const std::string& socket,
                  std::vector<std::string>* errors) {
  gcg::Xoshiro256ss rng(gcg::mix64(plan.seed() ^ 0xC0105ull));
  const std::size_t mix = plan.workload().mix.size();
  Client c = connect(socket);
  gcg::svc::JsonArray sampled;
  for (std::size_t k = 0; k <= mix; ++k) {
    const bool jpl = k == mix;
    Reply r;
    r.job = (jpl ? rng() % mix : k) + mix * (rng() % 8);
    Json req = plan.request(r.job, /*keep_colors=*/true);
    if (jpl) req["algorithm"] = Json("jpl");
    r.body = c.request(req);
    sampled.push_back(Json(static_cast<std::uint64_t>(r.job)));
    const std::string where = std::string(jpl ? "jpl " : "") +
                              "sample job " + std::to_string(r.job) + ": ";
    if (std::string err = check_reply(r); !err.empty()) {
      errors->push_back("sample " + err);
      continue;
    }
    const gcg::Csr& g = plan.graph(plan.kind(r.job).graph);
    std::vector<gcg::color_t> colors;
    if (const Json* arr = result_of(r.body).find("colors")) {
      for (const Json& v : arr->as_array()) {
        colors.push_back(static_cast<gcg::color_t>(v.as_int()));
      }
    }
    if (colors.size() != g.num_vertices()) {
      errors->push_back(where + std::to_string(colors.size()) +
                        " colors for " + std::to_string(g.num_vertices()) +
                        " vertices");
    } else if (const auto bad = gcg::check::verify_coloring(g, colors)) {
      errors->push_back(where + bad->to_string());
    } else if (jpl) {
      gcg::par::ParOptions popts =
          par_options(gcg::svc::job_spec_from_json(req));
      popts.threads = 1;
      const gcg::par::ParRun ref =
          gcg::par::run_par_coloring(g, gcg::par::ParAlgorithm::kJpl, popts);
      if (colors != ref.colors) {
        errors->push_back(where + "colors differ from the 1-thread jpl "
                                  "reference (" +
                          std::to_string(ref.num_colors) + " colors)");
      }
    }
  }
  return Json(std::move(sampled));
}

}  // namespace perfbench
