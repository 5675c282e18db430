// The service benchmark's load generator: one run of one workload.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --bin DIR --work DIR --out FILE
//
// Generates the workload's graphs and schedule from the seed (before any
// timer), starts color_server from DIR kSetups times to time set-up, then
// drives the last instance open loop for kOpenShare of S seconds and,
// without --trace, closed loop for the rest, alternating the two in
// kCycles slices. With --trace 1 it skips the closed loop and replays the
// open-loop job sequence in-process with spans (replay.hpp), writing a
// Chrome trace to WORK/trace.json.
// Raw per-request and per-span records go to FILE as one JSON object;
// perfbench/run.py turns them into the reported metrics. Exit code 0
// when every output was correct, 1 when any was not, 2 on errors.
#include <exception>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "loadgen.hpp"
#include "replay.hpp"
#include "spans.hpp"
#include "util/cli.hpp"
#include "workload.hpp"

namespace {

using gcg::svc::Json;
using gcg::svc::JsonArray;

void append(const std::vector<perfbench::Reply>& replies, JsonArray* out) {
  for (const perfbench::Reply& r : replies) {
    out->push_back(perfbench::reply_record(r));
  }
}

void check_all(const std::vector<perfbench::Reply>& replies,
               std::vector<std::string>* errors) {
  for (const perfbench::Reply& r : replies) {
    if (std::string err = perfbench::check_reply(r); !err.empty()) {
      errors->push_back(std::move(err));
    }
  }
}

int run(const gcg::Cli& cli) {
  const perfbench::Workload& w =
      perfbench::workload_by_name(cli.get("workload", ""));
  const std::uint64_t seed =
      static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const double seconds = cli.get_double("seconds", 10.0);
  const bool trace = cli.get_int("trace", 0) != 0;
  const std::string bin = cli.get("bin", "");
  const std::string work = cli.get("work", "");
  const std::string out_path = cli.get("out", "");
  const int setups = trace ? 1 : perfbench::kSetups;
  if (bin.empty() || work.empty() || out_path.empty()) {
    throw std::invalid_argument("--bin, --work and --out are required");
  }
  const std::string socket = work + "/svc.sock";

  const perfbench::Plan plan(w, seed, seconds * perfbench::kOpenShare, work);

  Json out{gcg::svc::JsonObject{}};
  out["workload"] = Json(w.name);
  out["seed"] = Json(seed);
  out["rate_jps"] = Json(w.rate_jps);
  out["open_s"] = Json(seconds * perfbench::kOpenShare);

  JsonArray setup_s;
  std::unique_ptr<perfbench::ServerProcess> server;
  for (int k = 0; k < setups; ++k) {
    server.reset();  // the previous instance shuts down untimed
    double s = 0.0;
    server = perfbench::start_server(plan, bin, socket, &s);
    setup_s.push_back(Json(s));
  }
  out["setup_s"] = Json(std::move(setup_s));

  // kCycles rounds of [open-loop slice, closed-loop slice]; with --trace
  // only the open-loop slices run, so the stats deltas cover them alone.
  std::vector<std::string> errors;
  const double open_ms = seconds * perfbench::kOpenShare * 1000.0;
  const double closed_s =
      seconds * (1.0 - perfbench::kOpenShare) / perfbench::kCycles;
  std::size_t next_closed = plan.open_jobs();
  JsonArray open;
  JsonArray closed;
  const Json before = perfbench::server_stats(socket);
  for (int k = 0; k < perfbench::kCycles; ++k) {
    const std::vector<perfbench::Reply> slice = perfbench::run_open_loop(
        plan, socket, open_ms * k / perfbench::kCycles,
        open_ms * (k + 1) / perfbench::kCycles);
    check_all(slice, &errors);
    append(slice, &open);
    if (trace) continue;
    double elapsed = 0.0;
    const std::vector<perfbench::Reply> phase = perfbench::run_closed_loop(
        plan, socket, next_closed, closed_s, &elapsed);
    next_closed += phase.size();
    check_all(phase, &errors);
    JsonArray replies;
    append(phase, &replies);
    Json c{gcg::svc::JsonObject{}};
    c["elapsed_s"] = Json(elapsed);
    c["replies"] = Json(std::move(replies));
    closed.push_back(std::move(c));
  }
  out["stats_before"] = before;
  out["stats_after"] = perfbench::server_stats(socket);
  out["cycles"] = Json(perfbench::kCycles);
  out["open"] = Json(std::move(open));
  out["closed"] = Json(std::move(closed));
  out["sampled"] = perfbench::check_sample(plan, socket, &errors);
  out["rss_peak_mb"] = Json(server->rss_peak_mb());
  server.reset();

  if (trace) {
    perfbench::Tracer tracer;
    out["replay"] = perfbench::run_replay(plan, tracer);
    for (const Json& rec : out["replay"].as_array()) {
      if (!rec.get_bool("ok", false)) {
        errors.push_back("replayed job " +
                         std::to_string(rec.get_int("plan_job", 0)) +
                         ": invalid graph or coloring");
      }
    }
    std::ofstream os(work + "/trace.json");
    tracer.write_chrome_trace(os, "perfbench " + w.name);
    if (!os) throw std::runtime_error("cannot write the Chrome trace");
  }

  JsonArray errs;
  for (const std::string& e : errors) errs.push_back(Json(e));
  out["errors"] = Json(std::move(errs));
  std::ofstream os(out_path);
  os << out.dump() << '\n';
  if (!os) throw std::runtime_error("cannot write " + out_path);
  return errors.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(gcg::Cli(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 2;
  }
}
