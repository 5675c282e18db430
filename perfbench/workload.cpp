#include "workload.hpp"

#include <cmath>
#include <stdexcept>

#include "graph/gen/suite.hpp"
#include "store/writer.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

std::vector<Workload> make_workloads() {
  std::vector<Workload> out;

  // One resident power-law graph, speculative coloring: validation
  // dominates the server time and same-graph jobs batch.
  Workload spec;
  spec.name = "hot-kron-spec";
  spec.rate_jps = 16.0;
  spec.graphs = {{"kron-like", 0.5}};
  spec.mix = {{0, "speculative", ""}};
  out.push_back(spec);

  // All eight suite families round-robin through a two-graph cache:
  // every job is a registry miss (load + validate), nothing batches, and
  // half the jobs pay a degree-desc reorder.
  Workload cold;
  cold.name = "cold-mix";
  cold.rate_jps = 25.0;
  cold.cache_graphs = 2;
  const std::vector<std::string> families = gcg::suite_names();
  for (const std::string& f : families) cold.graphs.push_back({f, 0.5});
  for (const char* order : {"", "degree-desc"}) {
    for (std::size_t g = 0; g < families.size(); ++g) {
      cold.mix.push_back({g, "speculative", order});
    }
  }
  out.push_back(cold);
  return out;
}

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = make_workloads();
  return all;
}

double uniform01(gcg::Xoshiro256ss& rng) {
  return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

}  // namespace

const Workload& workload_by_name(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return w;
  }
  throw std::invalid_argument("unknown workload \"" + name + "\"");
}

Plan::Plan(const Workload& w, std::uint64_t seed, double open_s,
           const std::string& dir)
    : w_(&w), seed_(seed) {
  for (std::size_t g = 0; g < w.graphs.size(); ++g) {
    gcg::SuiteOptions sopts;
    sopts.scale = w.graphs[g].scale;
    sopts.seed = gcg::mix64(seed * 64 + g);
    graphs_.push_back(gcg::make_suite_graph(w.graphs[g].family, sopts).graph);
    paths_.push_back(dir + "/" + std::to_string(g) + "-" +
                     w.graphs[g].family + ".gbin");
    gcg::store::write_gbin_v2(paths_.back(), graphs_.back());
  }

  gcg::Xoshiro256ss rng(gcg::mix64(seed ^ 0x0A11CEull));
  const double horizon_ms = open_s * 1000.0;
  for (double t = 0.0;;) {
    t += -std::log1p(-uniform01(rng)) / w.rate_jps * 1000.0;
    if (t >= horizon_ms) break;
    due_ms_.push_back(t);
  }
}

const JobKind& Plan::kind(std::size_t job) const {
  return w_->mix[job % w_->mix.size()];
}

std::uint64_t Plan::job_seed(std::size_t job) const {
  return 1 + gcg::mix64(seed_ * 0x10000 + job) % 1000000;
}

gcg::svc::Json Plan::request(std::size_t job, bool keep_colors) const {
  using gcg::svc::Json;
  const JobKind& k = kind(job);
  Json req{gcg::svc::JsonObject{}};
  req["op"] = Json("submit");
  req["graph"] = Json(paths_[k.graph]);
  req["seed"] = Json(job_seed(job));
  req["wait"] = Json(true);
  req["algorithm"] = Json(k.algorithm);
  if (!k.order.empty()) req["order"] = Json(k.order);
  if (keep_colors) req["keep_colors"] = Json(true);
  return req;
}

std::vector<std::size_t> Plan::warmup_jobs() const {
  std::vector<std::size_t> out;
  for (std::size_t g = 0; g < w_->graphs.size(); ++g) {
    for (std::size_t j = 0; j < w_->mix.size(); ++j) {
      if (w_->mix[j].graph == g) {
        out.push_back(j);
        break;
      }
    }
  }
  return out;
}

}  // namespace perfbench
