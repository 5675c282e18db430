#include "replay.hpp"

#include <algorithm>
#include <list>
#include <string>

#include "check/check.hpp"
#include "coloring/priorities.hpp"
#include "par/pool.hpp"
#include "store/mapped_graph.hpp"
#include "svc/graph_registry.hpp"
#include "svc/protocol.hpp"

namespace perfbench {

namespace {

using gcg::svc::Json;

/// Which keys the registry holds: the most recently acquired
/// `capacity` distinct ones (its LRU bound by entry count; the byte
/// bounds are far away for these graphs). Predicts misses for the probe.
class ResidencyMirror {
 public:
  explicit ResidencyMirror(std::size_t capacity) : capacity_(capacity) {}

  bool resident(const std::string& key) const {
    return std::find(lru_.begin(), lru_.end(), key) != lru_.end();
  }
  void touch(const std::string& key) {
    lru_.remove(key);
    lru_.push_front(key);
    if (lru_.size() > capacity_) lru_.pop_back();
  }

 private:
  std::size_t capacity_;
  std::list<std::string> lru_;
};

double span_ms(const Tracer& t, int id) {
  return t.spans()[static_cast<std::size_t>(id)].dur_us / 1000.0;
}

}  // namespace

gcg::par::ParOptions par_options(const gcg::svc::JobSpec& spec) {
  gcg::par::ParOptions popts;
  popts.priority = gcg::priority_mode_from_name(spec.priority);
  popts.seed = spec.seed;
  if (spec.grain != 0) popts.grain = spec.grain;
  if (!spec.schedule.empty()) {
    popts.schedule = gcg::par::schedule_from_name(spec.schedule);
  }
  if (!spec.order.empty()) popts.order = gcg::order_from_name(spec.order);
  popts.hub_degree_threshold = spec.hub_threshold;
  return popts;
}

Json run_replay(const Plan& plan, Tracer& tracer) {
  gcg::svc::GraphRegistry::Options ropts;
  ropts.max_entries = plan.workload().cache_graphs;
  gcg::svc::GraphRegistry registry(ropts);
  ResidencyMirror mirror(plan.workload().cache_graphs);
  gcg::par::ThreadPool pool(kThreadsPerJob);

  std::vector<std::pair<std::size_t, const char*>> sequence;
  for (std::size_t job : plan.warmup_jobs()) {
    sequence.emplace_back(job, "setup");
  }
  for (std::size_t job = 0; job < plan.open_jobs(); ++job) {
    sequence.emplace_back(job, "open");
  }

  gcg::svc::JsonArray records;
  std::uint64_t id = 0;
  for (const auto& [job, phase] : sequence) {
    ++id;
    const std::string line = plan.request(job).dump();
    const std::string& path = plan.paths()[plan.kind(job).graph];
    double probe_ms = -1.0;
    if (!mirror.resident(path)) {
      const int probe = tracer.begin("store.open", id);
      gcg::store::MappedGraph::open(path);
      tracer.end(probe);
      probe_ms = span_ms(tracer, probe);
    }
    mirror.touch(path);

    Json rec{gcg::svc::JsonObject{}};
    Json stages{gcg::svc::JsonObject{}};
    const int job_span = tracer.begin("job", id);

    int s = tracer.begin("svc.decode", id, job_span);
    const gcg::svc::JobSpec spec =
        gcg::svc::job_spec_from_json(Json::parse(line));
    tracer.end(s);
    stages["svc.decode"] = Json(span_ms(tracer, s));

    bool hit = false;
    s = tracer.begin("registry.acquire", id, job_span);
    const std::shared_ptr<const gcg::Csr> graph =
        registry.acquire(spec.graph, &hit);
    tracer.end(s);
    tracer.arg(s, "hit", hit ? 1.0 : 0.0);
    stages["registry.acquire"] = Json(span_ms(tracer, s));

    s = tracer.begin("check.validate", id, job_span);
    const bool valid = !gcg::check::validate_csr(*graph).has_value();
    tracer.end(s);
    stages["check.validate"] = Json(span_ms(tracer, s));

    s = tracer.begin("par.run", id, job_span);
    const gcg::par::ParRun run = gcg::par::run_par_coloring(
        pool, *graph, gcg::par::par_algorithm_from_name(spec.algorithm),
        par_options(spec));
    tracer.end(s);
    stages["par.run"] = Json(span_ms(tracer, s));
    // The runner reorders, colors, then unmaps; it reports the reorder
    // and unmap together as reorder_ms and the coloring as wall_ms.
    const double run_start =
        tracer.spans()[static_cast<std::size_t>(s)].start_us;
    tracer.add("reorder", id, s, run_start, run.reorder_ms * 1000.0);
    tracer.add("par.color", id, s, run_start + run.reorder_ms * 1000.0,
               run.wall_ms * 1000.0);

    s = tracer.begin("check.verify", id, job_span);
    const bool verified =
        !gcg::check::verify_coloring(*graph, run.colors).has_value();
    tracer.end(s);
    stages["check.verify"] = Json(span_ms(tracer, s));

    s = tracer.begin("svc.encode", id, job_span);
    gcg::svc::JobSnapshot snap;
    snap.id = id;
    snap.spec = spec;
    snap.status = gcg::svc::JobStatus::kDone;
    snap.result.num_colors = run.num_colors;
    snap.result.iterations = run.iterations;
    snap.result.run_ms = run.wall_ms;
    snap.result.threads = run.threads;
    snap.result.verified = verified;
    snap.result.cache_hit = hit;
    snap.result.mapped = graph->is_view();
    const std::string reply = gcg::svc::snapshot_reply(snap).dump();
    tracer.end(s);
    tracer.arg(s, "bytes", static_cast<double>(reply.size()));
    stages["svc.encode"] = Json(span_ms(tracer, s));

    tracer.end(job_span);

    std::uint64_t scanned = 0;
    double busy_max = 0.0;
    double busy_sum = 0.0;
    for (const gcg::par::ParWorkerStats& w : run.workers) {
      scanned += w.vertices;
      busy_max = std::max(busy_max, w.busy_ms);
      busy_sum += w.busy_ms;
    }
    rec["job"] = Json(id);
    rec["plan_job"] = Json(static_cast<std::uint64_t>(job));
    rec["phase"] = Json(phase);
    rec["ok"] = Json(valid && verified);
    rec["hit"] = Json(hit);
    rec["order"] = Json(spec.order);
    rec["stages"] = std::move(stages);
    rec["job_ms"] = Json(span_ms(tracer, job_span));
    rec["store_open_ms"] = Json(probe_ms);
    rec["reorder_ms"] = Json(run.reorder_ms);
    rec["color_ms"] = Json(run.wall_ms);
    rec["n"] = Json(static_cast<std::uint64_t>(graph->num_vertices()));
    rec["rounds"] = Json(run.iterations);
    rec["scanned"] = Json(scanned);
    rec["busy_max"] = Json(busy_max);
    rec["busy_mean"] =
        Json(run.workers.empty()
                 ? 0.0
                 : busy_sum / static_cast<double>(run.workers.size()));
    records.push_back(std::move(rec));
  }
  return Json(std::move(records));
}

}  // namespace perfbench
