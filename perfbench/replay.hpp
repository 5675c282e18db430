// The traced run: replays a plan's warm-up jobs and then its open-loop
// job sequence in this process, one job at a time, calling each layer's
// public functions in the order svc::Scheduler::run_one uses them and
// recording a span around each call:
//
//   job                       per-job span, parent of the stages below
//     svc.decode              Json::parse + svc::job_spec_from_json
//     registry.acquire        svc::GraphRegistry::acquire (hit or miss)
//     check.validate          check::validate_csr
//     par.run                 par::run_par_coloring, with two children
//       reorder                 ParRun::reorder_ms, as the run reports it
//       par.color               ParRun::wall_ms, as the run reports it
//     check.verify            check::verify_coloring
//     svc.encode              svc::snapshot_reply + Json::dump
//
// A registry miss opens the graph through store::MappedGraph::open inside
// the registry, where no span can reach. The replay therefore times one
// store::MappedGraph::open of the same file as a `store.open` probe just
// before each job it predicts will miss; the probe is not part of the job.
#pragma once

#include "par/runner.hpp"
#include "spans.hpp"
#include "svc/job.hpp"
#include "svc/json.hpp"
#include "workload.hpp"

namespace perfbench {

/// The par options svc::Scheduler::run_one derives from a job spec
/// (without its cancel hook: the benchmark sets no deadlines).
gcg::par::ParOptions par_options(const gcg::svc::JobSpec& spec);

/// Runs the replay, recording into `tracer`. Returns one record per job:
/// its phase ("setup" or "open"), the durations of the job span and of
/// its direct stage spans ("stages"), the store probe (-1 when none ran),
/// whether the registry hit, and what par::ParRun reported (rounds,
/// reorder and color ms, vertices scanned, worker busy times).
/// perfbench/run.py aggregates them.
gcg::svc::Json run_replay(const Plan& plan, Tracer& tracer);

}  // namespace perfbench
