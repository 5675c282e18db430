// In-memory span recorder for the traced replay. Spans are kept in a
// vector while the replay runs and written out once at the end, as a
// Chrome trace (chrome://tracing / Perfetto) and as the raw records the
// report aggregates. Every span carries the job id; stage spans name the
// per-job span as their parent.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::uint64_t job = 0;
  int parent = -1;        ///< index of the parent span, -1 = none
  double start_us = 0.0;  ///< since the tracer's origin
  double dur_us = 0.0;
  std::vector<std::pair<std::string, double>> args;
};

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  Tracer() : origin_(Clock::now()) {}

  /// Opens a span now; returns its id for end() and as a parent.
  int begin(std::string name, std::uint64_t job, int parent = -1);
  void end(int id);
  /// Records a span whose duration a layer reported rather than one
  /// timed here (e.g. ParRun::reorder_ms); placed at `start_us`.
  int add(std::string name, std::uint64_t job, int parent, double start_us,
          double dur_us);
  void arg(int id, std::string key, double value);

  const std::vector<Span>& spans() const { return spans_; }

  /// {"traceEvents":[...]} with one complete ("X") event per span.
  void write_chrome_trace(std::ostream& os, const std::string& process) const;

 private:
  double now_us() const;

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
