#include "spans.hpp"

#include <iomanip>
#include <ostream>

namespace perfbench {

namespace {

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

double Tracer::now_us() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
      .count();
}

int Tracer::begin(std::string name, std::uint64_t job, int parent) {
  return add(std::move(name), job, parent, now_us(), 0.0);
}

void Tracer::end(int id) {
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.dur_us = now_us() - s.start_us;
}

int Tracer::add(std::string name, std::uint64_t job, int parent,
                double start_us, double dur_us) {
  Span s;
  s.name = std::move(name);
  s.job = job;
  s.parent = parent;
  s.start_us = start_us;
  s.dur_us = dur_us;
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::arg(int id, std::string key, double value) {
  spans_[static_cast<std::size_t>(id)].args.emplace_back(std::move(key),
                                                          value);
}

void Tracer::write_chrome_trace(std::ostream& os,
                                const std::string& process) const {
  const auto flags = os.flags();
  const auto precision = os.precision();
  os << std::fixed << std::setprecision(3) << "{\"traceEvents\":[";
  bool first = true;
  auto comma = [&] {
    if (!first) os << ',';
    first = false;
  };

  comma();
  os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
        "\"args\":{\"name\":\"" << escape(process) << "\"}}";

  for (const Span& s : spans_) {
    comma();
    os << "{\"name\":\"" << escape(s.name)
       << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << s.start_us
       << ",\"dur\":" << s.dur_us << ",\"args\":{\"job\":" << s.job;
    if (s.parent >= 0) {
      os << ",\"parent\":\""
         << escape(spans_[static_cast<std::size_t>(s.parent)].name) << '"';
    }
    for (const auto& [key, value] : s.args) {
      os << ",\"" << escape(key) << "\":" << value;
    }
    os << "}}";
  }
  os << "]}";
  os.flags(flags);
  os.precision(precision);
}

}  // namespace perfbench
