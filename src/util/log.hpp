// Leveled stderr logger. Quiet by default in benches; tests raise the level
// when diagnosing failures. The level may be changed while other threads
// log (service and shard-coordinator workers do).
#pragma once

#include <sstream>
#include <string>

namespace gcg {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

LogLevel log_level();
void set_log_level(LogLevel level);
void log_message(LogLevel level, const std::string& msg);

namespace detail {
class LogLine {
 public:
  explicit LogLine(LogLevel level) : level_(level) {}
  ~LogLine() { log_message(level_, os_.str()); }
  template <class T>
  LogLine& operator<<(const T& v) {
    os_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream os_;
};
}  // namespace detail

}  // namespace gcg

#define GCG_LOG(level)                                       \
  if (::gcg::LogLevel::level < ::gcg::log_level()) {         \
  } else                                                     \
    ::gcg::detail::LogLine(::gcg::LogLevel::level)

#define GCG_DEBUG GCG_LOG(kDebug)
#define GCG_INFO GCG_LOG(kInfo)
#define GCG_WARN GCG_LOG(kWarn)
#define GCG_ERROR GCG_LOG(kError)
