#include "util/log.hpp"

#include <atomic>
#include <cstdio>

namespace gcg {

namespace {
std::atomic<LogLevel> g_level{LogLevel::kWarn};

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}
}  // namespace

LogLevel log_level() {
  // order: relaxed — the level is a standalone filter value; no other
  // data is published through it.
  return g_level.load(std::memory_order_relaxed);
}
void set_log_level(LogLevel level) {
  // order: relaxed — see log_level().
  g_level.store(level, std::memory_order_relaxed);
}

void log_message(LogLevel level, const std::string& msg) {
  if (level < log_level()) return;
  std::fprintf(stderr, "[%s] %s\n", level_name(level), msg.c_str());
}

}  // namespace gcg
