// Minimal leveled logging to stderr. Thread safe (one write() per line).
//
// Each line carries a monotonic timestamp (seconds since process start) and,
// when the calling thread has registered one via set_log_rank(), a per-rank
// prefix — so interleaved multi-rank fault-recovery logs stay attributable:
//   [  12.345678] [r3] [WARN] worker: no reply from master after 8 retransmits
//
// The initial threshold is read from the PGASM_LOG_LEVEL environment
// variable (debug/info/warn/error, case-insensitive) the first time the
// logger is used; set_log_level() overrides it at runtime.
#pragma once

#include <sstream>
#include <string>

namespace pgasm::util {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

/// Global threshold; messages below it are dropped. Default: kInfo, or the
/// PGASM_LOG_LEVEL environment variable when set.
void set_log_level(LogLevel level) noexcept;
LogLevel log_level() noexcept;

/// Parse "debug"/"info"/"warn"/"error" (case-insensitive). Returns fallback
/// for null/unknown input.
LogLevel parse_log_level(const char* name,
                         LogLevel fallback = LogLevel::kInfo) noexcept;

/// Register the vmpi rank of the calling thread; subsequent log lines from
/// this thread carry an "[rN]" prefix. Pass a negative value to clear.
void set_log_rank(int rank) noexcept;
int log_rank() noexcept;  ///< -1 when the thread has no rank

/// Emit one line: "[ seconds] [rN] [LEVEL] message\n".
void log_line(LogLevel level, const std::string& message);

namespace detail {
class LogStream {
 public:
  explicit LogStream(LogLevel level) : level_(level) {}
  ~LogStream() { log_line(level_, stream_.str()); }
  template <typename T>
  LogStream& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};
}  // namespace detail

inline detail::LogStream log_debug() {
  return detail::LogStream(LogLevel::kDebug);
}
inline detail::LogStream log_info() { return detail::LogStream(LogLevel::kInfo); }
inline detail::LogStream log_warn() { return detail::LogStream(LogLevel::kWarn); }
inline detail::LogStream log_error() {
  return detail::LogStream(LogLevel::kError);
}

}  // namespace pgasm::util
