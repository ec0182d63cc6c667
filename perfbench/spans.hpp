// In-memory span recorder for the traced run. Each span has a name, a
// start, an end and the span that caused it; the benchmark opens one
// around every layer call it makes. Spans are kept in memory and written
// once, as Chrome-trace JSON (chrome://tracing, ui.perfetto.dev).
#pragma once

#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class SpanRecorder {
 public:
  static constexpr int kNoParent = -1;

  int open(std::string name, int parent = kNoParent) {
    spans_.push_back({std::move(name), parent, now(), -1.0, {}});
    return static_cast<int>(spans_.size()) - 1;
  }

  /// Close span `id`; returns its duration in seconds.
  double close(int id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end = now();
    return s.end - s.start;
  }

  void arg(int id, const std::string& key, double value) {
    spans_[static_cast<std::size_t>(id)].args[key] = value;
  }

  /// Writes every closed span; returns false if the file cannot be written.
  bool write_chrome_trace(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    bool first = true;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.end < 0) continue;
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                   "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"id\":%zu,\"parent\":%d",
                   first ? "" : ",", s.name.c_str(), s.start * 1e6,
                   (s.end - s.start) * 1e6, i, s.parent);
      for (const auto& [k, v] : s.args) {
        std::fprintf(f, ",\"%s\":%.17g", k.c_str(), v);
      }
      std::fprintf(f, "}}");
      first = false;
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    std::string name;
    int parent;
    double start;
    double end;
    std::map<std::string, double> args;
  };

  double now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0_)
        .count();
  }

  std::chrono::steady_clock::time_point t0_ = std::chrono::steady_clock::now();
  std::vector<Span> spans_;
};

}  // namespace perfbench
