#include "obs/export.hpp"

#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "obs/analyze.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace pgasm::obs {

namespace {

void write_file(const std::filesystem::path& path, const std::string& body) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw std::runtime_error("obs: cannot open " + path.string() +
                             " for writing");
  }
  out.write(body.data(), static_cast<std::streamsize>(body.size()));
  if (!out) {
    throw std::runtime_error("obs: short write to " + path.string());
  }
}

}  // namespace

void begin_run() {
  registry().clear();
  tracer().clear();
  tracer().set_enabled(true);
  set_phase("");
}

void write_run_outputs(const std::string& dir) {
  const std::filesystem::path base(dir);
  std::error_code ec;
  std::filesystem::create_directories(base, ec);
  if (ec) {
    throw std::runtime_error("obs: cannot create directory " + dir + ": " +
                             ec.message());
  }
  // Surface ring overflow as a first-class metric before snapshotting: a
  // truncated trace must be visible in metrics.jsonl, not just in the
  // analyzer's warnings.
  for (const auto& [rank, n] : tracer().dropped_by_rank()) {
    if (n != 0) registry().counter("trace.dropped_events", rank).inc(n);
  }

  const Analysis analysis = analyze_current();
  write_file(base / "summary.txt", registry().summary_table() +
                                       "\n== attribution ==\n" +
                                       analysis.to_text());
  write_file(base / "metrics.jsonl", registry().to_jsonl());
  write_file(base / "trace.json", tracer().to_chrome_json());
  write_file(base / "attribution.json", analysis.to_json());
}

}  // namespace pgasm::obs
