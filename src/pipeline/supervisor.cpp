#include "pipeline/supervisor.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/backoff.hpp"
#include "util/log.hpp"

namespace pgasm::pipeline {

namespace fs = std::filesystem;

namespace {

constexpr const char* kManifestPrefix = "manifest.";
constexpr const char* kManifestSuffix = ".pgmf";

// Backoff between attempts (seconds): short enough that a retried phase
// costs little, capped so a third attempt does not wait long either.
constexpr double kBackoffInitial = 0.01;
constexpr double kBackoffMultiplier = 2.0;
constexpr double kBackoffCap = 0.25;

// Manifest generations kept on disk: this run's and the one it adopted.
constexpr std::uint64_t kKeepGenerations = 2;

/// Parse `manifest.<gen>.pgmf` -> generation; false for any other name.
bool parse_generation(const std::string& name, std::uint64_t* gen) {
  const std::string prefix = kManifestPrefix;
  const std::string suffix = kManifestSuffix;
  if (name.size() <= prefix.size() + suffix.size()) return false;
  if (name.compare(0, prefix.size(), prefix) != 0) return false;
  if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0)
    return false;
  const std::string digits =
      name.substr(prefix.size(), name.size() - prefix.size() - suffix.size());
  if (digits.empty()) return false;
  std::uint64_t value = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  *gen = value;
  return true;
}

std::string manifest_path(const std::string& dir, std::uint64_t gen) {
  return dir + "/" + kManifestPrefix + std::to_string(gen) + kManifestSuffix;
}

}  // namespace

const char* phase_name(PhaseId id) noexcept {
  switch (id) {
    case PhaseId::kPreprocess: return "preprocess";
    case PhaseId::kCluster: return "cluster";
    case PhaseId::kAssembly: return "assembly";
    case PhaseId::kValidation: return "validation";
    case PhaseId::kObsExport: return "obs_export";
  }
  return "unknown";
}

Supervisor::Supervisor(SupervisorParams params) : params_(std::move(params)) {
  manifest_.input_hash = params_.input_hash;
  manifest_.params_hash = params_.params_hash;
  if (!enabled()) return;
  std::error_code ec;
  fs::create_directories(params_.dir, ec);  // best effort; save will complain
  load();
  // This run writes the next generation; the adopted one stays intact on
  // disk until GC, so a crash before any phase completes loses nothing.
  // Numbered past every file seen — including rejected ones — so a corrupt
  // newest generation is never overwritten (it stays on disk as evidence).
  manifest_.generation = max_gen_seen_ + 1;
}

void Supervisor::load() {
  std::error_code ec;
  std::vector<std::pair<std::uint64_t, std::string>> found;
  for (fs::directory_iterator it(params_.dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    std::uint64_t gen = 0;
    const std::string name = it->path().filename().string();
    if (parse_generation(name, &gen)) {
      found.emplace_back(gen, it->path().string());
      max_gen_seen_ = std::max(max_gen_seen_, gen);
    }
  }
  std::sort(found.begin(), found.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  for (const auto& [gen, path] : found) {
    auto result = core::try_load_manifest(path);
    if (!result) {
      ++stats_.manifests_rejected;
      util::log_warn() << "ignoring unusable run manifest " << path << ": "
                       << result.error().message();
      continue;
    }
    core::RunManifest m = std::move(result).value();
    const bool matches =
        (params_.input_hash == 0 || m.input_hash == 0 ||
         m.input_hash == params_.input_hash) &&
        (params_.params_hash == 0 || m.params_hash == 0 ||
         m.params_hash == params_.params_hash);
    if (!matches) {
      // A manifest for a different input/configuration is stale, not
      // corrupt: skip it quietly (it may belong to a concurrent setup).
      ++stats_.manifests_rejected;
      continue;
    }
    loaded_ = std::move(m);
    has_loaded_ = true;
    return;
  }
}

void Supervisor::persist() {
  if (!enabled()) return;
  stats_.manifest_bytes_written += core::save_manifest(
      manifest_path(params_.dir, manifest_.generation), manifest_);
  if (gc_done_) return;
  gc_done_ = true;
  if (manifest_.generation <= kKeepGenerations) return;
  std::error_code ec;
  for (fs::directory_iterator it(params_.dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    std::uint64_t gen = 0;
    if (parse_generation(it->path().filename().string(), &gen) &&
        gen + kKeepGenerations <= manifest_.generation) {
      std::error_code rm;
      fs::remove(it->path(), rm);
    }
  }
}

core::PhaseEntry& Supervisor::entry(PhaseId id) {
  const auto phase = static_cast<std::uint32_t>(id);
  for (auto& e : manifest_.phases) {
    if (e.phase == phase) return e;
  }
  core::PhaseEntry e;
  e.phase = phase;
  manifest_.phases.push_back(e);
  return manifest_.phases.back();
}

bool Supervisor::completed_in_manifest(PhaseId id) const noexcept {
  if (!has_loaded_) return false;
  const auto phase = static_cast<std::uint32_t>(id);
  for (const auto& e : loaded_.phases) {
    if (e.phase == phase) return e.completed != 0;
  }
  return false;
}

bool Supervisor::degraded(PhaseId id) const noexcept {
  const auto phase = static_cast<std::uint32_t>(id);
  for (const auto& e : manifest_.phases) {
    if (e.phase == phase) return e.degraded != 0;
  }
  return false;
}

void Supervisor::note_skipped(PhaseId id) {
  ++stats_.phases_skipped_resume;
  auto& e = entry(id);
  e.completed = 1;
  persist();
}

bool Supervisor::run_phase(
    PhaseId id, bool required,
    const std::function<void(std::uint32_t attempt)>& body) {
  if (!enabled()) {
    // Un-supervised runs keep the original semantics: one attempt, any
    // failure propagates to the caller.
    body(0);
    return true;
  }
  util::ExponentialBackoff backoff(kBackoffInitial, kBackoffMultiplier,
                                   kBackoffCap);
  const std::uint32_t max_attempts = std::max<std::uint32_t>(1, params_.max_attempts);
  for (std::uint32_t attempt = 0;; ++attempt) {
    try {
      body(attempt);
      auto& e = entry(id);
      e.attempts = attempt + 1;
      e.completed = 1;
      e.degraded = 0;
      persist();
      return true;
    } catch (const std::exception& ex) {
      if (attempt + 1 >= max_attempts) {
        if (required) throw;
        auto& e = entry(id);
        e.attempts = attempt + 1;
        e.completed = 0;
        e.degraded = 1;
        ++stats_.degraded_phases;
        util::log_warn() << "optional phase '" << phase_name(id)
                         << "' degraded (skipped) after " << (attempt + 1)
                         << " attempts; last failure: " << ex.what();
        if (obs::tracer().enabled()) {
          obs::registry()
              .counter("recovery.degraded_phases", obs::kNoRank, "recovery")
              .inc(1);
        }
        persist();
        return false;
      }
      ++stats_.phase_retries;
      util::log_warn() << "phase '" << phase_name(id) << "' attempt "
                       << (attempt + 1) << " failed: " << ex.what()
                       << "; retrying in " << backoff.current() << "s";
      std::this_thread::sleep_for(
          std::chrono::duration<double>(backoff.next()));
    }
  }
}

void Supervisor::publish_obs() const {
  if (!obs::tracer().enabled()) return;
  auto& reg = obs::registry();
  const char* ph = "recovery";
  const auto c = [&](const char* name, std::uint64_t v) {
    if (v != 0) reg.counter(name, obs::kNoRank, ph).inc(v);
  };
  c("recovery.phase_retries", stats_.phase_retries);
  c("recovery.phases_skipped_resume", stats_.phases_skipped_resume);
  c("recovery.manifests_rejected", stats_.manifests_rejected);
  c("recovery.checkpoint_bytes", stats_.manifest_bytes_written);
  // degraded_phases is published at degradation time (the loud event);
  // re-publishing here would double count.
}

}  // namespace pgasm::pipeline
