#include "pipeline/supervisor.hpp"

#include <chrono>
#include <exception>
#include <thread>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/backoff.hpp"
#include "util/log.hpp"

namespace pgasm::pipeline {

namespace {

// Backoff between attempts (seconds): short enough that a retried phase
// costs little, capped so a third attempt does not wait long either.
constexpr double kBackoffInitial = 0.01;
constexpr double kBackoffMultiplier = 2.0;
constexpr double kBackoffCap = 0.25;

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

}  // namespace

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
  for (std::uint32_t attempt = 0;; ++attempt) {
    try {
      body(attempt);
      return true;
    } catch (const std::exception& ex) {
      if (attempt + 1 >= kMaxAttempts) {
        if (required) throw;
        ++stats_.degraded_phases;
        util::log_warn() << "optional phase '" << phase_name(id)
                         << "' degraded (skipped) after " << (attempt + 1)
                         << " attempts; last failure: " << ex.what();
        if (obs::tracer().enabled()) {
          obs::registry()
              .counter("recovery.degraded_phases", obs::kNoRank, "recovery")
              .inc(1);
        }
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
  // degraded_phases is published at degradation time (the loud event);
  // re-publishing here would double count.
}

}  // namespace pgasm::pipeline
