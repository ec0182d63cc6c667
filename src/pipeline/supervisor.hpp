// Pipeline recovery supervisor (DESIGN.md "End-to-end recovery").
//
// Wraps each pipeline phase in a retry loop with capped exponential
// backoff (10 ms doubling to a 250 ms cap), kMaxAttempts attempts per
// phase. The supervisor keeps no durable state of its own: what a rerun
// may reuse is decided by the persisted artifact itself (clustering's
// final checkpoint carries the hashes it is valid for).
//
// Required phases rethrow once attempts are exhausted. Optional phases
// (ground-truth validation, obs export) are instead marked *degraded*: the
// pipeline completes without them, loudly — a warning log plus the
// recovery.degraded_phases counter in summary.txt.
//
// Fault injection contract: callers pass their vmpi::FaultPlan only on
// attempt 0 (the `attempt` argument of the phase body), so a chaos run
// that breaks a phase retries it clean instead of replaying the same
// crash forever.
#pragma once

#include <cstdint>
#include <functional>

namespace pgasm::pipeline {

/// Pipeline phases, named in retry and degrade logs.
enum class PhaseId : std::uint32_t {
  kPreprocess,
  kCluster,
  kAssembly,
  kValidation,
  kObsExport,
};

/// Attempts per supervised phase before giving up.
inline constexpr std::uint32_t kMaxAttempts = 3;

struct SupervisorStats {
  std::uint64_t phase_retries = 0;     ///< attempts beyond each first one
  std::uint64_t degraded_phases = 0;   ///< optional phases given up on
  std::uint64_t phases_skipped_resume = 0;  ///< restored from a checkpoint
};

class Supervisor {
 public:
  /// Disabled = run_phase makes one attempt and lets exceptions propagate
  /// (the un-supervised behavior).
  explicit Supervisor(bool enabled) : enabled_(enabled) {}

  bool enabled() const noexcept { return enabled_; }

  /// Run `body(attempt)` with retry + backoff. Returns true on success;
  /// for optional (`required == false`) phases returns false after
  /// exhausting attempts, marking the phase degraded. Required phases
  /// rethrow the last failure.
  bool run_phase(PhaseId id, bool required,
                 const std::function<void(std::uint32_t attempt)>& body);

  /// Record that a phase was satisfied from persisted state without running.
  void note_skipped() { ++stats_.phases_skipped_resume; }

  const SupervisorStats& stats() const noexcept { return stats_; }

  /// Publish recovery.* counters into the obs registry (phase label
  /// "recovery") so they land in summary.txt / metrics.jsonl.
  void publish_obs() const;

 private:
  bool enabled_;
  SupervisorStats stats_;
};

}  // namespace pgasm::pipeline
