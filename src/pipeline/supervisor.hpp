// Pipeline recovery supervisor (DESIGN.md "End-to-end recovery").
//
// Wraps each pipeline phase in a retry loop with capped exponential
// backoff (10 ms doubling to a 250 ms cap) and owns the run manifest: a
// generation-numbered, CRC-protected record (core::RunManifest inside the
// wire frame) of which phases completed, written atomically after every
// phase transition. On start the
// newest on-disk generation whose input/params hashes match the run is
// adopted, so a restarted pipeline knows which phases' persisted state it
// may reuse; corrupt or mismatched manifests are counted and skipped, and
// all but the newest two generations are garbage-collected.
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
#include <string>

#include "core/wire.hpp"

namespace pgasm::pipeline {

/// Manifest phase ids (PhaseEntry::phase). Values are the on-disk format:
/// append only, never renumber.
enum class PhaseId : std::uint32_t {
  kPreprocess = 0,
  kCluster = 1,
  kAssembly = 2,
  kValidation = 3,
  kObsExport = 4,
};

const char* phase_name(PhaseId id) noexcept;

struct SupervisorParams {
  /// Manifest directory. Empty = supervisor disabled: run_phase makes one
  /// attempt and lets exceptions propagate (the un-supervised behavior).
  std::string dir;
  /// Attempts per phase before giving up (min 1).
  std::uint32_t max_attempts = 3;
  /// Hashes a loaded manifest must match to be adopted (0 = skip check).
  std::uint64_t input_hash = 0;
  std::uint64_t params_hash = 0;
};

struct SupervisorStats {
  std::uint64_t phase_retries = 0;     ///< attempts beyond each first one
  std::uint64_t degraded_phases = 0;   ///< optional phases given up on
  std::uint64_t phases_skipped_resume = 0;  ///< restored from a checkpoint
  std::uint64_t manifests_rejected = 0;     ///< corrupt/mismatched on load
  std::uint64_t manifest_bytes_written = 0;
};

class Supervisor {
 public:
  explicit Supervisor(SupervisorParams params);

  bool enabled() const noexcept { return !params_.dir.empty(); }

  /// True when the adopted on-disk manifest says `id` completed. Only
  /// phases with persisted state (clustering's final checkpoint) can
  /// actually be skipped; the caller decides.
  bool completed_in_manifest(PhaseId id) const noexcept;

  /// Run `body(attempt)` with retry + backoff. Returns true on success;
  /// for optional (`required == false`) phases returns false after
  /// exhausting attempts, marking the phase degraded. Required phases
  /// rethrow the last failure. On success the phase is recorded completed
  /// and the manifest is persisted.
  bool run_phase(PhaseId id, bool required,
                 const std::function<void(std::uint32_t attempt)>& body);

  /// Record that `id` was satisfied from persisted state without running
  /// (counts toward phases_skipped_resume; keeps the manifest entry
  /// completed).
  void note_skipped(PhaseId id);

  bool degraded(PhaseId id) const noexcept;

  const SupervisorStats& stats() const noexcept { return stats_; }
  std::uint64_t generation() const noexcept { return manifest_.generation; }

  /// Publish recovery.* counters into the obs registry (phase label
  /// "recovery") so they land in summary.txt / metrics.jsonl.
  void publish_obs() const;

 private:
  core::PhaseEntry& entry(PhaseId id);
  void load();
  void persist();

  SupervisorParams params_;
  core::RunManifest manifest_;  ///< this run's manifest (next generation)
  core::RunManifest loaded_;    ///< newest valid on-disk manifest
  std::uint64_t max_gen_seen_ = 0;  ///< incl. rejected files (no gen reuse)
  bool has_loaded_ = false;
  bool gc_done_ = false;
  SupervisorStats stats_;
};

}  // namespace pgasm::pipeline
