// Parameters and statistics for the clustering framework (the paper's
// primary contribution, Sections 4 and 7).
#pragma once

#include <cstdint>
#include <string>

#include "align/overlap.hpp"

namespace pgasm::core {

struct ClusterParams {
  /// ψ: minimum maximal-match length for a promising pair (Section 4).
  std::uint32_t psi = 20;
  /// w: bucket prefix length for the parallel GST build, in [1, min(ψ, 12)].
  std::uint32_t prefix_w = 6;
  /// Suffix–prefix alignment acceptance (less stringent than assembly).
  align::OverlapParams overlap{};
  /// b: pairs per dispatched alignment batch (Section 7).
  std::uint32_t batch_size = 256;
  /// Capacity of a worker's New_Pairs_Buf (pairs).
  std::uint32_t new_pairs_buf = 8192;
  /// Capacity of the master's Pending_Work_Buf (pairs).
  std::uint32_t pending_work_buf = 1u << 16;
  /// Fragment-level pair generation with duplicate elimination (Section 5).
  bool dup_elim = true;
  /// Process pairs in decreasing maximal-match order. Setting this false
  /// (ablation) shuffles the pair stream before processing, reproducing
  /// what a lookup-table filter without prioritization would do.
  bool ordered = true;
  /// Workers report with synchronous sends (the paper uses MPI_Ssend to
  /// protect the master's buffers; it costs ~30% — ablation flag).
  bool use_ssend = true;
  /// Target characters per fragment-fetch batch in the GST build.
  std::uint64_t fetch_batch_chars = 1u << 20;
  /// Extension of the paper's future work (Section 10): resolve
  /// inconsistent overlaps during cluster formation. Accepted overlaps
  /// carry an implied relative placement (orientation + offset); a merge
  /// whose placement contradicts the cluster's existing layout is refused.
  /// This curbs repeat-driven giant clusters (single-linkage chaining) at
  /// the cost of making the result order-dependent.
  bool resolve_inconsistent = false;
  /// Placement agreement tolerance (shift difference, bp) for the above.
  std::int64_t placement_tolerance = 12;
  /// Section 7.2 suggestion: scale the dispatch granularity with the
  /// worker count so the master's message rate stays constant as p grows.
  bool adaptive_batch = false;
  /// vmpi transport backend: "thread" (default), "proc" (real forked
  /// processes over shared-memory rings), or "" to defer to the
  /// PGASM_TRANSPORT environment variable. Operational knob — the contig
  /// output is transport-invariant, so it is excluded from
  /// cluster_params_hash (a thread-run checkpoint resumes under proc).
  std::string transport;

  // --- fault tolerance (see DESIGN.md "Fault model & recovery") ---------
  // Worker death is never inferred from silence: the master declares a
  // worker dead only when the transport reports its rank failed.
  /// Worker-side bound (seconds) on waiting for the reply to a sent report.
  /// On expiry the worker retransmits the report (same sequence number —
  /// the master discards duplicates and re-sends its cached reply).
  /// Without the bound, one dropped report or reply livelocks the run with
  /// both sides looking healthy.
  double reply_timeout = 2.0;
  /// Retransmissions of one report before the worker gives up and fails
  /// its own rank (the master then reassigns its work like any crash).
  std::uint32_t reply_max_retries = 8;
  /// Write a ClusterCheckpoint every N processed worker reports
  /// (0 = checkpointing disabled). Requires checkpoint_path.
  std::uint32_t checkpoint_every_reports = 0;
  /// Checkpoint file location (written atomically via temp + rename).
  std::string checkpoint_path;
  /// Fault-tolerant GST construction: a rank death during the build phase
  /// is survived (buckets reassigned to confirmed survivors) instead of
  /// aborting the run. Opt-in because the point-to-point protocol adds
  /// user-channel sends, which shifts the send indices FaultPlan rules key
  /// on. Operational knob — excluded from cluster_params_hash.
  bool fault_tolerant_gst = false;
  /// Where to record the final GST bucket-owner table after a
  /// fault-tolerant build (empty = no GST checkpoint). On resume the
  /// recorded table short-circuits construction: every rank rebuilds its
  /// portion locally with zero GST traffic. A ClusterCheckpoint's
  /// generator positions are only meaningful under the table they were
  /// produced with, so resuming clustering requires this file to load.
  std::string gst_checkpoint_path;
};

/// Entry-point sanity check shared by cluster_serial, cluster_parallel and
/// the pipeline: rejects parameter combinations that would silently produce
/// a useless clustering (band 0, identity outside (0,1], min_overlap below
/// ψ), break the consistency check (negative placement_tolerance) or the
/// parallel GST and its checkpoint (prefix_w outside [1, min(ψ, 12)]). Throws
/// std::invalid_argument with a message naming the offending field.
void validate_cluster_params(const ClusterParams& params);

struct ClusterStats {
  std::uint64_t pairs_generated = 0;  ///< promising pairs produced
  std::uint64_t pairs_aligned = 0;    ///< selected for alignment
  std::uint64_t pairs_accepted = 0;   ///< passed the overlap test
  std::uint64_t merges = 0;           ///< cluster unions performed
  /// Accepted overlaps refused because their implied placement conflicts
  /// with the cluster layout (resolve_inconsistent extension only).
  std::uint64_t merges_rejected_inconsistent = 0;

  double gst_seconds = 0;      ///< wall time of the GST phase
  double cluster_seconds = 0;  ///< wall time of pair processing
  /// Modeled parallel times (vmpi cost model); 0 for serial runs.
  double gst_modeled_seconds = 0;
  double cluster_modeled_seconds = 0;
  double master_availability = 0;  ///< 1 - master busy / makespan
  double worker_idle_fraction = 0;

  // --- fault tolerance & recovery ---------------------------------------
  std::uint64_t workers_lost = 0;          ///< workers declared dead
  std::uint64_t batches_reassigned = 0;    ///< in-flight batches requeued
  std::uint64_t pairs_reassigned = 0;      ///< pairs in those batches
  std::uint64_t generator_takeovers = 0;   ///< roles adopted by survivors
  std::uint64_t timeouts_fired = 0;        ///< quiet master probe slices
  /// Always 0: liveness comes from the transport, the protocol sends no
  /// heartbeats. Kept so existing reports (perfbench) keep their column.
  std::uint64_t heartbeats_sent = 0;
  /// Duplicate (retransmitted) reports the master discarded — each one
  /// means a report's reply was lost or overdue and the cached reply was
  /// re-sent instead of folding the results twice.
  std::uint64_t reports_retransmitted = 0;
  std::uint64_t checkpoints_written = 0;
  std::uint64_t pairs_skipped_resume = 0;  ///< generation fast-forwarded
  std::uint64_t resumed_from_epoch = 0;    ///< 0 = fresh (not resumed) run

  // GST-phase recovery (fault_tolerant_gst runs only; summed over ranks).
  std::uint64_t gst_ranks_recovered = 0;    ///< peer inputs recomputed
  std::uint64_t gst_buckets_reassigned = 0; ///< buckets moved off dead ranks
  std::uint64_t gst_ft_retries = 0;         ///< GST receive timeouts retried
  std::uint64_t gst_resumed = 0;            ///< ranks resumed from the table

  double savings_fraction() const noexcept {
    return pairs_generated == 0
               ? 0.0
               : 1.0 - static_cast<double>(pairs_aligned) /
                           static_cast<double>(pairs_generated);
  }
};

}  // namespace pgasm::core
