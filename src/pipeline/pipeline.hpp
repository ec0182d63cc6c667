// End-to-end cluster-then-assemble pipeline (paper Fig. 1):
//
//   raw fragments -> preprocessing (trim, screen, mask)
//                 -> clustering (serial or parallel master-worker)
//                 -> per-cluster serial assembly
//                 -> contigs + summaries
//
// This is the driver the examples and most benches use.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/cluster_params.hpp"
#include "core/parallel_cluster.hpp"
#include "olc/assembler.hpp"
#include "olc/scaffold.hpp"
#include "pipeline/supervisor.hpp"
#include "preprocess/preprocess.hpp"
#include "seq/fragment_store.hpp"

namespace pgasm::pipeline {

struct PipelineResult;

struct PipelineParams {
  preprocess::PreprocessParams pre{};
  core::ClusterParams cluster{};
  olc::AssemblyParams assembly{};
  /// 0 = serial clustering; >= 2 = parallel with this many vmpi ranks.
  int ranks = 0;
  vmpi::CostParams cost{};
  bool run_preprocess = true;
  bool run_assembly = true;
  /// Fault-injection plan applied to the parallel clustering runtime
  /// (testing/chaos runs; see DESIGN.md "Fault model & recovery").
  vmpi::FaultPlan faults{};
  /// Non-empty: engage the recovery supervisor (see pipeline/supervisor.hpp
  /// and DESIGN.md "End-to-end recovery"). Periodic cluster checkpoints and
  /// the generation-numbered run manifest live in this directory; phases
  /// are retried with capped backoff (faults
  /// injected on the first attempt only) and a rerun resumes from whatever
  /// persisted state the manifest vouches for — a completed clustering is
  /// restored from its final checkpoint instead of recomputed.
  std::string checkpoint_dir;
  /// Attempts per supervised phase before giving up (min 1); only
  /// meaningful with a non-empty checkpoint_dir.
  std::uint32_t phase_max_attempts = 3;
  /// Optional post-assembly phase (ground-truth validation, scaffold stats,
  /// report writing). Runs under the supervisor as a NON-required phase:
  /// if it keeps failing the pipeline completes without it, marking the
  /// phase degraded (warning log + recovery.degraded_phases counter)
  /// instead of aborting. Without a checkpoint_dir it runs once and any
  /// failure propagates.
  std::function<void(const PipelineResult&)> optional_post_phase;
  /// Non-empty: enable the obs metrics registry + per-rank tracer for this
  /// run and write summary.txt / metrics.jsonl / trace.json /
  /// attribution.json into this directory when the pipeline finishes (see
  /// src/obs/export.hpp). The trace opens in chrome://tracing or
  /// ui.perfetto.dev.
  std::string obs_dir;
  /// Per-rank tracer ring capacity (events). 0 keeps the tracer default
  /// (8192). Overflow drops the oldest events and marks every analysis a
  /// lower bound, so runs that feed perf gates should size this to hold the
  /// whole run (the trace.dropped_events metric says when they didn't).
  std::size_t trace_capacity = 0;
};

/// Paper Section 8's clustering effectiveness measures.
struct ClusterSummary {
  std::size_t total_fragments = 0;
  std::size_t num_clusters = 0;    ///< clusters with >= 2 fragments
  std::size_t num_singletons = 0;
  double avg_fragments_per_cluster = 0;  ///< over non-singleton clusters
  std::uint32_t max_cluster_size = 0;
  double max_cluster_fraction = 0;  ///< of total fragments
};

struct AssemblySummary {
  std::size_t clusters_assembled = 0;
  std::size_t total_contigs = 0;  ///< multi-fragment contigs
  double contigs_per_cluster = 0; ///< paper: ~1.1 for maize
  std::uint64_t n50 = 0;
  std::uint64_t consensus_bases = 0;
  double assembly_seconds = 0;
  /// Modeled parallel time of the assembly phase when it ran distributed
  /// (paper: CAP3 across 40 processors, "trivially parallelized").
  double assembly_modeled_seconds = 0;
};

struct PipelineResult {
  preprocess::PreprocessResult pre;
  util::UnionFind clusters;  ///< over pre.store fragment ids
  core::ClusterStats cluster_stats;
  vmpi::RunCost cost;  ///< populated for parallel runs
  /// Cluster membership (ids into pre.store), non-singletons first by
  /// decreasing size, then singletons.
  std::vector<std::vector<std::uint32_t>> cluster_sets;
  std::vector<olc::AssemblyResult> assemblies;  ///< per non-singleton cluster
  ClusterSummary cluster_summary;
  AssemblySummary assembly_summary;
  /// Recovery supervisor bookkeeping (all zero without a checkpoint_dir).
  SupervisorStats recovery;
};

PipelineResult run_pipeline(const seq::FragmentStore& raw,
                            const std::vector<std::vector<seq::Code>>& vectors,
                            const PipelineParams& params);

ClusterSummary summarize_clusters(const util::UnionFind& clusters);

/// Scaffolding across the whole assembly (paper Section 2 downstream
/// phase): clone-mate links — expressed in *raw* store read ids — are
/// remapped through preprocessing survival and the per-cluster assemblies
/// into one global contig list, then bundled into scaffolds. Mates whose
/// reads were invalidated or left unassembled are dropped (counted).
struct GlobalScaffolds {
  /// All contigs across the assembled clusters; layouts carry fragment ids
  /// of the preprocessed store (result.pre.store).
  std::vector<olc::Contig> contigs;
  olc::ScaffoldResult result;
  std::uint64_t mates_dropped = 0;  ///< a read did not survive preprocessing
  std::uint64_t contig_n50 = 0;
  std::uint64_t scaffold_span_n50 = 0;
};

/// `raw_size` is the raw store's fragment count (bounds checking).
GlobalScaffolds build_scaffolds(
    const PipelineResult& pipeline_result,
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& raw_mates,
    const std::vector<std::uint32_t>& mate_inserts, std::size_t raw_size,
    const olc::ScaffoldParams& params = {});

}  // namespace pgasm::pipeline
