// Output checks and derived metrics of the benchmark. Pure functions, so
// the known-answer tests in selftest.cpp can drive them with hand-built
// layouts and times.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "olc/assembler.hpp"
#include "pipeline/pipeline.hpp"
#include "sim/reads.hpp"
#include "util/union_find.hpp"

namespace perfbench {

/// Empty when `a` and `b` hold the same sequences, qualities and fragment
/// types in the same order; otherwise the first difference.
std::string store_difference(const pgasm::seq::FragmentStore& a,
                             const pgasm::seq::FragmentStore& b);

/// The pipeline's cluster order: non-singletons by decreasing size, ties
/// by smallest member, then singletons (pipeline::PipelineResult docs).
std::vector<std::vector<std::uint32_t>> ordered_cluster_sets(
    const pgasm::util::UnionFind& clusters);

/// Canonical bytes of a partition (cluster order and members) and of the
/// contigs (consensus and layout, in emission order). Two runs agree byte
/// for byte iff these strings are equal.
std::string partition_bytes(
    const std::vector<std::vector<std::uint32_t>>& cluster_sets);
std::string contig_bytes(
    const std::vector<pgasm::olc::AssemblyResult>& assemblies);

/// A fragment's true source interval.
struct Locus {
  std::uint32_t genome = 0;
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
};

/// One contig's members' loci in layout order (by contig offset).
using ContigLoci = std::vector<Locus>;

/// Loci of every contig's members. `truth` is parallel to the ids the
/// clustering ran on (result.pre.store).
std::vector<ContigLoci> contig_loci(
    const std::vector<std::vector<std::uint32_t>>& cluster_sets,
    const std::vector<pgasm::olc::AssemblyResult>& assemblies,
    const std::vector<pgasm::sim::ReadTruth>& truth);

/// Share of source bases covered by the union of the member intervals of
/// multi-fragment contigs. `genome_lengths` is indexed by Locus::genome.
double genome_frac(const std::vector<ContigLoci>& contigs,
                   std::span<const std::uint64_t> genome_lengths);

/// Layout neighbours whose true source intervals neither overlap nor abut
/// (different genomes count as a misjoin).
std::uint64_t misjoins(const std::vector<ContigLoci>& contigs);

/// The pipeline's static assignment of clusters (already in pipeline
/// order) to ranks: cluster i runs on rank i mod `ranks`.
struct RoundRobin {
  double makespan = 0;   ///< largest per-rank sum
  double imbalance = 1;  ///< makespan over (total / ranks); 1 when empty
};
RoundRobin round_robin(std::span<const double> cluster_seconds, int ranks);

/// Banded DP cells one pair_overlap_details call fills, computed from the
/// two lengths, the anchor shift and the band (not counted by the kernel).
std::uint64_t banded_cells(std::uint32_t len_a, std::uint32_t len_b,
                           std::int32_t shift, std::uint32_t band);

/// Quality of a pipeline result against the simulator's ground truth.
struct Quality {
  double purity = 0;
  double clusters_per_island = 0;
  std::uint64_t n50_bp = 0;
  double consensus_err_per_10k = 0;
  double genome_frac = 0;
  std::uint64_t misjoins = 0;
};
Quality evaluate_quality(const pgasm::pipeline::PipelineResult& result,
                         const std::vector<pgasm::sim::ReadTruth>& raw_truth,
                         std::span<const pgasm::sim::Genome> genomes);

}  // namespace perfbench
