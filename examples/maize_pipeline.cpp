// Maize-style gene-enriched assembly (paper Section 8).
//
// Simulates a repeat-rich, gene-poor genome (the paper's maize: 65-80%
// repeats, 10-15% genes) sampled with the four strategies of Table 2 —
// methyl-filtration (MF), High-C0t (HC), BAC-derived and WGS — then runs
// preprocessing, parallel clustering, and per-cluster assembly, reporting
// the same statistics the paper reports:
//   * Table 2: fragments/bases by type before and after preprocessing,
//   * Section 8: cluster counts, singletons, largest cluster, avg
//     fragments/cluster, contigs/cluster,
//   * ground-truth purity (the simulator's analogue of Section 8's
//     validation against finished maize genes).
//
//   ./maize_pipeline --genome 400000 --ranks 4
#include <cstdio>

#include "pipeline/pipeline.hpp"
#include "pipeline/validation.hpp"
#include "sim/genome.hpp"
#include "sim/reads.hpp"
#include "util/flags.hpp"
#include "util/stats.hpp"

using namespace pgasm;

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const std::uint64_t genome_len = flags.get_u64("genome", 300'000);
  const int ranks = static_cast<int>(flags.get_i64("ranks", 4));
  const std::uint64_t seed = flags.get_u64("seed", 2006);
  const double wgs_cov = flags.get_double("wgs-coverage", 1.0);
  const std::string obs_out = flags.get_string("obs-out", "");
  flags.finish();

  // --- Simulate the maize-like pilot data set -----------------------------
  const auto genome = sim::simulate_genome(sim::maize_like(genome_len, seed));
  std::fprintf(stderr,
               "genome: %llu bp, %.0f%% repeats, %.0f%% genes (%zu islands)\n",
               static_cast<unsigned long long>(genome.length()),
               100 * genome.repeat_fraction(), 100 * genome.gene_fraction(),
               genome.gene_islands.size());

  util::Prng rng(seed + 1);
  sim::ReadSet rs;
  sim::ReadParams rp;
  rp.len_mean = 650;
  rp.len_spread = 150;
  // The pilot projects' mixture (paper Table 2): MF + HC gene-enriched,
  // BAC-derived, and random WGS.
  const std::size_t enriched_n = genome_len / 900;
  sim::sample_gene_enriched(rs, genome, enriched_n, 0.90, rp, rng,
                            seq::FragType::kMF);
  sim::sample_gene_enriched(rs, genome, enriched_n, 0.85, rp, rng,
                            seq::FragType::kHC);
  sim::sample_bac(rs, genome, 3, static_cast<std::uint32_t>(genome_len / 15),
                  0.6, rp, rng);
  sim::sample_wgs(rs, genome, wgs_cov, rp, rng);
  std::fprintf(stderr, "sampled %zu fragments, %s\n", rs.store.size(),
               util::fmt_bytes(rs.store.total_length()).c_str());

  // --- Run the full pipeline ----------------------------------------------
  pipeline::PipelineParams params;
  params.ranks = ranks;
  params.pre.repeat.sample_fraction = 1.0;  // scaled-down project: use all WGS
  params.cluster.psi = 20;
  params.cluster.overlap.min_overlap = 40;
  params.cluster.overlap.min_identity = 0.93;
  params.assembly.overlap.min_identity = 0.96;  // CAP3-like stringency
  params.obs_dir = obs_out;
  const auto result =
      pipeline::run_pipeline(rs.store, sim::vector_library(), params);

  // --- Table 2 style report ------------------------------------------------
  std::printf("\n== Preprocessing by fragment type (cf. paper Table 2) ==\n");
  util::Table t2({"type", "frags before", "Mbp before", "frags after",
                  "Mbp after", "survival"});
  for (const auto& [type, ts] : result.pre.stats.by_type) {
    t2.add_row({seq::frag_type_name(type), util::fmt_count(ts.fragments_before),
                util::fmt_double(ts.bases_before / 1e6, 3),
                util::fmt_count(ts.fragments_after),
                util::fmt_double(ts.bases_after / 1e6, 3),
                util::fmt_percent(
                    ts.fragments_before
                        ? static_cast<double>(ts.fragments_after) /
                              static_cast<double>(ts.fragments_before)
                        : 0.0)});
  }
  t2.print();

  // --- Clustering report (cf. paper Section 8) -----------------------------
  const auto& cs = result.cluster_summary;
  const auto& st = result.cluster_stats;
  std::printf("\n== Clustering (%d ranks) ==\n", ranks);
  std::printf("fragments clustered:      %s\n",
              util::fmt_count(cs.total_fragments).c_str());
  std::printf("non-singleton clusters:   %s\n",
              util::fmt_count(cs.num_clusters).c_str());
  std::printf("singletons:               %s\n",
              util::fmt_count(cs.num_singletons).c_str());
  std::printf("avg fragments / cluster:  %.2f\n", cs.avg_fragments_per_cluster);
  std::printf("largest cluster:          %s (%.2f%% of input)\n",
              util::fmt_count(cs.max_cluster_size).c_str(),
              100 * cs.max_cluster_fraction);
  std::printf("promising pairs:          %s generated, %s aligned, %s accepted\n",
              util::fmt_count(st.pairs_generated).c_str(),
              util::fmt_count(st.pairs_aligned).c_str(),
              util::fmt_count(st.pairs_accepted).c_str());
  std::printf("alignments saved:         %s\n",
              util::fmt_percent(st.savings_fraction()).c_str());
  if (ranks >= 2) {
    std::printf("master availability:      %s\n",
                util::fmt_percent(st.master_availability).c_str());
  }

  // --- Assembly report ------------------------------------------------------
  const auto& as = result.assembly_summary;
  std::printf("\n== Per-cluster assembly ==\n");
  std::printf("clusters assembled:       %zu\n", as.clusters_assembled);
  std::printf("contigs:                  %zu (%.2f per cluster)\n",
              as.total_contigs, as.contigs_per_cluster);
  std::printf("consensus:                %s, N50 %s bp\n",
              util::fmt_bytes(as.consensus_bases).c_str(),
              util::fmt_count(as.n50).c_str());

  // --- Ground-truth validation ----------------------------------------------
  std::vector<sim::ReadTruth> kept_truth;
  kept_truth.reserve(result.pre.kept_ids.size());
  for (auto id : result.pre.kept_ids) kept_truth.push_back(rs.truth[id]);
  const auto purity =
      pipeline::evaluate_purity(result.cluster_sets, kept_truth);
  std::printf("\n== Validation against simulator ground truth ==\n");
  std::printf("clusters mapping to one benchmark region: %s (paper: 98.7%%)\n",
              util::fmt_percent(purity.purity).c_str());
  std::printf("benchmark islands: %zu, avg clusters per island: %.2f\n",
              purity.islands, purity.avg_clusters_per_island);
  return 0;
}
