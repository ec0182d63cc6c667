// End-to-end pipeline tests and ground-truth validation machinery.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/trace.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/validation.hpp"
#include "sim/community.hpp"
#include "test_helpers.hpp"

namespace pgasm {
namespace {

using pipeline::PipelineParams;
using pipeline::run_pipeline;

PipelineParams small_pipeline_params() {
  PipelineParams p;
  p.pre.min_len = 80;
  p.pre.repeat.sample_fraction = 0.5;
  p.cluster.psi = 14;
  p.cluster.overlap.min_overlap = 30;
  p.cluster.overlap.min_identity = 0.9;
  p.cluster.prefix_w = 4;
  p.assembly.psi = 16;
  p.assembly.overlap.min_overlap = 30;
  p.assembly.overlap.min_identity = 0.93;
  return p;
}

/// run_pipeline must refuse an assembly config before clustering starts,
/// so an empty input is enough: nothing would run anyway. The message has
/// to name the offending field.
void expect_rejected(const PipelineParams& p, const std::string& field) {
  try {
    run_pipeline(seq::FragmentStore{}, {}, p);
    ADD_FAILURE() << "config with a bad " << field << " was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << e.what();
  }
}

TEST(Pipeline, RejectsZeroAssemblyBand) {
  auto p = small_pipeline_params();
  p.assembly.overlap.band = 0;
  expect_rejected(p, "band");
}

TEST(Pipeline, RejectsAssemblyIdentityOutsideUnitInterval) {
  auto p = small_pipeline_params();
  p.assembly.overlap.min_identity = 0.0;
  expect_rejected(p, "min_identity");
  p.assembly.overlap.min_identity = 1.01;
  expect_rejected(p, "min_identity");
}

TEST(Pipeline, RejectsAssemblyOverlapBelowPsi) {
  auto p = small_pipeline_params();
  p.assembly.overlap.min_overlap = p.assembly.psi - 1;
  expect_rejected(p, "min_overlap");
}

TEST(Pipeline, RejectsNegativeAssemblyTolerance) {
  auto p = small_pipeline_params();
  p.assembly.placement_tolerance = -1;
  expect_rejected(p, "placement_tolerance");
}

TEST(Pipeline, RejectsKmerLengthsOutsideOneTo32) {
  for (const std::uint32_t k : {0u, 33u}) {
    auto p = small_pipeline_params();
    p.pre.repeat.k = k;
    expect_rejected(p, "repeat.k");
    p = small_pipeline_params();
    p.pre.vector_k = k;
    expect_rejected(p, "vector_k");
  }
}

TEST(Validation, BenchmarkIslandsMergeOverlaps) {
  std::vector<sim::ReadTruth> truth = {
      {0, 0, 100, false, -1},    // island 0
      {0, 50, 150, false, -1},   // overlaps -> island 0
      {0, 149, 250, false, -1},  // chains -> island 0
      {0, 300, 400, false, -1},  // gap -> island 1
      {1, 0, 100, false, -1},    // different genome -> island 2
  };
  const auto island = pipeline::benchmark_islands(truth);
  EXPECT_EQ(island[0], island[1]);
  EXPECT_EQ(island[1], island[2]);
  EXPECT_NE(island[2], island[3]);
  EXPECT_NE(island[3], island[4]);
  EXPECT_NE(island[0], island[4]);
}

TEST(Validation, PurityDetectsMixedCluster) {
  std::vector<sim::ReadTruth> truth = {
      {0, 0, 100, false, -1},   {0, 50, 150, false, -1},
      {0, 500, 600, false, -1}, {0, 550, 650, false, -1},
  };
  // Cluster 0 pure (island A), cluster 1 mixes islands A and B.
  std::vector<std::vector<std::uint32_t>> good = {{0, 1}, {2, 3}};
  std::vector<std::vector<std::uint32_t>> bad = {{0, 2}, {1, 3}};
  const auto pg = pipeline::evaluate_purity(good, truth);
  EXPECT_DOUBLE_EQ(pg.purity, 1.0);
  const auto pb = pipeline::evaluate_purity(bad, truth);
  EXPECT_DOUBLE_EQ(pb.purity, 0.0);
}

TEST(Pipeline, EndToEndSerial) {
  const auto g = sim::simulate_genome(sim::shotgun_like(20'000, 41));
  util::Prng rng(42);
  sim::ReadSet rs;
  sim::ReadParams rp;
  rp.len_mean = 300;
  rp.len_spread = 50;
  rp.errors.sub_rate = 0.005;
  rp.errors.ins_rate = 0.001;
  rp.errors.del_rate = 0.001;
  sim::sample_wgs(rs, g, 4.0, rp, rng);

  const auto result =
      run_pipeline(rs.store, sim::vector_library(), small_pipeline_params());
  // Densely covered single genome: most reads cluster together.
  EXPECT_GT(result.cluster_summary.num_clusters, 0u);
  EXPECT_GT(result.cluster_summary.max_cluster_size, 5u);
  EXPECT_GT(result.assembly_summary.total_contigs, 0u);
  EXPECT_GT(result.assembly_summary.n50, 400u);
  EXPECT_EQ(result.cluster_summary.total_fragments, result.pre.store.size());

  // Ground truth: kept reads trace back to their truth records.
  std::vector<sim::ReadTruth> kept_truth;
  for (auto id : result.pre.kept_ids) kept_truth.push_back(rs.truth[id]);
  const auto purity =
      pipeline::evaluate_purity(result.cluster_sets, kept_truth);
  EXPECT_GT(purity.purity, 0.95);
}

TEST(Pipeline, EndToEndParallelMatchesSerial) {
  const auto g = sim::simulate_genome(sim::shotgun_like(15'000, 43));
  util::Prng rng(44);
  sim::ReadSet rs;
  sim::ReadParams rp;
  rp.len_mean = 300;
  rp.len_spread = 50;
  sim::sample_wgs(rs, g, 3.0, rp, rng);

  auto params = small_pipeline_params();
  const auto serial = run_pipeline(rs.store, sim::vector_library(), params);
  params.ranks = 4;
  const auto parallel = run_pipeline(rs.store, sim::vector_library(), params);
  EXPECT_EQ(serial.cluster_summary.num_clusters,
            parallel.cluster_summary.num_clusters);
  EXPECT_EQ(serial.cluster_summary.num_singletons,
            parallel.cluster_summary.num_singletons);
  EXPECT_EQ(serial.cluster_summary.max_cluster_size,
            parallel.cluster_summary.max_cluster_size);
  EXPECT_GT(parallel.cost.total_msgs(), 0u);
}

TEST(Pipeline, CommunityClusteringSeparatesSpecies) {
  sim::CommunityParams cp;
  cp.num_species = 8;
  cp.genome_len_min = 3'000;
  cp.genome_len_max = 6'000;
  cp.seed = 5;
  const auto community = sim::simulate_community(cp);
  util::Prng rng(46);
  sim::ReadSet rs;
  sim::ReadParams rp;
  rp.len_mean = 400;
  rp.len_spread = 50;
  sim::sample_community(rs, community, 250, rp, rng);

  auto params = small_pipeline_params();
  params.run_assembly = false;
  const auto result = run_pipeline(rs.store, sim::vector_library(), params);

  std::vector<sim::ReadTruth> kept_truth;
  for (auto id : result.pre.kept_ids) kept_truth.push_back(rs.truth[id]);
  // No non-singleton cluster mixes species.
  for (const auto& members : result.cluster_sets) {
    if (members.size() < 2) continue;
    for (std::size_t i = 1; i < members.size(); ++i) {
      EXPECT_EQ(kept_truth[members[i]].genome_id,
                kept_truth[members[0]].genome_id);
    }
  }
}

TEST(Pipeline, ConsensusAccuracyAgainstTruth) {
  const auto g = sim::simulate_genome(sim::shotgun_like(25'000, 53));
  util::Prng rng(54);
  sim::ReadSet rs;
  sim::ReadParams rp;
  rp.len_mean = 350;
  rp.len_spread = 50;
  sim::sample_wgs(rs, g, 6.0, rp, rng);
  auto params = small_pipeline_params();
  const auto result =
      run_pipeline(rs.store, sim::vector_library(), params);
  std::vector<sim::ReadTruth> kept_truth;
  for (auto id : result.pre.kept_ids) kept_truth.push_back(rs.truth[id]);
  const auto acc = pipeline::evaluate_consensus(
      result.cluster_sets, result.assemblies, kept_truth, {&g, 1});
  EXPECT_GT(acc.contigs_evaluated, 0u);
  EXPECT_GT(acc.columns, 1000u);
  EXPECT_LT(acc.error_rate(), 0.02);
  EXPECT_LT(acc.deep_error_rate(), 0.01);
  EXPECT_LE(acc.deep_columns, acc.columns);
}

TEST(Pipeline, ConsensusAccuracyEmptyInputs) {
  const auto acc = pipeline::evaluate_consensus({}, {}, {}, {});
  EXPECT_EQ(acc.contigs_evaluated, 0u);
  EXPECT_DOUBLE_EQ(acc.error_rate(), 0.0);
}

TEST(Pipeline, ParallelAssemblyMatchesSerial) {
  const auto g = sim::simulate_genome(sim::shotgun_like(18'000, 91));
  util::Prng rng(92);
  sim::ReadSet rs;
  sim::ReadParams rp;
  rp.len_mean = 300;
  rp.len_spread = 50;
  sim::sample_wgs(rs, g, 4.0, rp, rng);
  auto params = small_pipeline_params();
  const auto serial = run_pipeline(rs.store, sim::vector_library(), params);
  params.ranks = 4;
  const auto parallel = run_pipeline(rs.store, sim::vector_library(), params);
  // The distributed assembly phase must produce the same contigs. Cluster
  // indices may permute (equal-size clusters order by union-find root), so
  // compare the multiset of consensus sequences.
  ASSERT_EQ(serial.assemblies.size(), parallel.assemblies.size());
  EXPECT_EQ(serial.assembly_summary.total_contigs,
            parallel.assembly_summary.total_contigs);
  EXPECT_EQ(serial.assembly_summary.n50, parallel.assembly_summary.n50);
  EXPECT_EQ(serial.assembly_summary.consensus_bases,
            parallel.assembly_summary.consensus_bases);
  auto all_contigs = [](const pipeline::PipelineResult& r) {
    std::vector<std::vector<seq::Code>> out;
    for (const auto& a : r.assemblies) {
      for (const auto& c : a.contigs) {
        if (!c.is_singleton()) out.push_back(c.consensus);
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  EXPECT_EQ(all_contigs(serial), all_contigs(parallel));
}

TEST(Pipeline, GlobalScaffoldsBridgeGaps) {
  auto gp = sim::shotgun_like(30'000, 81);
  gp.unclonable_fraction = 0.05;
  const auto g = sim::simulate_genome(gp);
  util::Prng rng(82);
  sim::ReadSet rs;
  std::vector<sim::MatePair> mates;
  sim::ReadParams rp;
  rp.len_mean = 400;
  rp.len_spread = 80;
  sim::sample_wgs(rs, g, 5.0, rp, rng);
  sim::sample_mate_pairs(rs, mates, g, 200, 3500, 350, rp, rng);

  auto params = small_pipeline_params();
  // Shallow statistical masking sample (~1X): over-deep samples flag
  // ordinary-coverage k-mers, shattering the clusters into overlapping
  // contigs whose implied scaffold gaps are negative.
  params.pre.repeat.sample_fraction = 0.2;
  const auto result = run_pipeline(rs.store, sim::vector_library(), params);

  std::vector<std::pair<std::uint32_t, std::uint32_t>> raw_links;
  std::vector<std::uint32_t> inserts;
  for (const auto& m : mates) {
    raw_links.push_back({m.read_a, m.read_b});
    inserts.push_back(m.insert_len);
  }
  const auto scaffolds = pipeline::build_scaffolds(result, raw_links, inserts,
                                                   rs.store.size());
  // Every contig lands in exactly one scaffold.
  std::size_t placed = 0;
  for (const auto& sc : scaffolds.result.scaffolds) placed += sc.entries.size();
  EXPECT_EQ(placed, scaffolds.contigs.size());
  // Mates must bridge at least one gap on this gappy genome.
  EXPECT_GE(scaffolds.result.num_multi(), 1u);
  EXPECT_GE(scaffolds.scaffold_span_n50, scaffolds.contig_n50);
}

TEST(Pipeline, SkippingPreprocessKeepsAllFragments) {
  util::Prng rng(47);
  seq::FragmentStore store;
  for (int i = 0; i < 10; ++i) store.add(test::random_dna(rng, 200));
  auto params = small_pipeline_params();
  params.run_preprocess = false;
  params.run_assembly = false;
  const auto result = run_pipeline(store, {}, params);
  EXPECT_EQ(result.pre.store.size(), 10u);
  EXPECT_EQ(result.pre.kept_ids.size(), 10u);
}

// --- observability export ---------------------------------------------------

/// Sum of a counter's values over every rank, from metrics.jsonl text.
std::uint64_t counter_total(const std::string& metrics,
                            const std::string& name) {
  std::uint64_t total = 0;
  std::istringstream in(metrics);
  for (std::string line; std::getline(in, line);) {
    if (line.find("\"name\":\"" + name + "\"") == std::string::npos) {
      continue;
    }
    total += std::stoull(line.substr(line.find("\"value\":") + 8));
  }
  return total;
}

/// Each rank's value of metric `name` (summed over phases).
std::map<int, double> values_by_rank(const std::string& metrics,
                                     const std::string& name) {
  std::map<int, double> out;
  std::istringstream in(metrics);
  for (std::string line; std::getline(in, line);) {
    if (line.find("\"name\":\"" + name + "\"") == std::string::npos) {
      continue;
    }
    const int rank = std::stoi(line.substr(line.find("\"rank\":") + 7));
    out[rank] += std::stod(line.substr(line.find("\"value\":") + 8));
  }
  return out;
}

/// One walk stat summed over the run's assemblies.
std::uint64_t stat_total(const pipeline::PipelineResult& r,
                         std::uint64_t olc::AssemblyStats::*field) {
  std::uint64_t total = 0;
  for (const auto& a : r.assemblies) total += a.stats.*field;
  return total;
}

std::string slurp(const std::filesystem::path& p) {
  std::ifstream in(p);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

sim::ReadSet obs_test_reads(std::uint64_t genome_len, std::uint64_t seed) {
  const auto g = sim::simulate_genome(sim::shotgun_like(genome_len, seed));
  util::Prng rng(seed + 1);
  sim::ReadSet rs;
  sim::ReadParams rp;
  rp.len_mean = 300;
  rp.len_spread = 50;
  sim::sample_wgs(rs, g, 3.0, rp, rng);
  return rs;
}

TEST(Pipeline, ObsDirSerialWritesAllOutputs) {
  const std::string dir = testing::TempDir() + "pgasm_obs_serial";
  std::filesystem::remove_all(dir);
  const auto rs = obs_test_reads(12'000, 51);
  auto params = small_pipeline_params();
  params.obs_dir = dir;
  const auto result = run_pipeline(rs.store, sim::vector_library(), params);

  for (const char* name : {"summary.txt", "metrics.jsonl", "trace.json"}) {
    EXPECT_TRUE(std::filesystem::exists(std::filesystem::path(dir) / name))
        << name;
  }
  // The driver timeline covers all three phases.
  const auto trace = slurp(std::filesystem::path(dir) / "trace.json");
  EXPECT_NE(trace.find("\"name\":\"preprocess\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"cluster\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"assembly\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"assemble_cluster\",\"cat\":\"assembly\","
                       "\"pid\":1,\"tid\":-1"),
            std::string::npos);
  // Serial-path stats land in the registry, phase-labeled.
  const auto metrics = slurp(std::filesystem::path(dir) / "metrics.jsonl");
  EXPECT_NE(metrics.find("\"name\":\"preprocess.fragments_in\""),
            std::string::npos);
  EXPECT_NE(metrics.find("\"name\":\"cluster.merges\""), std::string::npos);
  EXPECT_NE(metrics.find("\"name\":\"assembly.total_contigs\""),
            std::string::npos);
  EXPECT_NE(metrics.find("\"phase\":\"cluster\""), std::string::npos);
  const auto dps =
      stat_total(result, &olc::AssemblyStats::overlaps_considered);
  ASSERT_GT(dps, 0u);
  EXPECT_EQ(counter_total(metrics, "assembly.overlaps_considered"), dps);
  // Runs with obs disabled leave the tracer off.
  EXPECT_FALSE(obs::tracer().enabled());
  std::filesystem::remove_all(dir);
}

TEST(Pipeline, ObsDirParallelTracesMasterAndWorkers) {
  const std::string dir = testing::TempDir() + "pgasm_obs_parallel";
  std::filesystem::remove_all(dir);
  const auto rs = obs_test_reads(15'000, 53);
  auto params = small_pipeline_params();
  params.ranks = 4;
  params.obs_dir = dir;
  const auto result = run_pipeline(rs.store, sim::vector_library(), params);

  const auto trace = slurp(std::filesystem::path(dir) / "trace.json");
  // Master-side batch accounting and worker-side batch spans.
  EXPECT_NE(trace.find("\"name\":\"dispatch\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"report\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"align_batch\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"generate_pairs\""), std::string::npos);
  // Per-rank tracks exist for the master and at least one worker.
  EXPECT_NE(trace.find("\"name\":\"rank 0\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"rank 1\""), std::string::npos);
  // Every worker spans its GST build and its generator setup. Its tree
  // indexes the shared store, so no text travels and no ids are remapped.
  for (int rank = 1; rank < params.ranks; ++rank) {
    for (const auto& [name, cat] :
         {std::pair{"redistribute", "gst"}, std::pair{"build_subtrees", "gst"},
          std::pair{"pairgen_setup", "cluster"}}) {
      EXPECT_NE(trace.find("\"name\":\"" + std::string(name) +
                           "\",\"cat\":\"" + cat + "\",\"pid\":1,\"tid\":" +
                           std::to_string(rank) + ","),
                std::string::npos)
          << name << " on rank " << rank;
    }
  }
  const auto metrics = slurp(std::filesystem::path(dir) / "metrics.jsonl");
  for (const char* gone : {"fetch_round", "assign_local_ids", "ship_text"}) {
    EXPECT_EQ(trace.find("\"name\":\"" + std::string(gone) + "\""),
              std::string::npos)
        << gone;
  }
  for (const char* gone : {"mem.gst_text_bytes", "gst.fetched_fragments"}) {
    EXPECT_EQ(metrics.find(gone), std::string::npos) << gone;
    EXPECT_EQ(trace.find(gone), std::string::npos) << gone;
  }
  EXPECT_NE(metrics.find("\"name\":\"vmpi.msgs_sent\""), std::string::npos);
  EXPECT_NE(metrics.find("\"name\":\"vmpi.send_bytes\""), std::string::npos);
  EXPECT_NE(metrics.find("\"name\":\"cluster.pairs_aligned\""),
            std::string::npos);
  // Clusters are assembled round-robin: rank 1 assembles the second one,
  // under its own span and counters.
  ASSERT_GE(result.assemblies.size(), 2u);
  EXPECT_NE(trace.find("\"name\":\"assemble_cluster\",\"cat\":\"assembly\","
                       "\"pid\":1,\"tid\":1"),
            std::string::npos);
  EXPECT_NE(metrics.find("\"name\":\"assembly.overlaps_considered\","
                         "\"rank\":1"),
            std::string::npos);
  const std::pair<const char*, std::uint64_t olc::AssemblyStats::*>
      counters[] = {
          {"assembly.overlaps_considered",
           &olc::AssemblyStats::overlaps_considered},
          {"assembly.overlaps_accepted",
           &olc::AssemblyStats::overlaps_accepted},
          {"assembly.layout_conflicts", &olc::AssemblyStats::layout_conflicts}};
  for (const auto& [name, field] : counters) {
    EXPECT_EQ(counter_total(metrics, name), stat_total(result, field)) << name;
  }
  // The memory ledger: every rank's GST suffix and node bytes, and the
  // process's peak RSS at the end of each phase. A suffix is 4 bytes.
  const auto suffixes = values_by_rank(metrics, "gst.local_suffixes");
  const auto suffix_bytes = values_by_rank(metrics, "mem.gst_suffix_bytes");
  ASSERT_EQ(suffixes.size(), 4u);
  EXPECT_EQ(suffix_bytes.size(), 4u);
  for (const auto& [rank, n] : suffixes) {
    EXPECT_EQ(suffix_bytes.count(rank), 1u) << "rank " << rank;
    EXPECT_EQ(suffix_bytes.count(rank) ? suffix_bytes.at(rank) : -1, 4 * n)
        << "rank " << rank;
  }
  EXPECT_EQ(values_by_rank(metrics, "mem.gst_node_bytes").size(), 4u);
  for (const char* phase : {"preprocess", "cluster", "assembly"}) {
    EXPECT_NE(metrics.find("\"name\":\"mem.peak_rss_mb\",\"rank\":-1,"
                           "\"phase\":\"" + std::string(phase) + "\""),
              std::string::npos)
        << phase;
  }
  std::filesystem::remove_all(dir);
}

TEST(Pipeline, ObsDirFaultInjectionShowsRecovery) {
  const std::string dir = testing::TempDir() + "pgasm_obs_faults";
  std::filesystem::remove_all(dir);
  const auto rs = obs_test_reads(15'000, 53);
  auto params = small_pipeline_params();
  params.ranks = 4;
  // Die on the very first worker-loop send: rank 2's generator role has
  // produced nothing, so recovery must declare the rank dead and reassign
  // its role (a takeover).
  params.faults.crashes.push_back({.rank = 2, .at_send = 1});
  params.obs_dir = dir;
  const auto result = run_pipeline(rs.store, sim::vector_library(), params);
  ASSERT_GE(result.cost.faults.crashes_injected, 1u);

  // The recovery story is visible in the trace: the injected crash, the
  // master declaring the worker dead, and the takeover of its batches.
  const auto trace = slurp(std::filesystem::path(dir) / "trace.json");
  EXPECT_NE(trace.find("\"name\":\"fault_crash\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"death_declared\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"takeover"), std::string::npos);
  // And in the metrics: fault counters folded from the runtime.
  const auto metrics = slurp(std::filesystem::path(dir) / "metrics.jsonl");
  const auto pos = metrics.find("\"name\":\"vmpi.faults.crashes_injected\"");
  ASSERT_NE(pos, std::string::npos);
  EXPECT_NE(metrics.find("\"name\":\"cluster.workers_lost\""),
            std::string::npos);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace pgasm
