// Pipeline recovery supervisor tests (ctest label: faults): phase retry
// with fault injection on the first attempt only, optional-phase
// degradation, run-manifest generations (adoption, corruption fallback,
// GC) and resume that restores a completed clustering from its final
// checkpoint instead of recomputing it.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>

#include "core/parallel_cluster.hpp"
#include "core/wire.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/supervisor.hpp"
#include "sim/reads.hpp"
#include "test_helpers.hpp"
#include "util/prng.hpp"

namespace pgasm {
namespace {

namespace fs = std::filesystem;
using pipeline::PhaseId;
using pipeline::PipelineParams;
using pipeline::run_pipeline;
using pipeline::Supervisor;
using pipeline::SupervisorParams;

/// Fresh, empty scratch directory under the test tempdir.
std::string scratch_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/pgasm_recovery_" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

sim::ReadSet small_reads(std::uint64_t seed) {
  const auto g = sim::simulate_genome(sim::shotgun_like(6'000, seed));
  util::Prng rng(seed);
  sim::ReadSet rs;
  sim::ReadParams rp;
  rp.len_mean = 300;
  rp.len_spread = 50;
  rp.errors.sub_rate = 0.005;
  sim::sample_wgs(rs, g, 3.0, rp, rng);
  return rs;
}

PipelineParams recovery_params() {
  PipelineParams p;
  p.pre.min_len = 80;
  p.cluster.psi = 14;
  p.cluster.overlap.min_overlap = 30;
  p.cluster.overlap.min_identity = 0.9;
  p.cluster.prefix_w = 4;
  p.assembly.psi = 16;
  p.assembly.overlap.min_overlap = 30;
  p.assembly.overlap.min_identity = 0.93;
  p.ranks = 3;
  return p;
}

void expect_same_partition(const util::UnionFind& a, const util::UnionFind& b) {
  ASSERT_EQ(a.size(), b.size());
  const auto la = a.labels();
  const auto lb = b.labels();
  std::map<std::uint32_t, std::uint32_t> fwd, bwd;
  for (std::size_t i = 0; i < la.size(); ++i) {
    auto [itf, newf] = fwd.insert({la[i], lb[i]});
    EXPECT_EQ(itf->second, lb[i]) << "element " << i;
    auto [itb, newb] = bwd.insert({lb[i], la[i]});
    EXPECT_EQ(itb->second, la[i]) << "element " << i;
  }
}

// --- Supervisor unit behavior ----------------------------------------------

TEST(Supervisor, RetriesUntilSuccessAndRecordsManifest) {
  const auto dir = scratch_dir("retry");
  SupervisorParams sp;
  sp.dir = dir;
  sp.max_attempts = 3;
  Supervisor sup(sp);

  int calls = 0;
  const bool ok = sup.run_phase(PhaseId::kCluster, /*required=*/true,
                                [&](std::uint32_t attempt) {
                                  EXPECT_EQ(attempt, static_cast<std::uint32_t>(calls));
                                  ++calls;
                                  if (calls < 3) throw std::runtime_error("flaky");
                                });
  EXPECT_TRUE(ok);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(sup.stats().phase_retries, 2u);

  // The manifest on disk records the completion; a new supervisor adopts it.
  Supervisor next(sp);
  EXPECT_TRUE(next.completed_in_manifest(PhaseId::kCluster));
  EXPECT_FALSE(next.completed_in_manifest(PhaseId::kAssembly));
  fs::remove_all(dir);
}

TEST(Supervisor, RequiredPhaseRethrowsAfterExhaustion) {
  const auto dir = scratch_dir("rethrow");
  SupervisorParams sp;
  sp.dir = dir;
  sp.max_attempts = 2;
  Supervisor sup(sp);
  int calls = 0;
  EXPECT_THROW(sup.run_phase(PhaseId::kAssembly, /*required=*/true,
                             [&](std::uint32_t) {
                               ++calls;
                               throw std::runtime_error("hard failure");
                             }),
               std::runtime_error);
  EXPECT_EQ(calls, 2);
  fs::remove_all(dir);
}

TEST(Supervisor, OptionalPhaseDegradesInsteadOfThrowing) {
  const auto dir = scratch_dir("degrade");
  SupervisorParams sp;
  sp.dir = dir;
  sp.max_attempts = 2;
  Supervisor sup(sp);
  const bool ok = sup.run_phase(PhaseId::kValidation, /*required=*/false,
                                [&](std::uint32_t) {
                                  throw std::runtime_error("always broken");
                                });
  EXPECT_FALSE(ok);
  EXPECT_TRUE(sup.degraded(PhaseId::kValidation));
  EXPECT_EQ(sup.stats().degraded_phases, 1u);
  fs::remove_all(dir);
}

TEST(Supervisor, CorruptNewestManifestFallsBackToOlderGeneration) {
  const auto dir = scratch_dir("fallback");
  SupervisorParams sp;
  sp.dir = dir;
  sp.max_attempts = 1;
  {
    Supervisor gen1(sp);
    gen1.run_phase(PhaseId::kPreprocess, true, [](std::uint32_t) {});
    gen1.run_phase(PhaseId::kCluster, true, [](std::uint32_t) {});
  }
  {
    Supervisor gen2(sp);
    EXPECT_EQ(gen2.generation(), 2u);
    gen2.run_phase(PhaseId::kPreprocess, true, [](std::uint32_t) {});
  }
  // Flip a payload bit in the newest manifest: its CRC check must fail and
  // generation 1 (which also recorded kCluster) must be adopted instead.
  {
    // pgasm-lint: allow(raw-ckpt-write): corrupting the manifest on purpose
    std::fstream f(dir + "/manifest.2.pgmf",
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekg(0, std::ios::end);
    const auto size = static_cast<std::streamoff>(f.tellg());
    f.seekp(size - 1);
    f.put(static_cast<char>(0xFF));
  }
  Supervisor sup(sp);
  EXPECT_TRUE(sup.completed_in_manifest(PhaseId::kCluster));
  EXPECT_GE(sup.stats().manifests_rejected, 1u);
  EXPECT_EQ(sup.generation(), 3u);
  fs::remove_all(dir);
}

TEST(Supervisor, StaleGenerationsAreGarbageCollected) {
  const auto dir = scratch_dir("gc");
  SupervisorParams sp;
  sp.dir = dir;
  sp.max_attempts = 1;
  for (int run = 0; run < 5; ++run) {
    Supervisor sup(sp);
    sup.run_phase(PhaseId::kPreprocess, true, [](std::uint32_t) {});
  }
  std::size_t manifests = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    manifests += entry.path().extension() == ".pgmf" ? 1 : 0;
  }
  EXPECT_LE(manifests, 2u);
  EXPECT_TRUE(fs::exists(dir + "/manifest.5.pgmf"));
  fs::remove_all(dir);
}

TEST(Supervisor, DisabledSupervisorPropagatesImmediately) {
  Supervisor sup(SupervisorParams{});  // no dir: disabled
  EXPECT_FALSE(sup.enabled());
  int calls = 0;
  EXPECT_THROW(sup.run_phase(PhaseId::kValidation, /*required=*/false,
                             [&](std::uint32_t) {
                               ++calls;
                               throw std::runtime_error("boom");
                             }),
               std::runtime_error);
  EXPECT_EQ(calls, 1);  // single attempt, even for optional phases
}

// --- Pipeline-level recovery -----------------------------------------------

TEST(RecoveryPipeline, RerunRestoresCompletedClusteringFromCheckpoint) {
  const auto dir = scratch_dir("rerun");
  const auto rs = small_reads(21);
  auto params = recovery_params();
  params.checkpoint_dir = dir;

  const auto first = run_pipeline(rs.store, sim::vector_library(), params);
  EXPECT_EQ(first.recovery.phases_skipped_resume, 0u);
  EXPECT_TRUE(fs::exists(dir + "/cluster.ckpt"));

  const auto second = run_pipeline(rs.store, sim::vector_library(), params);
  EXPECT_EQ(second.recovery.phases_skipped_resume, 1u);
  EXPECT_GT(second.cluster_stats.resumed_from_epoch, 0u);
  expect_same_partition(first.clusters, second.clusters);
  // The restored run produced the same contigs without redoing clustering.
  EXPECT_EQ(second.assembly_summary.total_contigs,
            first.assembly_summary.total_contigs);
  EXPECT_EQ(second.assembly_summary.consensus_bases,
            first.assembly_summary.consensus_bases);
  fs::remove_all(dir);
}

// The final checkpoint is the master's terminal state: nothing pending,
// every generation role done, and labels that restore the run's partition.
// Resuming clustering from it finishes at once with that partition.
TEST(RecoveryPipeline, FinalCheckpointIsTheMastersTerminalState) {
  const auto dir = scratch_dir("final");
  const auto rs = small_reads(21);
  auto params = recovery_params();
  params.checkpoint_dir = dir;
  const auto result = run_pipeline(rs.store, sim::vector_library(), params);

  auto loaded = core::try_load_checkpoint(dir + "/cluster.ckpt");
  ASSERT_TRUE(loaded.has_value()) << loaded.error().message();
  const core::ClusterCheckpoint ck = std::move(loaded).take_or_throw();
  EXPECT_TRUE(ck.pending.empty());
  EXPECT_EQ(ck.num_ranks, static_cast<std::uint32_t>(params.ranks));
  ASSERT_EQ(ck.progress.size(), static_cast<std::size_t>(params.ranks - 1));
  for (const auto& rp : ck.progress) EXPECT_EQ(rp.done, 1u) << rp.role;
  EXPECT_EQ(ck.merges, result.cluster_stats.merges);
  EXPECT_EQ(ck.pairs_aligned, result.cluster_stats.pairs_aligned);
  expect_same_partition(result.clusters,
                        util::UnionFind::from_labels(ck.labels));

  core::ClusterParams cp = params.cluster;
  const auto resumed = core::cluster_parallel(result.pre.store, cp,
                                              params.ranks, {}, {}, &ck);
  expect_same_partition(result.clusters, resumed.clusters);
  EXPECT_EQ(resumed.stats.pairs_aligned, ck.pairs_aligned);
  fs::remove_all(dir);
}

TEST(RecoveryPipeline, ChangedInputInvalidatesManifestAndCheckpoint) {
  const auto dir = scratch_dir("invalidate");
  auto params = recovery_params();
  params.checkpoint_dir = dir;

  const auto rs1 = small_reads(22);
  (void)run_pipeline(rs1.store, sim::vector_library(), params);

  // Different input: the manifest hash check refuses the old generation and
  // clustering runs fresh (no skip).
  const auto rs2 = small_reads(23);
  const auto result = run_pipeline(rs2.store, sim::vector_library(), params);
  EXPECT_EQ(result.recovery.phases_skipped_resume, 0u);
  fs::remove_all(dir);
}

TEST(RecoveryPipeline, OptionalPostPhaseDegradesLoudly) {
  const auto dir = scratch_dir("optional");
  const auto rs = small_reads(24);
  auto params = recovery_params();
  params.checkpoint_dir = dir;
  params.phase_max_attempts = 2;
  int hook_calls = 0;
  params.optional_post_phase = [&](const pipeline::PipelineResult&) {
    ++hook_calls;
    throw std::runtime_error("validation backend unavailable");
  };
  const auto result = run_pipeline(rs.store, sim::vector_library(), params);
  EXPECT_EQ(hook_calls, 2);
  EXPECT_EQ(result.recovery.degraded_phases, 1u);
  EXPECT_GT(result.assembly_summary.clusters_assembled, 0u);  // run finished
  fs::remove_all(dir);
}

TEST(RecoveryPipeline, FaultsAppliedOnFirstAttemptOnlyHealOnRetry) {
  const auto dir = scratch_dir("retry_faults");
  const auto rs = small_reads(25);
  auto params = recovery_params();
  // Small batches so the master makes enough user-channel sends (replies)
  // for the injected crash index to fire.
  params.cluster.batch_size = 16;

  const auto baseline = run_pipeline(rs.store, sim::vector_library(), params);

  // Kill the master mid-clustering: attempt 0 fails, the supervisor retries
  // without faults and resumes from the checkpoint the master left behind.
  params.checkpoint_dir = dir;
  params.cluster.checkpoint_every_reports = 2;
  params.faults.crashes.push_back({.rank = 0, .at_send = 12});
  const auto result = run_pipeline(rs.store, sim::vector_library(), params);
  EXPECT_GE(result.recovery.phase_retries, 1u);
  expect_same_partition(baseline.clusters, result.clusters);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace pgasm
