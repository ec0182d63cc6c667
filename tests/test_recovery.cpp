// Pipeline recovery supervisor tests (ctest label: faults): phase retry
// with fault injection on the first attempt only, optional-phase
// degradation, and the restore decision end to end — a rerun restores a
// completed clustering from its final checkpoint only when that checkpoint
// matches the run's preprocessed input and cluster params, and otherwise
// runs fresh.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

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
using pipeline::kMaxAttempts;
using pipeline::PhaseId;
using pipeline::PipelineParams;
using pipeline::PipelineResult;
using pipeline::run_pipeline;
using pipeline::Supervisor;

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

/// File names in `dir`, sorted.
std::vector<std::string> dir_entries(const std::string& dir) {
  std::vector<std::string> names;
  for (const auto& entry : fs::directory_iterator(dir)) {
    names.push_back(entry.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  return names;
}

/// A supervised run of (`first_input`, `first`) leaves its final checkpoint;
/// a supervised rerun with (`second_input`, `second`) into the same
/// directory must not restore or resume it, and must end with the
/// partition of a run without any checkpoint_dir.
PipelineResult expect_rerun_runs_fresh(const std::string& name,
                                       const seq::FragmentStore& first_input,
                                       PipelineParams first,
                                       const seq::FragmentStore& second_input,
                                       PipelineParams second) {
  const auto dir = scratch_dir(name);
  first.checkpoint_dir = dir;
  (void)run_pipeline(first_input, sim::vector_library(), first);
  const auto fresh = run_pipeline(second_input, sim::vector_library(), second);
  second.checkpoint_dir = dir;
  auto rerun = run_pipeline(second_input, sim::vector_library(), second);
  EXPECT_EQ(rerun.recovery.phases_skipped_resume, 0u);
  EXPECT_EQ(rerun.cluster_stats.resumed_from_epoch, 0u);
  expect_same_partition(fresh.clusters, rerun.clusters);
  fs::remove_all(dir);
  return rerun;
}

// --- Supervisor unit behavior ----------------------------------------------

TEST(Supervisor, RetriesUntilSuccess) {
  Supervisor sup(/*enabled=*/true);
  std::uint32_t calls = 0;
  const bool ok = sup.run_phase(PhaseId::kCluster, /*required=*/true,
                                [&](std::uint32_t attempt) {
                                  EXPECT_EQ(attempt, calls);
                                  ++calls;
                                  if (calls < kMaxAttempts)
                                    throw std::runtime_error("flaky");
                                });
  EXPECT_TRUE(ok);
  EXPECT_EQ(calls, 3u);
  EXPECT_EQ(sup.stats().phase_retries, 2u);
}

TEST(Supervisor, RequiredPhaseRethrowsAfterExhaustion) {
  Supervisor sup(/*enabled=*/true);
  int calls = 0;
  EXPECT_THROW(sup.run_phase(PhaseId::kAssembly, /*required=*/true,
                             [&](std::uint32_t) {
                               ++calls;
                               throw std::runtime_error("hard failure");
                             }),
               std::runtime_error);
  EXPECT_EQ(calls, 3);
}

TEST(Supervisor, OptionalPhaseDegradesInsteadOfThrowing) {
  Supervisor sup(/*enabled=*/true);
  int calls = 0;
  const bool ok = sup.run_phase(PhaseId::kValidation, /*required=*/false,
                                [&](std::uint32_t) {
                                  ++calls;
                                  throw std::runtime_error("always broken");
                                });
  EXPECT_FALSE(ok);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(sup.stats().degraded_phases, 1u);
}

TEST(Supervisor, DisabledSupervisorPropagatesImmediately) {
  Supervisor sup(/*enabled=*/false);
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
  // The final cluster checkpoint is the run's only durable record.
  EXPECT_EQ(dir_entries(dir), std::vector<std::string>{"cluster.ckpt"});

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

TEST(RecoveryPipeline, ChangedInputRunsFresh) {
  const auto rs1 = small_reads(22);
  const auto rs2 = small_reads(23);
  expect_rerun_runs_fresh("input", rs1.store, recovery_params(), rs2.store,
                          recovery_params());
}

TEST(RecoveryPipeline, ChangedPsiRunsFresh) {
  const auto rs = small_reads(22);
  auto changed = recovery_params();
  changed.cluster.psi += 2;
  expect_rerun_runs_fresh("psi", rs.store, recovery_params(), rs.store,
                          changed);
}

TEST(RecoveryPipeline, ChangedKeptStoreRunsFresh) {
  const auto rs = small_reads(22);
  auto changed = recovery_params();
  changed.pre.min_len = 300;  // drops the shorter half of the reads
  const auto rerun = expect_rerun_runs_fresh("kept", rs.store,
                                             recovery_params(), rs.store,
                                             changed);
  const auto base = run_pipeline(rs.store, sim::vector_library(),
                                 recovery_params());
  EXPECT_LT(rerun.pre.store.size(), base.pre.store.size());
}

TEST(RecoveryPipeline, CorruptCheckpointWarnsAndRunsFresh) {
  const auto dir = scratch_dir("corrupt");
  const auto rs = small_reads(22);
  auto params = recovery_params();
  params.checkpoint_dir = dir;
  const auto first = run_pipeline(rs.store, sim::vector_library(), params);
  {
    // pgasm-lint: allow(raw-ckpt-write): corrupting the checkpoint on purpose
    std::fstream f(dir + "/cluster.ckpt",
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekg(0, std::ios::end);
    const auto size = static_cast<std::streamoff>(f.tellg());
    f.seekg(size - 1);
    const int last = f.get();
    f.seekp(size - 1);
    f.put(static_cast<char>(last ^ 0x01));
  }
  testing::internal::CaptureStderr();
  const auto rerun = run_pipeline(rs.store, sim::vector_library(), params);
  const std::string log = testing::internal::GetCapturedStderr();
  EXPECT_NE(log.find("ignoring unusable checkpoint"), std::string::npos)
      << log;
  EXPECT_EQ(rerun.recovery.phases_skipped_resume, 0u);
  EXPECT_EQ(rerun.cluster_stats.resumed_from_epoch, 0u);
  expect_same_partition(first.clusters, rerun.clusters);
  fs::remove_all(dir);
}

TEST(RecoveryPipeline, OptionalPostPhaseDegradesLoudly) {
  const auto dir = scratch_dir("optional");
  const auto rs = small_reads(24);
  auto params = recovery_params();
  params.checkpoint_dir = dir;
  int hook_calls = 0;
  params.optional_post_phase = [&](const pipeline::PipelineResult&) {
    ++hook_calls;
    throw std::runtime_error("validation backend unavailable");
  };
  const auto result = run_pipeline(rs.store, sim::vector_library(), params);
  EXPECT_EQ(hook_calls, 3);
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
