// Tests for the clustering framework: wire format, serial clustering vs a
// brute-force overlap-graph reference, order independence (transitive
// closure), and parallel == serial.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "align/workspace.hpp"
#include "core/parallel_cluster.hpp"
#include "core/serial_cluster.hpp"
#include "core/wire.hpp"
#include "gst/pair_generator.hpp"
#include "gst/suffix_tree.hpp"
#include "test_helpers.hpp"

namespace pgasm {
namespace {

using core::ClusterParams;
using core::cluster_parallel;
using core::cluster_serial;

/// Build a read set sampled from a synthetic genome so real overlaps exist.
seq::FragmentStore sampled_reads(util::Prng& rng, std::size_t genome_len,
                                 std::size_t n_reads, std::size_t read_len,
                                 double err = 0.01) {
  const auto genome = test::random_dna(rng, genome_len);
  seq::FragmentStore store;
  for (std::size_t i = 0; i < n_reads; ++i) {
    const std::size_t start = rng.below(genome_len - read_len);
    std::vector<seq::Code> read(genome.begin() + start,
                                genome.begin() + start + read_len);
    for (auto& c : read) {
      if (rng.chance(err)) c = static_cast<seq::Code>((c + 1 + rng.below(3)) % 4);
    }
    if (rng.chance(0.5)) read = seq::reverse_complement(read);
    store.add(read);
  }
  return store;
}

ClusterParams small_params() {
  ClusterParams p;
  p.psi = 12;
  p.overlap.min_overlap = 30;
  p.overlap.min_identity = 0.9;
  p.overlap.band = 8;
  p.batch_size = 16;
  return p;
}

/// Compare two partitions of [0, n) for equality up to label renaming.
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

TEST(Wire, ReportRoundTrip) {
  core::WorkerReport r;
  core::ResultMsg m1;
  m1.frag_a = 1;
  m1.frag_b = 2;
  m1.delta = -37;
  m1.accepted = 1;
  m1.rc_a = 0;
  m1.rc_b = 1;
  core::ResultMsg m2;
  m2.frag_a = 3;
  m2.frag_b = 4;
  r.results = {m1, m2};
  r.new_pairs = {{10, 5, 20, 7, 31}};
  r.progress = {{1, 0, 940}, {3, 1, 12}};
  r.exhausted = 1;
  const auto back =
      core::try_decode_report(core::encode_report(r)).take_or_throw();
  ASSERT_EQ(back.results.size(), 2u);
  EXPECT_EQ(back.results[1].frag_a, 3u);
  EXPECT_EQ(back.results[0].accepted, 1u);
  EXPECT_EQ(back.results[0].delta, -37);
  EXPECT_EQ(back.results[0].rc_b, 1u);
  EXPECT_EQ(back.results[1].accepted, 0u);
  ASSERT_EQ(back.new_pairs.size(), 1u);
  EXPECT_EQ(back.new_pairs[0].match_len, 31u);
  ASSERT_EQ(back.progress.size(), 2u);
  EXPECT_EQ(back.progress[0].emitted, 940u);
  EXPECT_EQ(back.progress[1].role, 3u);
  EXPECT_EQ(back.progress[1].done, 1u);
  EXPECT_EQ(back.exhausted, 1);
}

TEST(Wire, ReplyRoundTrip) {
  core::MasterReply r;
  r.batch = {{1, 2, 3, 4, 5}, {6, 7, 8, 9, 10}};
  r.takeovers = {{2, 0, 4096}};
  r.request_r = 777;
  r.terminate = 0;
  const auto back =
      core::try_decode_reply(core::encode_reply(r)).take_or_throw();
  ASSERT_EQ(back.batch.size(), 2u);
  EXPECT_EQ(back.batch[1].seq_a, 6u);
  ASSERT_EQ(back.takeovers.size(), 1u);
  EXPECT_EQ(back.takeovers[0].role, 2u);
  EXPECT_EQ(back.takeovers[0].resume_at, 4096u);
  EXPECT_EQ(back.request_r, 777u);
  EXPECT_EQ(back.terminate, 0);
}

TEST(Wire, RejectsTruncated) {
  core::WorkerReport r;
  r.new_pairs = {{1, 2, 3, 4, 5}};
  auto bytes = core::encode_report(r);
  bytes.resize(bytes.size() - 3);
  const auto back = core::try_decode_report(bytes);
  ASSERT_FALSE(back.has_value());
  EXPECT_EQ(back.error().code, core::WireErrc::kTruncated);
}

TEST(SerialCluster, TwoIslandsSeparate) {
  util::Prng rng(42);
  // Two disjoint genomic islands; reads within an island overlap.
  auto a = sampled_reads(rng, 600, 15, 120, 0.005);
  auto b = sampled_reads(rng, 600, 15, 120, 0.005);
  seq::FragmentStore store;
  for (std::uint32_t i = 0; i < a.size(); ++i) store.add(a.seq(i));
  for (std::uint32_t i = 0; i < b.size(); ++i) store.add(b.seq(i));

  const auto result = cluster_serial(store, small_params());
  // No cluster mixes reads from island a (< 15) and island b (>= 15).
  const auto labels = result.clusters.labels();
  std::map<std::uint32_t, std::set<bool>> members;
  for (std::uint32_t i = 0; i < store.size(); ++i)
    members[labels[i]].insert(i >= 15);
  for (const auto& [lbl, sides] : members) {
    EXPECT_EQ(sides.size(), 1u) << "cluster mixes islands";
  }
  // Dense 10x coverage of a 600 bp island: expect heavy merging.
  EXPECT_LT(result.clusters.num_sets(), store.size());
  EXPECT_GT(result.stats.pairs_generated, 0u);
  EXPECT_GE(result.stats.pairs_generated, result.stats.pairs_aligned);
  EXPECT_GE(result.stats.pairs_aligned, result.stats.pairs_accepted);
  EXPECT_EQ(result.stats.merges,
            store.size() - result.clusters.num_sets());
}

TEST(SerialCluster, MatchesBruteForceOverlapClosure) {
  util::Prng rng(7);
  const auto store = sampled_reads(rng, 900, 24, 110, 0.01);
  const auto params = small_params();
  const auto result = cluster_serial(store, params);

  // Reference: enumerate all maximal matches on the doubled store, apply
  // the same banded anchored accept test to every occurrence, and take the
  // transitive closure. The greedy skip of already-clustered pairs cannot
  // change the closure (Section 4).
  const auto doubled = seq::make_doubled_store(store);
  const auto matches = test::brute_force_maximal_matches(doubled, params.psi);
  util::UnionFind ref(store.size());
  align::Workspace ws;
  for (const auto& [qa, pa, qb, pb, len] : matches) {
    const std::uint32_t fa = qa >> 1, fb = qb >> 1;
    if (fa == fb) continue;
    if (core::pair_overlaps(doubled, qa, pa, qb, pb, params.overlap, ws)) {
      ref.unite(fa, fb);
    }
  }
  expect_same_partition(result.clusters, ref);
}

TEST(SerialCluster, OrderIndependence) {
  util::Prng rng(19);
  const auto store = sampled_reads(rng, 800, 20, 100, 0.01);
  auto params = small_params();
  params.ordered = true;
  const auto a = cluster_serial(store, params);
  params.ordered = false;
  const auto b = cluster_serial(store, params);
  expect_same_partition(a.clusters, b.clusters);
  // The heuristic order must not align more pairs than the shuffled order
  // ... on average; for a fixed seed just check both computed something.
  EXPECT_EQ(a.stats.pairs_generated, b.stats.pairs_generated);
}

TEST(SerialCluster, RcOnlyOverlapJoins) {
  util::Prng rng(3);
  const auto genome = test::random_dna(rng, 300);
  seq::FragmentStore store;
  store.add(std::vector<seq::Code>(genome.begin(), genome.begin() + 150));
  store.add(seq::reverse_complement(
      std::vector<seq::Code>(genome.begin() + 100, genome.begin() + 250)));
  const auto result = cluster_serial(store, small_params());
  EXPECT_EQ(result.clusters.num_sets(), 1u);
}

TEST(SerialCluster, EmptyAndSingleton) {
  seq::FragmentStore empty;
  const auto r0 = cluster_serial(empty, small_params());
  EXPECT_EQ(r0.clusters.num_sets(), 0u);

  seq::FragmentStore one;
  one.add_ascii("ACGTACGTACGTACGTACGTACGTACGT");
  const auto r1 = cluster_serial(one, small_params());
  EXPECT_EQ(r1.clusters.num_sets(), 1u);
  EXPECT_EQ(r1.stats.pairs_generated, 0u);
}

class ParallelCluster : public ::testing::TestWithParam<int> {};

TEST_P(ParallelCluster, MatchesSerialPartition) {
  const int ranks = GetParam();
  util::Prng rng(1001);
  const auto store = sampled_reads(rng, 1200, 40, 110, 0.01);
  const auto params = small_params();

  const auto serial = cluster_serial(store, params);
  const auto parallel = cluster_parallel(store, params, ranks);
  expect_same_partition(serial.clusters, parallel.clusters);

  // Same pair universe: the union of worker streams is the serial stream.
  EXPECT_EQ(parallel.stats.pairs_generated, serial.stats.pairs_generated);
  // Both heuristics save work (staleness may differ, savings must exist
  // on this densely overlapping input).
  EXPECT_LT(parallel.stats.pairs_aligned, parallel.stats.pairs_generated);
  EXPECT_GT(parallel.stats.pairs_accepted, 0u);
}

TEST_P(ParallelCluster, CostLedgersPopulated) {
  const int ranks = GetParam();
  util::Prng rng(31);
  const auto store = sampled_reads(rng, 700, 24, 100, 0.01);
  const auto result = cluster_parallel(store, small_params(), ranks);
  ASSERT_EQ(result.cost.per_rank.size(), static_cast<std::size_t>(ranks));
  EXPECT_GT(result.cost.total_msgs(), 0u);
  EXPECT_GT(result.cost.modeled_parallel_seconds(), 0.0);
  EXPECT_GE(result.stats.master_availability, 0.0);
  EXPECT_LE(result.stats.master_availability, 1.0);
}

INSTANTIATE_TEST_SUITE_P(RankCounts, ParallelCluster,
                         ::testing::Values(2, 3, 5, 8));

TEST(ParallelClusterEdge, RejectsOneRank) {
  seq::FragmentStore store;
  store.add_ascii("ACGTACGTACGTACGTACGT");
  EXPECT_THROW(cluster_parallel(store, small_params(), 1),
               std::invalid_argument);
}

TEST(ParallelClusterEdge, NoOverlapsTerminates) {
  // Fragments with nothing in common: workers exhaust immediately.
  seq::FragmentStore store;
  store.add_ascii("AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA");
  store.add_ascii("CCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCC");
  store.add_ascii("GAGAGAGAGAGAGAGAGAGAGAGAGAGAGAGA");
  const auto result = cluster_parallel(store, small_params(), 3);
  EXPECT_EQ(result.clusters.num_sets(), 3u);
  EXPECT_EQ(result.stats.pairs_accepted, 0u);
}

TEST(ParallelClusterEdge, SsendAblationSamePartition) {
  util::Prng rng(8);
  const auto store = sampled_reads(rng, 900, 24, 100, 0.01);
  auto params = small_params();
  params.use_ssend = true;
  const auto a = cluster_parallel(store, params, 4);
  params.use_ssend = false;
  const auto b = cluster_parallel(store, params, 4);
  expect_same_partition(a.clusters, b.clusters);
}

}  // namespace
}  // namespace pgasm
