// Tests for the parallel GST construction: partitioning, bucket assignment,
// and the key equivalence — the union of all ranks' pair streams equals the
// serial pair stream.
#include <gtest/gtest.h>

#include <mutex>
#include <set>

#include "gst/pair_generator.hpp"
#include "gst/parallel_build.hpp"
#include "test_helpers.hpp"
#include "vmpi/runtime.hpp"

namespace pgasm {
namespace {

using gst::GstParams;
using gst::PairGenerator;
using gst::ParallelGstParams;
using gst::PromisingPair;
using gst::SuffixTree;

TEST(Partition, CoversStoreContiguously) {
  util::Prng rng(2);
  const auto store = test::random_store(rng, 57, 10, 200);
  for (int p : {1, 2, 3, 7, 16}) {
    const auto slice = gst::partition_store(store, p);
    ASSERT_EQ(slice.size(), static_cast<std::size_t>(p) + 1);
    EXPECT_EQ(slice.front(), 0u);
    EXPECT_EQ(slice.back(), store.size());
    for (int r = 0; r < p; ++r) EXPECT_LE(slice[r], slice[r + 1]);
  }
}

TEST(Partition, RoughlyBalancedByCharacters) {
  util::Prng rng(3);
  const auto store = test::random_store(rng, 400, 50, 150);
  const int p = 8;
  const auto slice = gst::partition_store(store, p);
  const double ideal = static_cast<double>(store.total_length()) / p;
  for (int r = 0; r < p; ++r) {
    std::uint64_t chars = 0;
    for (std::uint32_t s = slice[r]; s < slice[r + 1]; ++s)
      chars += store.length(s);
    EXPECT_NEAR(static_cast<double>(chars), ideal, ideal * 0.5);
  }
}

TEST(BucketAssignment, AllNonEmptyBucketsOwnedAndBalanced) {
  std::vector<std::uint64_t> hist = {100, 0, 50, 50, 30, 30, 30, 10};
  const auto owner = gst::assign_buckets(hist, 3);
  ASSERT_EQ(owner.size(), hist.size());
  EXPECT_EQ(owner[1], -1);
  std::vector<std::uint64_t> load(3, 0);
  for (std::size_t b = 0; b < hist.size(); ++b) {
    if (hist[b] == 0) continue;
    ASSERT_GE(owner[b], 0);
    ASSERT_LT(owner[b], 3);
    load[owner[b]] += hist[b];
  }
  // LPT on this instance: 100 / 50+30+30 / 50+30+10. Max load stays within
  // the classic 4/3 bound of the ideal (300/3 = 100).
  const std::uint64_t max_load = std::max({load[0], load[1], load[2]});
  EXPECT_LE(max_load, 133u);
  EXPECT_EQ(load[0] + load[1] + load[2], 300u);
}

std::set<test::MaxMatch> serial_pairs(const seq::FragmentStore& store,
                                      std::uint32_t psi) {
  SuffixTree serial(store, GstParams{.min_match = psi, .prefix_w = 0});
  const auto ref = PairGenerator::generate_all(serial, {.dup_elim = false});
  std::set<test::MaxMatch> expected;
  for (const auto& q : ref)
    expected.insert({q.seq_a, q.pos_a, q.seq_b, q.pos_b, q.match_len});
  return expected;
}

/// Each rank builds its subforest and generates pairs (mapped to global
/// ids); returns the union. Sets `*dup` when a maximal match is generated
/// on two ranks and `*cost` to the run's cost (fault counters included).
std::set<test::MaxMatch> parallel_pair_union(
    int p, const seq::FragmentStore& store, const ParallelGstParams& params,
    vmpi::FaultPlan faults, bool* dup, vmpi::RunCost* cost = nullptr) {
  std::mutex mu;
  std::set<test::MaxMatch> got;
  *dup = false;
  vmpi::Runtime rt(p, {}, std::move(faults));
  auto run_cost = rt.run([&](vmpi::Comm& comm) {
    auto dist = gst::build_distributed_gst(comm, store, params);
    ASSERT_EQ(dist.tree->check_invariants(), "");
    PairGenerator gen(*dist.tree, {.dup_elim = false});
    PromisingPair q;
    std::lock_guard<std::mutex> lock(mu);
    while (gen.next(q)) {
      test::MaxMatch mm{dist.local_to_global[q.seq_a], q.pos_a,
                        dist.local_to_global[q.seq_b], q.pos_b, q.match_len};
      if (std::get<0>(mm) > std::get<2>(mm)) {
        mm = {std::get<2>(mm), std::get<3>(mm), std::get<0>(mm),
              std::get<1>(mm), std::get<4>(mm)};
      }
      if (!got.insert(mm).second) *dup = true;
    }
  });
  if (cost != nullptr) *cost = std::move(run_cost);
  return got;
}

class ParallelGstRanks : public ::testing::TestWithParam<int> {};

TEST_P(ParallelGstRanks, PairUnionEqualsSerial) {
  const int p = GetParam();
  util::Prng rng(911);
  const auto store = test::random_store(rng, 40, 40, 120, 0.02);
  ParallelGstParams params;
  params.gst = GstParams{.min_match = 8, .prefix_w = 3};
  params.fetch_batch_chars = 512;  // force multiple fetch rounds
  bool dup = false;
  const auto got = parallel_pair_union(p, store, params, {}, &dup);
  EXPECT_FALSE(dup) << "a maximal match was generated on two ranks";
  EXPECT_EQ(got, serial_pairs(store, 8));
}

TEST_P(ParallelGstRanks, StatsArePopulated) {
  const int p = GetParam();
  util::Prng rng(1234);
  const auto store = test::random_store(rng, 30, 50, 100);
  vmpi::Runtime rt(p);
  rt.run([&](vmpi::Comm& comm) {
    ParallelGstParams params;
    params.gst = GstParams{.min_match = 10, .prefix_w = 4};
    auto dist = gst::build_distributed_gst(comm, store, params);
    const auto total_suffixes =
        comm.allreduce_sum<std::uint64_t>(dist.stats.local_suffixes);
    const auto serial_count =
        gst::enumerate_suffixes(store, 10).size();
    EXPECT_EQ(total_suffixes, serial_count);
    EXPECT_GE(dist.stats.fetch_rounds, 1u);
    if (comm.rank() == 0 && p > 1) {
      // With several ranks someone must fetch remote fragments.
      const auto fetched =
          comm.allreduce_sum<std::uint64_t>(dist.stats.fetched_fragments);
      EXPECT_GT(fetched, 0u);
    } else if (p > 1) {
      (void)comm.allreduce_sum<std::uint64_t>(dist.stats.fetched_fragments);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, ParallelGstRanks,
                         ::testing::Values(1, 2, 3, 5, 8));

TEST(ParallelGst, RebuiltPortionSurvivesMove) {
  // rebuild_rank_portion's tree references the portion's own local_store;
  // moving the DistributedGst (as the generator-takeover path does via
  // make_unique) must re-seat that reference, or the tree dangles into the
  // destroyed temporary and pair generation reads freed memory.
  util::Prng rng(77);
  const auto store = test::random_store(rng, 30, 40, 120, 0.02);
  ParallelGstParams params;
  params.gst = GstParams{.min_match = 8, .prefix_w = 3};
  const auto owner =
      std::vector<std::int32_t>(gst::num_buckets(3), 1);  // role 1 owns all

  auto moved = std::make_unique<gst::DistributedGst>(
      gst::rebuild_rank_portion(store, owner, 1, params));
  ASSERT_TRUE(moved->tree);
  EXPECT_EQ(&moved->tree->store(), &moved->local_store);
  ASSERT_EQ(moved->tree->check_invariants(), "");

  gst::DistributedGst assigned;
  assigned = std::move(*moved);
  EXPECT_EQ(&assigned.tree->store(), &assigned.local_store);

  // The rebuilt-and-moved portion must still generate the full pair stream.
  PairGenerator gen(*assigned.tree, {.dup_elim = false});
  PromisingPair q;
  std::size_t pairs = 0;
  while (gen.next(q)) ++pairs;
  SuffixTree serial(store, GstParams{.min_match = 8, .prefix_w = 0});
  const auto ref = PairGenerator::generate_all(serial, {.dup_elim = false});
  EXPECT_EQ(pairs, ref.size());
}

TEST(ParallelGst, CrashPlanDoesNotFireInsideCollectiveBuild) {
  // Fault plans act on the user channel only and the build uses
  // collectives only, so a plan that kills every rank at its first send
  // leaves the build untouched: a death planned "inside" the GST lands on
  // the rank's first clustering send instead, where takeover covers it.
  util::Prng rng(313);
  const auto store = test::random_store(rng, 36, 40, 120, 0.02);
  const int p = 4;
  vmpi::FaultPlan faults;
  for (int r = 0; r < p; ++r)
    faults.crashes.push_back({.rank = r, .at_send = 1});
  ParallelGstParams params;
  params.gst = GstParams{.min_match = 8, .prefix_w = 3};
  params.fetch_batch_chars = 512;
  bool dup = false;
  vmpi::RunCost cost;
  const auto got = parallel_pair_union(p, store, params, faults, &dup, &cost);
  EXPECT_EQ(cost.faults.crashes_injected, 0u);
  EXPECT_FALSE(dup);
  EXPECT_EQ(got, serial_pairs(store, 8));
}

TEST(ParallelGst, RejectsBadPrefix) {
  util::Prng rng(5);
  const auto store = test::random_store(rng, 5, 40, 60);
  vmpi::Runtime rt(2);
  EXPECT_THROW(rt.run([&](vmpi::Comm& comm) {
                 ParallelGstParams params;
                 params.gst = GstParams{.min_match = 4, .prefix_w = 9};
                 (void)gst::build_distributed_gst(comm, store, params);
               }),
               std::runtime_error);
}

}  // namespace
}  // namespace pgasm
