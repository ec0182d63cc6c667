// Tests for the parallel GST construction: partitioning, bucket assignment,
// and the key equivalence — the union of all ranks' pair streams equals the
// serial pair stream.
#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <numeric>
#include <set>
#include <span>
#include <string>

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
  SuffixTree serial(store, GstParams{.min_match = psi});
  const auto ref = PairGenerator::generate_all(serial, {.dup_elim = false});
  std::set<test::MaxMatch> expected;
  for (const auto& q : ref)
    expected.insert({q.seq_a, q.pos_a, q.seq_b, q.pos_b, q.match_len});
  return expected;
}

/// Each rank builds its subforest over `store` and generates pairs (in
/// `store`'s ids); returns the union. Sets `*dup` when a maximal match is
/// generated on two ranks, `*cost` to the run's cost (fault counters
/// included) and `*indexed` to the ids of the sequences some rank's tree
/// holds a suffix of.
std::set<test::MaxMatch> parallel_pair_union(
    int p, const seq::FragmentStore& store, const ParallelGstParams& params,
    vmpi::FaultPlan faults, bool* dup, vmpi::RunCost* cost = nullptr,
    std::set<std::uint32_t>* indexed = nullptr) {
  std::mutex mu;
  std::set<test::MaxMatch> got;
  *dup = false;
  vmpi::Runtime rt(p, {}, std::move(faults));
  auto run_cost = rt.run([&](vmpi::Comm& comm) {
    auto dist = gst::build_distributed_gst(comm, store, params);
    ASSERT_EQ(&dist.tree->store(), &store);
    ASSERT_EQ(dist.tree->check_invariants(), "");
    PairGenerator gen(*dist.tree, {.dup_elim = false});
    PromisingPair q;
    std::lock_guard<std::mutex> lock(mu);
    if (indexed != nullptr) {
      for (std::uint32_t i = 0; i < dist.tree->num_suffixes(); ++i)
        indexed->insert(store.id_at(dist.tree->suffix(i)));
    }
    while (gen.next(q)) {
      test::MaxMatch mm{q.seq_a, q.pos_a, q.seq_b, q.pos_b, q.match_len};
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

/// `n` random fragments with, spread among them, fragments that hold no
/// suffix of length ψ = 8 or more: two empty, one shorter than ψ and one
/// fully masked. Returns the store and those fragments' ids.
std::pair<seq::FragmentStore, std::vector<std::uint32_t>> store_with_idle(
    util::Prng& rng, std::size_t n) {
  seq::FragmentStore store;
  std::vector<std::uint32_t> idle;
  auto add_idle = [&](std::vector<seq::Code> codes) {
    idle.push_back(store.add(codes));
  };
  add_idle({});
  for (std::size_t i = 0; i < n; ++i) {
    if (i == n / 3) add_idle(test::random_dna(rng, 5));
    if (i == n / 2) add_idle(std::vector<seq::Code>(60, seq::kMask));
    store.add(test::random_dna(rng, 40 + rng.below(81), 0.02));
  }
  add_idle({});
  return {std::move(store), std::move(idle)};
}

class ParallelGstRanks : public ::testing::TestWithParam<int> {};

TEST_P(ParallelGstRanks, PairUnionEqualsSerial) {
  const int p = GetParam();
  util::Prng rng(911);
  // 40 random fragments, then 3: with the 4 idle ones that is 7 fragments,
  // fewer than 8 ranks, so some slices are empty.
  for (const std::size_t n : {40u, 3u}) {
    const auto [store, idle] = store_with_idle(rng, n);
    // Distribution prefixes below and above the trees' min(ψ, 8).
    for (const GstParams gst : {GstParams{.min_match = 8, .prefix_w = 3},
                                GstParams{.min_match = 10, .prefix_w = 10}}) {
      ParallelGstParams params;
      params.gst = gst;
      bool dup = false;
      std::set<std::uint32_t> indexed;
      const auto got =
          parallel_pair_union(p, store, params, {}, &dup, nullptr, &indexed);
      const std::string what =
          "n " + std::to_string(n) + " w " + std::to_string(gst.prefix_w);
      EXPECT_FALSE(dup) << "a maximal match was generated on two ranks, "
                        << what;
      EXPECT_EQ(got, serial_pairs(store, gst.min_match)) << what;
      for (const std::uint32_t id : idle)
        EXPECT_EQ(indexed.count(id), 0u) << "fragment " << id << ", " << what;
    }
  }
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
  });
}

TEST_P(ParallelGstRanks, MessageCountIsIndependentOfInputSize) {
  // One allreduce and one staged all-to-all, whatever the input size: a
  // rank sends as many messages for a store 4x larger.
  const int p = GetParam();
  std::vector<std::uint64_t> msgs[2];
  for (int i = 0; i < 2; ++i) {
    util::Prng rng(606);
    const auto store = test::random_store(rng, i == 0 ? 30 : 120, 60, 100);
    msgs[i].assign(static_cast<std::size_t>(p), 0);
    vmpi::Runtime rt(p);
    rt.run([&](vmpi::Comm& comm) {
      ParallelGstParams params;
      params.gst = GstParams{.min_match = 10, .prefix_w = 4};
      const std::uint64_t before = comm.ledger().msgs_sent;
      (void)gst::build_distributed_gst(comm, store, params);
      msgs[i][comm.rank()] = comm.ledger().msgs_sent - before;
    });
  }
  EXPECT_EQ(msgs[0], msgs[1]);
  // A reduce and a broadcast send p - 1 messages each; an all-to-all sends
  // p - 1 per rank.
  const auto total = std::accumulate(msgs[1].begin(), msgs[1].end(),
                                     std::uint64_t{0});
  const auto q = static_cast<std::uint64_t>(p);
  EXPECT_EQ(total, 2 * (q - 1) + q * (q - 1));
}

INSTANTIATE_TEST_SUITE_P(RankCounts, ParallelGstRanks,
                         ::testing::Values(1, 2, 3, 5, 8));

TEST(ParallelGst, RebuiltPortionSurvivesMove) {
  // rebuild_rank_portion's tree references the caller's store; moving the
  // DistributedGst (as the generator-takeover path does via make_unique)
  // must keep it pointing there and not into the destroyed temporary, or
  // pair generation reads freed memory.
  util::Prng rng(77);
  const auto store = test::random_store(rng, 30, 40, 120, 0.02);
  ParallelGstParams params;
  params.gst = GstParams{.min_match = 8, .prefix_w = 3};
  const auto owner =
      std::vector<std::int32_t>(gst::num_buckets(3), 1);  // role 1 owns all

  auto moved = std::make_unique<gst::DistributedGst>(
      gst::rebuild_rank_portion(store, owner, 1, params));
  ASSERT_TRUE(moved->tree);
  EXPECT_EQ(&moved->tree->store(), &store);
  ASSERT_EQ(moved->tree->check_invariants(), "");

  gst::DistributedGst assigned;
  assigned = std::move(*moved);
  EXPECT_EQ(&assigned.tree->store(), &store);

  // The rebuilt-and-moved portion must still generate the full pair stream.
  PairGenerator gen(*assigned.tree, {.dup_elim = false});
  PromisingPair q;
  std::size_t pairs = 0;
  while (gen.next(q)) ++pairs;
  SuffixTree serial(store, GstParams{.min_match = 8});
  const auto ref = PairGenerator::generate_all(serial, {.dup_elim = false});
  EXPECT_EQ(pairs, ref.size());
}

/// Node for node, suffix for suffix and pair for pair: the portion a
/// survivor rebuilds for `role` against the tree rank `role` built.
/// Returns the number of pairs the two trees emit.
std::size_t expect_same_portion(const gst::DistributedGst& built,
                                const gst::DistributedGst& rebuilt,
                                const std::string& what) {
  EXPECT_EQ(rebuilt.stats.local_suffixes, built.stats.local_suffixes) << what;
  EXPECT_EQ(rebuilt.stats.local_buckets, built.stats.local_buckets) << what;
  const SuffixTree& a = *built.tree;
  const SuffixTree& b = *rebuilt.tree;
  EXPECT_EQ(a.num_nodes(), b.num_nodes()) << what;
  EXPECT_EQ(a.num_suffixes(), b.num_suffixes()) << what;
  if (a.num_nodes() != b.num_nodes() || a.num_suffixes() != b.num_suffixes())
    return 0;
  for (std::uint32_t i = 0; i < a.num_nodes(); ++i) {
    const gst::Node& x = a.node(i);
    const gst::Node& y = b.node(i);
    const bool same = x.parent == y.parent && x.depth == y.depth &&
                      x.first_child == y.first_child &&
                      x.next_sibling == y.next_sibling &&
                      x.suffix_begin == y.suffix_begin &&
                      x.suffix_end == y.suffix_end;
    EXPECT_TRUE(same) << what << ": node " << i;
    if (!same) return 0;
  }
  for (std::uint32_t i = 0; i < a.num_suffixes(); ++i) {
    const bool same = gst::site_of(a.store(), a.suffix(i)) ==
                      gst::site_of(b.store(), b.suffix(i));
    EXPECT_TRUE(same) << what << ": suffix " << i;
    if (!same) return 0;
  }
  const gst::PairGenParams gp{.doubled_input = true};
  const auto pairs = PairGenerator::generate_all(a, gp);
  EXPECT_EQ(pairs, PairGenerator::generate_all(b, gp)) << what;
  return pairs.size();
}

TEST(ParallelGst, RebuiltPortionEqualsTheRankTree) {
  // The takeover fast-forward replays a dead rank's stream from a rebuilt
  // portion, so the rebuild must reproduce that rank's tree exactly, for
  // distribution prefixes below, at and above the trees' min(ψ, 8).
  util::Prng rng(4711);
  const auto genome = test::random_dna(rng, 1500);
  seq::FragmentStore reads;
  for (int r = 0; r < 40; ++r) {
    const std::size_t len = 60 + rng.below(81);
    const std::size_t at = rng.below(genome.size() - len + 1);
    reads.add(std::span(genome).subspan(at, len));
  }
  const auto store = seq::make_doubled_store(reads);
  for (const int p : {2, 3, 5}) {
    for (const std::uint32_t w : {1u, 6u, 10u}) {
      ParallelGstParams params;
      params.gst = GstParams{.min_match = 12, .prefix_w = w};
      params.exclude_rank0 = w == 6;
      vmpi::Runtime rt(p);
      rt.run([&](vmpi::Comm& comm) {
        const auto built = gst::build_distributed_gst(comm, store, params);
        const auto rebuilt = gst::rebuild_rank_portion(
            store, built.bucket_owner, comm.rank(), params);
        const std::size_t pairs = expect_same_portion(
            built, rebuilt,
            "P " + std::to_string(p) + " w " + std::to_string(w) + " rank " +
                std::to_string(comm.rank()));
        // Every rank that owns buckets must have pairs to replay.
        if (built.stats.local_buckets > 0) {
          EXPECT_GT(pairs, 0u);
        }
      });
    }
  }
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
