// Tests for the linear-space alignment kernels: Hirschberg divide-and-
// conquer global alignment and Myers' bit-parallel edit distance.
#include <gtest/gtest.h>

#include <algorithm>

#include "align/linear_space.hpp"
#include "test_helpers.hpp"

namespace pgasm {
namespace {

using align::AlignResult;
using align::Scoring;
using Seq = align::Seq;

/// O(nm) reference edit distance.
std::uint32_t dp_edit_distance(Seq a, Seq b) {
  std::vector<std::uint32_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j)
    row[j] = static_cast<std::uint32_t>(j);
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::uint32_t diag = row[0];
    row[0] = static_cast<std::uint32_t>(i);
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::uint32_t old = row[j];
      const bool eq = seq::is_base(a[i - 1]) && a[i - 1] == b[j - 1];
      row[j] = std::min({diag + (eq ? 0u : 1u), row[j] + 1, row[j - 1] + 1});
      diag = old;
    }
  }
  return row[b.size()];
}

/// O(nm) reference global alignment score (linear gaps).
int dp_global_score(Seq a, Seq b, const Scoring& sc) {
  std::vector<int> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j)
    row[j] = static_cast<int>(j) * sc.gap;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    int diag = row[0];
    row[0] = static_cast<int>(i) * sc.gap;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const int old = row[j];
      row[j] = std::max({diag + sc.substitution(a[i - 1], b[j - 1]),
                         row[j] + sc.gap, row[j - 1] + sc.gap});
      diag = old;
    }
  }
  return row[b.size()];
}

class LinearSpaceRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LinearSpaceRandom, HirschbergMatchesFullMatrixScore) {
  util::Prng rng(GetParam());
  const Scoring sc;
  const auto a = test::random_dna(rng, 5 + rng.below(120), 0.03);
  const auto b = test::random_dna(rng, 5 + rng.below(120), 0.03);
  const auto hirsch = align::hirschberg_align(a, b, sc);
  EXPECT_EQ(hirsch.score, dp_global_score(a, b, sc)) << "seed " << GetParam();
  // Ops must consume both sequences completely.
  std::size_t ca = 0, cb = 0;
  for (auto op : hirsch.ops) {
    ca += op != align::Op::kInsertB;
    cb += op != align::Op::kInsertA;
  }
  EXPECT_EQ(ca, a.size());
  EXPECT_EQ(cb, b.size());
  // The recursion bottoms out on a side of at most one symbol; hit those
  // cases directly too, empty and masked inputs included.
  for (int t = 0; t < 8; ++t) {
    const auto x = test::random_dna(rng, rng.below(3), 0.2);
    const auto y = test::random_dna(rng, rng.below(6), 0.2);
    EXPECT_EQ(align::hirschberg_align(x, y, sc).score,
              dp_global_score(x, y, sc));
    EXPECT_EQ(align::hirschberg_align(y, x, sc).score,
              dp_global_score(y, x, sc));
  }
}

TEST_P(LinearSpaceRandom, MyersMatchesReferenceDp) {
  util::Prng rng(GetParam() * 3 + 1);
  // Cross the 64-char block boundary deliberately.
  const auto a = test::random_dna(rng, 1 + rng.below(200), 0.02);
  const auto b = test::random_dna(rng, 1 + rng.below(200), 0.02);
  EXPECT_EQ(align::myers_edit_distance(a, b), dp_edit_distance(a, b))
      << "seed " << GetParam() << " m=" << a.size() << " n=" << b.size();
}

TEST_P(LinearSpaceRandom, BoundedMyersConsistent) {
  util::Prng rng(GetParam() * 17 + 5);
  const auto a = test::random_dna(rng, 20 + rng.below(150));
  const auto b = test::random_dna(rng, 20 + rng.below(150));
  const auto d = align::myers_edit_distance(a, b);
  for (std::uint32_t k : {0u, 3u, d > 0 ? d - 1 : 0u, d, d + 5}) {
    const auto bd = align::myers_edit_distance_bounded(a, b, k);
    if (d <= k) {
      EXPECT_EQ(bd, d);
    } else {
      EXPECT_EQ(bd, k + 1);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LinearSpaceRandom,
                         ::testing::Range<std::uint64_t>(1, 21));

TEST(LinearSpace, KnownDistances) {
  const auto a = seq::encode("ACGTACGT");
  const auto b = seq::encode("ACGTTCGT");
  EXPECT_EQ(align::myers_edit_distance(a, b), 1u);  // one substitution
  const auto c = seq::encode("ACGACGT");
  EXPECT_EQ(align::myers_edit_distance(a, c), 1u);  // one deletion
  EXPECT_EQ(align::myers_edit_distance(a, a), 0u);
  EXPECT_EQ(align::myers_edit_distance(a, {}), 8u);
  EXPECT_EQ(align::myers_edit_distance({}, b), 8u);
}

TEST(LinearSpace, MaskedMismatchesEverything) {
  const auto a = seq::encode("ACNNGT");
  EXPECT_EQ(align::myers_edit_distance(a, a), 2u);  // the two Ns
}

TEST(LinearSpace, ExactBlockBoundaries) {
  util::Prng rng(8);
  for (std::size_t m : {63u, 64u, 65u, 127u, 128u, 129u}) {
    const auto a = test::random_dna(rng, m);
    auto b = a;
    b[m / 2] = static_cast<seq::Code>((b[m / 2] + 1) % 4);
    EXPECT_EQ(align::myers_edit_distance(a, b), 1u) << "m=" << m;
    EXPECT_EQ(align::myers_edit_distance(a, a), 0u) << "m=" << m;
  }
}

TEST(LinearSpace, HirschbergLongSequences) {
  // The point of Hirschberg: long inputs without the O(nm) traceback
  // matrix. 4000x4000 would need a 16M-cell traceback; here memory stays
  // O(n) while the score matches the (row-wise) full DP score.
  util::Prng rng(9);
  const auto genome = test::random_dna(rng, 4000);
  auto mutated = genome;
  for (auto& c : mutated) {
    if (rng.chance(0.05)) c = static_cast<seq::Code>((c + 1) % 4);
  }
  const Scoring sc;
  const auto r = align::hirschberg_align(genome, mutated, sc);
  EXPECT_GT(r.identity(), 0.9);
  // Substitution-mutated input: the optimal alignment is (near-)colinear;
  // a few compensating indel pairs may locally beat clustered mismatches.
  EXPECT_GE(r.columns, 4000u);
  EXPECT_LE(r.columns, 4020u);
}

}  // namespace
}  // namespace pgasm
