// Tests for the end-free overlap kernels: a brute-force oracle on tiny
// inputs, banded == full matrix with a covering band, traceback
// consistency, overlap classification, the score bound, and the clustering
// accept test.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <utility>

#include "align/overlap.hpp"
#include "align/pairwise.hpp"
#include "align/workspace.hpp"
#include "test_helpers.hpp"

namespace pgasm {
namespace {

using align::AlignOptions;
using align::AlignResult;
using align::OverlapParams;
using align::OverlapType;
using align::Scoring;
using Seq = align::Seq;

std::vector<seq::Code> enc(const std::string& s) { return seq::encode(s); }

/// Exponential-time reference for end-free alignment: the best score of a
/// path from (i, j) that may stop on the last row or column. With gap < 0
/// a path never gains by running along an edge, so the oracle starts free
/// anywhere on row 0 or column 0 (see brute_overlap).
int brute_overlap_from(Seq a, Seq b, const Scoring& sc, std::size_t i,
                       std::size_t j) {
  int best = (i == a.size() || j == b.size())
                 ? 0
                 : std::numeric_limits<int>::min() / 4;
  if (i < a.size() && j < b.size()) {
    best = std::max(best, sc.substitution(a[i], b[j]) +
                              brute_overlap_from(a, b, sc, i + 1, j + 1));
  }
  if (i < a.size()) {
    best = std::max(best, sc.gap + brute_overlap_from(a, b, sc, i + 1, j));
  }
  if (j < b.size()) {
    best = std::max(best, sc.gap + brute_overlap_from(a, b, sc, i, j + 1));
  }
  return best;
}

int brute_overlap(Seq a, Seq b, const Scoring& sc) {
  int best = brute_overlap_from(a, b, sc, 0, 0);
  for (std::size_t i = 1; i <= a.size(); ++i)
    best = std::max(best, brute_overlap_from(a, b, sc, i, 0));
  for (std::size_t j = 1; j <= b.size(); ++j)
    best = std::max(best, brute_overlap_from(a, b, sc, 0, j));
  return best;
}

/// The op string is a path through exactly the reported region, and its
/// match columns are exactly the identical, unmasked ones.
void expect_consistent_traceback(Seq a, Seq b, const AlignResult& r) {
  ASSERT_EQ(r.ops.size(), r.columns);
  std::uint32_t i = r.a_begin, j = r.b_begin, matches = 0;
  for (const align::Op op : r.ops) {
    switch (op) {
      case align::Op::kMatch:
        ASSERT_TRUE(seq::is_base(a[i]) && a[i] == b[j]);
        ++matches;
        ++i;
        ++j;
        break;
      case align::Op::kMismatch:
        ASSERT_FALSE(seq::is_base(a[i]) && a[i] == b[j]);
        ++i;
        ++j;
        break;
      case align::Op::kInsertA:
        ++i;
        break;
      case align::Op::kInsertB:
        ++j;
        break;
    }
  }
  EXPECT_EQ(i - r.a_begin, r.a_span());
  EXPECT_EQ(j - r.b_begin, r.b_span());
  EXPECT_EQ(i, r.a_end);
  EXPECT_EQ(j, r.b_end);
  EXPECT_EQ(matches, r.matches);
}

class AlignRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AlignRandom, OverlapMatchesBruteForce) {
  util::Prng rng(GetParam());
  const Scoring sc;
  for (int t = 0; t < 16; ++t) {
    const auto a = test::random_dna(rng, 1 + rng.below(8), 0.15);
    const auto b = test::random_dna(rng, 1 + rng.below(8), 0.15);
    EXPECT_EQ(align::overlap_align(a, b, sc).aln.score,
              brute_overlap(a, b, sc));
  }
}

TEST_P(AlignRandom, BandedEqualsUnbandedWithCoveringBand) {
  util::Prng rng(GetParam() + 100);
  const Scoring sc;
  align::Workspace ws;
  for (int t = 0; t < 16; ++t) {
    const auto a = test::random_dna(rng, 1 + rng.below(8), 0.15);
    const auto b = test::random_dna(rng, 1 + rng.below(8), 0.15);
    const int want = brute_overlap(a, b, sc);
    EXPECT_EQ(align::overlap_align(a, b, sc).aln.score, want);
    // Any shift works once the band covers the whole matrix.
    const auto shift = static_cast<std::int32_t>(rng.below(21)) - 10;
    const auto band = static_cast<std::uint32_t>(a.size() + b.size() +
                                                 std::abs(shift));
    EXPECT_EQ(
        align::banded_overlap_align(a, b, sc, shift, band, ws).aln.score,
        want);
  }
}

TEST_P(AlignRandom, TracebackCountsConsistent) {
  util::Prng rng(GetParam() + 200);
  const Scoring sc;
  const AlignOptions keep{.keep_ops = true};
  align::Workspace ws;
  for (int t = 0; t < 8; ++t) {
    auto a = test::random_dna(rng, 1 + rng.below(60), 0.05);
    auto b = test::random_dna(rng, 1 + rng.below(60), 0.05);
    // Plant a shared stretch half the time so long tracebacks occur too.
    const std::size_t ov = rng.chance(0.5) ? std::min(a.size(), b.size()) / 2
                                           : 0;
    std::copy(a.end() - static_cast<std::ptrdiff_t>(ov), a.end(), b.begin());
    const auto shift = static_cast<std::int32_t>(ov) -
                       static_cast<std::int32_t>(a.size());
    const auto full = align::overlap_align(a, b, sc, keep);
    expect_consistent_traceback(a, b, full.aln);
    const auto banded =
        align::banded_overlap_align(a, b, sc, shift, 6, ws, keep);
    expect_consistent_traceback(a, b, banded.aln);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AlignRandom,
                         ::testing::Range<std::uint64_t>(1, 17));

// --- Overlap (suffix-prefix) alignment -------------------------------------

TEST(Overlap, PerfectDovetail) {
  // a suffix == b prefix, 10 chars.
  const auto a = enc("TTTTTTACGTACGTAC");
  const auto b = enc("ACGTACGTACGGGGGG");
  const auto r = align::overlap_align(a, b, Scoring{});
  EXPECT_EQ(r.type, OverlapType::kDovetailAB);
  EXPECT_GE(r.aln.matches, 10u);
  EXPECT_EQ(r.aln.a_end, a.size());
  EXPECT_EQ(r.aln.b_begin, 0u);
}

TEST(Overlap, DovetailOtherOrder) {
  const auto a = enc("ACGTACGTACGGGGGG");
  const auto b = enc("TTTTTTACGTACGTAC");
  const auto r = align::overlap_align(a, b, Scoring{});
  EXPECT_EQ(r.type, OverlapType::kDovetailBA);
}

TEST(Overlap, Containment) {
  const auto a = enc("TTTTTACGTACGTACGTTTTTT");
  const auto b = enc("ACGTACGTACGT");
  const auto r = align::overlap_align(a, b, Scoring{});
  EXPECT_EQ(r.type, OverlapType::kContainsB);
  const auto r2 = align::overlap_align(b, a, Scoring{});
  EXPECT_EQ(r2.type, OverlapType::kContainedInB);
}

TEST(Overlap, ToleratesErrors) {
  util::Prng rng(77);
  auto a = test::random_dna(rng, 120);
  // b = last 60 of a + 60 fresh, with 3 substitutions in the overlap.
  std::vector<seq::Code> b(a.begin() + 60, a.end());
  auto fresh = test::random_dna(rng, 60);
  b.insert(b.end(), fresh.begin(), fresh.end());
  for (std::uint32_t posn : {5u, 25u, 45u}) {
    b[posn] = static_cast<seq::Code>((b[posn] + 1) % 4);
  }
  const auto r = align::overlap_align(a, b, Scoring{});
  EXPECT_EQ(r.type, OverlapType::kDovetailAB);
  EXPECT_GE(r.aln.identity(), 0.9);
  EXPECT_GE(r.overlap_len(), 55u);
}

TEST(Overlap, BandedAgreesWithFullOnSeededPairs) {
  util::Prng rng(31);
  align::Workspace ws;
  for (int t = 0; t < 12; ++t) {
    auto a = test::random_dna(rng, 100);
    // b shares a's suffix starting at 40: seed anchor at (40, 0).
    std::vector<seq::Code> b(a.begin() + 40, a.end());
    auto fresh = test::random_dna(rng, 50);
    b.insert(b.end(), fresh.begin(), fresh.end());
    // A couple of random errors inside the overlap.
    for (int e = 0; e < 2; ++e) {
      const auto posn = rng.below(55);
      b[posn] = static_cast<seq::Code>((b[posn] + 1 + rng.below(3)) % 4);
    }
    const auto full = align::overlap_align(a, b, Scoring{});
    const auto banded =
        align::banded_overlap_align(a, b, Scoring{}, /*shift=*/-40,
                                    /*band=*/8, ws);
    EXPECT_EQ(banded.type, full.type);
    EXPECT_NEAR(banded.aln.score, full.aln.score, 0);
  }
}

TEST(Overlap, BandedMissesWhenBandExcludesEnds) {
  const auto a = enc("AAAAAAAAAACGCGCGCG");
  const auto b = enc("TTTTTTTTTTTTTTTTTT");
  align::Workspace ws;
  const auto r = align::banded_overlap_align(a, b, Scoring{}, 100, 2, ws);
  EXPECT_EQ(r.type, OverlapType::kNone);
}

/// Random a, and b sharing an overlap with it (substitutions, indels and
/// masked codes inside); returns b and the overlap's true diagonal.
std::pair<std::vector<seq::Code>, std::int32_t> mutated_overlap(
    util::Prng& rng, const std::vector<seq::Code>& a) {
  const std::size_t start = rng.below(a.size());
  std::vector<seq::Code> b;
  for (std::size_t k = start; k < a.size(); ++k) {
    if (rng.chance(0.02)) continue;  // deletion
    if (rng.chance(0.02)) b.push_back(static_cast<seq::Code>(rng.below(4)));
    seq::Code c = a[k];
    if (rng.chance(0.03)) c = static_cast<seq::Code>((c + 1) % 4);
    if (rng.chance(0.02)) c = seq::kMask;
    b.push_back(c);
  }
  const auto tail = test::random_dna(rng, rng.below(80), 0.02);
  b.insert(b.end(), tail.begin(), tail.end());
  return {b, -static_cast<std::int32_t>(start)};
}

TEST(OverlapBound, NeverBelowBandedScore) {
  util::Prng rng(91);
  const Scoring sc{};
  align::Workspace ws;
  for (int t = 0; t < 300; ++t) {
    const auto a = test::random_dna(rng, 30 + rng.below(170), 0.01);
    const auto [b, diag] = rng.chance(0.8)
                               ? mutated_overlap(rng, a)
                               : std::pair{test::random_dna(rng, 40 + rng.below(150)),
                                           std::int32_t{0}};
    const auto la = static_cast<std::int32_t>(a.size());
    const auto lb = static_cast<std::int32_t>(b.size());
    const std::int32_t noise = static_cast<std::int32_t>(rng.below(9)) - 4;
    for (const std::int32_t shift :
         {diag + noise, -la - 7, -la, -la + 1, 0, lb - la, lb - 1, lb,
          lb + 7}) {
      for (const std::uint32_t band : {0u, 1u, 4u, 12u, 48u}) {
        const int bound = align::banded_overlap_score_bound(
            static_cast<std::uint32_t>(la), static_cast<std::uint32_t>(lb),
            shift, band, sc);
        const auto r = align::banded_overlap_align(a, b, sc, shift, band, ws);
        EXPECT_GE(bound, r.aln.score)
            << "la=" << la << " lb=" << lb << " shift=" << shift
            << " band=" << band;
        EXPECT_GE(bound, 0);
      }
    }
  }
}

TEST(OverlapBound, TightOnErrorFreeOverlaps) {
  util::Prng rng(93);
  const Scoring sc{};
  align::Workspace ws;
  for (int t = 0; t < 50; ++t) {
    const auto a = test::random_dna(rng, 60 + rng.below(140));
    const std::size_t start = 1 + rng.below(a.size() - 30);
    // Error-free dovetail: a's suffix from `start` is b's prefix. On its
    // own diagonal it is the longest in-band overlap only for band 0.
    std::vector<seq::Code> b(a.begin() + static_cast<std::ptrdiff_t>(start),
                             a.end());
    const auto tail = test::random_dna(rng, 1 + rng.below(60));
    b.insert(b.end(), tail.begin(), tail.end());
    const auto shift = -static_cast<std::int32_t>(start);
    const auto r = align::banded_overlap_align(a, b, sc, shift, 0, ws);
    ASSERT_EQ(r.type, OverlapType::kDovetailAB);
    EXPECT_EQ(align::banded_overlap_score_bound(
                  static_cast<std::uint32_t>(a.size()),
                  static_cast<std::uint32_t>(b.size()), shift, 0, sc),
              r.aln.score);
    // Identical copies: diagonal 0 is the longest, for any band.
    const auto same = align::banded_overlap_align(a, a, sc, 0, 12, ws);
    EXPECT_EQ(align::banded_overlap_score_bound(
                  static_cast<std::uint32_t>(a.size()),
                  static_cast<std::uint32_t>(a.size()), 0, 12, sc),
              same.aln.score);
  }
}

TEST(OverlapBound, UnboundedScoringSkipsNothing) {
  constexpr int kMax = std::numeric_limits<int>::max();
  EXPECT_EQ(align::banded_overlap_score_bound(
                100, 100, 0, 12, Scoring{.match = 0}),
            kMax);
  EXPECT_EQ(align::banded_overlap_score_bound(
                100, 100, 0, 12, Scoring{.gap = 1}),
            kMax);
  EXPECT_EQ(align::banded_overlap_score_bound(
                100, 100, 0, 12, Scoring{.match = 2, .mismatch = 3}),
            kMax);
  EXPECT_EQ(align::banded_overlap_score_bound(100, 100, 0, 12, Scoring{}),
            200);
}

TEST(Overlap, AcceptTestEnforcesCutoffs) {
  OverlapParams p;
  p.min_overlap = 40;
  p.min_identity = 0.94;

  util::Prng rng(8);
  auto a = test::random_dna(rng, 100);
  std::vector<seq::Code> b(a.begin() + 50, a.end());
  auto fresh = test::random_dna(rng, 50);
  b.insert(b.end(), fresh.begin(), fresh.end());

  align::Workspace ws;
  auto good = align::banded_overlap_align(a, b, p.scoring, -50, p.band, ws);
  EXPECT_TRUE(align::accept_overlap(good, p));

  // Too-short overlap: only 20 shared chars.
  std::vector<seq::Code> c(a.begin() + 80, a.end());
  c.insert(c.end(), fresh.begin(), fresh.end());
  auto shortr = align::banded_overlap_align(a, c, p.scoring, -80, p.band, ws);
  EXPECT_FALSE(align::accept_overlap(shortr, p));

  // Low identity: corrupt 20% of the overlap.
  auto noisy = b;
  for (std::uint32_t i = 0; i < 50; i += 5)
    noisy[i] = static_cast<seq::Code>((noisy[i] + 2) % 4);
  auto bad = align::banded_overlap_align(a, noisy, p.scoring, -50, p.band, ws);
  EXPECT_FALSE(align::accept_overlap(bad, p));
}

TEST(Overlap, RcSymmetry) {
  // overlap(a, b) as dovetail A->B should mirror overlap(rc(b), rc(a)).
  util::Prng rng(21);
  auto a = test::random_dna(rng, 80);
  std::vector<seq::Code> b(a.begin() + 30, a.end());
  auto fresh = test::random_dna(rng, 30);
  b.insert(b.end(), fresh.begin(), fresh.end());
  const auto fwd = align::overlap_align(a, b, Scoring{});
  const auto ra = seq::reverse_complement(a);
  const auto rb = seq::reverse_complement(b);
  const auto rev = align::overlap_align(rb, ra, Scoring{});
  EXPECT_EQ(fwd.aln.score, rev.aln.score);
  EXPECT_EQ(fwd.type, OverlapType::kDovetailAB);
  EXPECT_EQ(rev.type, OverlapType::kDovetailAB);
}

TEST(Align, MaskedNeverMatches) {
  const AlignOptions keep{.keep_ops = true};
  const auto a = enc("ACNNGT");
  align::Workspace ws;
  // The two N positions are mismatches even against themselves.
  for (const auto& r :
       {align::overlap_align(a, a, Scoring{}, keep),
        align::banded_overlap_align(a, a, Scoring{}, 0, 4, ws, keep)}) {
    EXPECT_EQ(r.aln.matches, 4u);
    EXPECT_EQ(r.aln.columns, 6u);
    expect_consistent_traceback(a, a, r.aln);
  }
  const auto n = enc("NNNN");
  EXPECT_EQ(align::overlap_align(n, n, Scoring{}).aln.matches, 0u);
}

}  // namespace
}  // namespace pgasm
