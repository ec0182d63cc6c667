// Tests for the end-free overlap kernels: a brute-force oracle on tiny
// inputs, banded == full matrix with a covering band, traceback
// consistency, the banded kernel (both sweep builds) against its scalar
// reference cell for cell, the narrower-band lemma, overlap classification,
// the score bound, and the clustering accept test.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <stdexcept>
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

// --- The banded kernel against its scalar oracle, cell for cell ------------

/// Every field of two results, ops and type included.
void expect_same_result(const align::OverlapResult& got,
                        const align::OverlapResult& want) {
  EXPECT_EQ(got.aln.score, want.aln.score);
  EXPECT_EQ(got.aln.a_begin, want.aln.a_begin);
  EXPECT_EQ(got.aln.a_end, want.aln.a_end);
  EXPECT_EQ(got.aln.b_begin, want.aln.b_begin);
  EXPECT_EQ(got.aln.b_end, want.aln.b_end);
  EXPECT_EQ(got.aln.matches, want.aln.matches);
  EXPECT_EQ(got.aln.columns, want.aln.columns);
  EXPECT_EQ(got.aln.ops, want.aln.ops);
  EXPECT_EQ(got.type, want.type);
}

/// The sweep builds this CPU can run: the 16-byte one, and AVX2 if present.
std::vector<align::detail::Sweep> sweep_builds() {
  std::vector<align::detail::Sweep> builds{align::detail::Sweep::kVec16};
  if (align::detail::selected_sweep() == align::detail::Sweep::kAvx2) {
    builds.push_back(align::detail::Sweep::kAvx2);
  }
  return builds;
}

/// banded_overlap_align through `ws`, and each sweep build through the
/// same dirty `ws`, against banded_overlap_align_reference.
void expect_banded_exact(Seq a, Seq b, const Scoring& sc, std::int32_t shift,
                         std::uint32_t band, align::Workspace& ws) {
  SCOPED_TRACE(::testing::Message()
               << "la=" << a.size() << " lb=" << b.size()
               << " shift=" << shift << " band=" << band << " scoring="
               << sc.match << "/" << sc.mismatch << "/" << sc.gap);
  const AlignOptions keep{.keep_ops = true};
  const auto want =
      align::banded_overlap_align_reference(a, b, sc, shift, band, keep);
  expect_same_result(
      align::banded_overlap_align(a, b, sc, shift, band, ws, keep), want);
  for (const align::detail::Sweep build : sweep_builds()) {
    SCOPED_TRACE(align::detail::sweep_name(build));
    expect_same_result(align::detail::banded_overlap_align(
                           build, a, b, sc, shift, band, ws, keep),
                       want);
  }
}

// Band widths around the lane counts of one and two 8-lane vectors, the
// clustering band and polish's band.
constexpr std::uint32_t kBands[] = {0, 1, 7, 8, 9, 12, 15, 16, 17, 56};

// Default, unit, heavier, and one whose mismatch weight alone exceeds the
// 16-bit lanes' bound, so even short pairs take 32-bit lanes.
const Scoring kScorings[] = {Scoring{}, Scoring{1, -1, -1}, Scoring{5, -4, -7},
                             Scoring{4, -5000, -6}};

TEST(BandedExact, EverySequenceUpToLengthTwo) {
  // Every sequence of length 0-2 over {A, C, mask}, every shift that puts
  // the band on, across or off the matrix, every band.
  std::vector<std::vector<seq::Code>> seqs{{}};
  for (std::size_t at = 0; at < seqs.size() && seqs[at].size() < 2; ++at) {
    for (const seq::Code c : {seq::kA, seq::kC, seq::kMask}) {
      auto s = seqs[at];
      s.push_back(c);
      seqs.push_back(std::move(s));
    }
  }
  ASSERT_EQ(seqs.size(), 13u);
  align::Workspace ws;
  for (const auto& a : seqs) {
    for (const auto& b : seqs) {
      for (const std::uint32_t band : kBands) {
        for (std::int32_t shift = -4; shift <= 4; ++shift) {
          expect_banded_exact(a, b, Scoring{}, shift, band, ws);
        }
      }
    }
  }
}

TEST(BandedExact, BandPartlyOrWhollyOffTheMatrix) {
  util::Prng rng(1701);
  align::Workspace ws;
  for (int t = 0; t < 40; ++t) {
    const auto a = test::random_dna(rng, rng.below(90), 0.03);
    const auto b = test::random_dna(rng, rng.below(90), 0.03);
    const auto la = static_cast<std::int32_t>(a.size());
    const auto lb = static_cast<std::int32_t>(b.size());
    for (const std::uint32_t band : kBands) {
      const auto w = static_cast<std::int32_t>(band);
      // Band edges at, just inside and just outside each matrix corner.
      for (const std::int32_t shift :
           {-la - w - 1, -la - w, -la - w + 1, -la, -la + w, lb - la, 0,
            lb - w - 1, lb - w, lb, lb + w, lb + w + 1, lb + 3 * w + 5}) {
        expect_banded_exact(a, b, Scoring{}, shift, band, ws);
      }
    }
  }
}

TEST(BandedExact, MaskedCodesUnderFourScorings) {
  util::Prng rng(1702);
  align::Workspace ws;
  for (int t = 0; t < 60; ++t) {
    const auto a = test::random_dna(rng, 1 + rng.below(150), 0.08);
    auto [b, diag] = mutated_overlap(rng, a);
    for (std::size_t j = 0; j < b.size(); j += 1 + rng.below(20)) {
      b[j] = seq::kMask;  // masked codes in both sequences
    }
    for (const Scoring& sc : kScorings) {
      for (const std::uint32_t band : kBands) {
        const auto noise = static_cast<std::int32_t>(rng.below(9)) - 4;
        expect_banded_exact(a, b, sc, diag + noise, band, ws);
      }
    }
  }
}

TEST(BandedExact, OneDirtyWorkspaceAcrossGrowingAndShrinkingShapes) {
  util::Prng rng(1703);
  align::Workspace ws;  // never cleared: every call inherits the last's cells
  const std::size_t lens[] = {2, 300, 5, 700, 40, 1, 450, 0, 90, 600};
  for (int t = 0; t < 30; ++t) {
    const std::size_t la = lens[t % 10] + rng.below(10);
    const std::size_t lb = lens[(t + 7) % 10] + rng.below(10);
    const auto a = test::random_dna(rng, la, 0.02);
    auto b = test::random_dna(rng, lb, 0.02);
    const std::size_t ov = std::min(la, lb) / 2;
    std::copy(a.end() - static_cast<std::ptrdiff_t>(ov), a.end(), b.begin());
    const std::int32_t shift = static_cast<std::int32_t>(ov) -
                               static_cast<std::int32_t>(la);
    expect_banded_exact(a, b, kScorings[t % 4], shift, kBands[t % 10], ws);
  }
}

TEST(BandedExact, LongPairsTakeThe32BitLanes) {
  // At the default weights 16-bit lanes hold pairs up to la + lb = 7166;
  // these go past it, with a long planted overlap so scores run high.
  util::Prng rng(1704);
  align::Workspace ws;
  for (const std::size_t la : {3400u, 3700u, 4200u}) {
    const auto a = test::random_dna(rng, la, 0.002);
    std::vector<seq::Code> b(a.begin() + 600, a.end());
    for (std::size_t j = 0; j < b.size(); j += 97) {
      b[j] = static_cast<seq::Code>((b[j] + 1) % 4);
    }
    const auto tail = test::random_dna(rng, 4000);
    b.insert(b.end(), tail.begin(), tail.end());
    ASSERT_GT(a.size() + b.size(), 7200u);
    for (const std::uint32_t band : {12u, 56u}) {
      expect_banded_exact(a, b, Scoring{}, -600, band, ws);
      expect_banded_exact(a, b, Scoring{}, -590, band, ws);
    }
  }
  // All mismatches: scores fall by 3 a column, past what 16 bits hold.
  const std::vector<seq::Code> as(12000, seq::kA), cs(12000, seq::kC);
  expect_banded_exact(as, cs, Scoring{}, 0, 12, ws);
}

TEST(BandedExact, Avx2BuildRunsWhereTheCpuHasIt) {
  using align::detail::Sweep;
  EXPECT_STREQ(align::detail::sweep_name(Sweep::kVec16), "vec16");
  EXPECT_STREQ(align::detail::sweep_name(Sweep::kAvx2), "avx2");
  if (align::detail::selected_sweep() != Sweep::kAvx2) {
    // Asked for anyway, the AVX2 build is refused, not run.
    const auto a = enc("ACGTACGT");
    align::Workspace ws;
    EXPECT_THROW(align::detail::banded_overlap_align(Sweep::kAvx2, a, a,
                                                     Scoring{}, 0, 4, ws),
                 std::invalid_argument);
    GTEST_SKIP() << "this CPU has no AVX2: the BandedExact cases checked "
                    "only the 16-byte sweep build";
  }
}

TEST(BandedExact, RejectsScoresBeyond32Bits) {
  const auto a = enc("ACGTACGT");
  align::Workspace ws;
  EXPECT_THROW(align::banded_overlap_align(a, a, Scoring{2, -3, -(1 << 29)},
                                           0, 4, ws),
               std::invalid_argument);
}

// --- A narrower band that holds a wider band's path returns its result ----
//
// The lemma the layout walk's hull runs rest on (DESIGN.md section 5):
// if the traced path of a call over band W lies inside a band N within W,
// the call over N returns the same OverlapResult, ops and type included.

/// Lowest and highest diagonal j − i of the cells a traced path visits.
std::pair<std::int64_t, std::int64_t> path_diagonals(const AlignResult& r) {
  std::int64_t d = std::int64_t{r.b_begin} - r.a_begin, lo = d, hi = d;
  for (const align::Op op : r.ops) {
    d += op == align::Op::kInsertB ? 1 : op == align::Op::kInsertA ? -1 : 0;
    lo = std::min(lo, d);
    hi = std::max(hi, d);
  }
  return {lo, hi};
}

TEST(BandedNesting, NarrowBandHoldingTheWidePathReturnsTheWideResult) {
  // The test's four scorings plus one that rewards gaps.
  const Scoring scorings[] = {kScorings[0], kScorings[1], kScorings[2],
                              kScorings[3], Scoring{3, -1, 1}};
  util::Prng rng(1705);
  align::Workspace ws;
  const AlignOptions keep{.keep_ops = true};
  int held = 0, missed = 0;
  for (int t = 0; t < 40; ++t) {
    const auto a = test::random_dna(rng, 1 + rng.below(160), 0.04);
    const auto [b, diag] = mutated_overlap(rng, a);
    for (const Scoring& sc : scorings) {
      const auto wide_band = static_cast<std::uint32_t>(4 + rng.below(24));
      const std::int32_t wide_shift =
          diag + static_cast<std::int32_t>(rng.below(9)) - 4;
      const auto wide = align::banded_overlap_align(a, b, sc, wide_shift,
                                                    wide_band, ws, keep);
      if (wide.aln.score == std::numeric_limits<int>::min() / 4) continue;
      const auto [plo, phi] = path_diagonals(wide.aln);
      // Every narrow band inside the wide one, tight around the path or not.
      for (std::uint32_t band = 0; band < wide_band; ++band) {
        const auto w = static_cast<std::int32_t>(wide_band - band);
        for (std::int32_t shift = wide_shift - w; shift <= wide_shift + w;
             ++shift) {
          if (plo < shift - std::int64_t{band} ||
              phi > shift + std::int64_t{band}) {
            ++missed;
            continue;
          }
          ++held;
          SCOPED_TRACE(::testing::Message()
                       << "wide " << wide_shift << "±" << wide_band
                       << " narrow " << shift << "±" << band);
          expect_same_result(
              align::banded_overlap_align(a, b, sc, shift, band, ws, keep),
              wide);
        }
      }
    }
  }
  // Both sides of the condition occur often.
  EXPECT_GT(held, 1000) << missed;
  EXPECT_GT(missed, 1000) << held;
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
