// Tests for the allocation-free alignment workspace and the shared overlap
// engine: dirty-buffer reuse must be bit-identical to fresh-memory runs,
// the banded workspace kernel must match both its allocating reference and
// the full matrix at covering bands, and the workspace's own allocation
// accounting must show zero growth after warmup.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "align/overlap.hpp"
#include "align/pairwise.hpp"
#include "align/workspace.hpp"
#include "core/cluster_params.hpp"
#include "core/overlap_engine.hpp"
#include "core/parallel_cluster.hpp"
#include "core/serial_cluster.hpp"
#include "seq/fragment_store.hpp"
#include "test_helpers.hpp"

namespace pgasm {
namespace {

using align::AlignOptions;
using align::OverlapParams;
using align::Scoring;
using align::Workspace;

void expect_same_result(const align::OverlapResult& x,
                        const align::OverlapResult& y) {
  EXPECT_EQ(x.aln.score, y.aln.score);
  EXPECT_EQ(x.aln.a_begin, y.aln.a_begin);
  EXPECT_EQ(x.aln.a_end, y.aln.a_end);
  EXPECT_EQ(x.aln.b_begin, y.aln.b_begin);
  EXPECT_EQ(x.aln.b_end, y.aln.b_end);
  EXPECT_EQ(x.aln.matches, y.aln.matches);
  EXPECT_EQ(x.aln.columns, y.aln.columns);
  EXPECT_EQ(x.aln.ops, y.aln.ops);
  EXPECT_EQ(x.type, y.type);
}

/// A stream of overlap-ish pairs with wildly varying shapes, so a reused
/// workspace is exercised with shrinking extents (stale garbage beyond the
/// live range) as well as growing ones.
struct PairCase {
  std::vector<seq::Code> a, b;
  std::int32_t shift;
};

std::vector<PairCase> varied_pairs(std::uint64_t seed) {
  util::Prng rng(seed);
  std::vector<PairCase> cases;
  const std::size_t lens[] = {3, 200, 17, 90, 1, 350, 40, 8, 260, 55};
  for (std::size_t i = 0; i < 40; ++i) {
    PairCase c;
    const std::size_t la = lens[i % 10] + rng.below(20);
    const std::size_t lb = lens[(i + 3) % 10] + rng.below(20);
    c.a = test::random_dna(rng, la);
    c.b = test::random_dna(rng, lb);
    // Half the cases get a genuine overlap so acceptance paths vary.
    const std::size_t ov = std::min({la / 2, lb / 2, std::size_t{60}});
    for (std::size_t j = 0; j < ov; ++j) c.b[j] = c.a[la - ov + j];
    c.shift = -static_cast<std::int32_t>(la - ov) +
              static_cast<std::int32_t>(rng.below(7)) - 3;
    cases.push_back(std::move(c));
  }
  return cases;
}

TEST(Workspace, DirtyBandedReuseMatchesAllocatingReference) {
  const Scoring sc;
  const AlignOptions opts{.keep_ops = true};
  Workspace ws;  // persistent and dirty across all cases
  for (const std::uint32_t band : {1u, 4u, 12u, 33u}) {
    for (const PairCase& c : varied_pairs(7 + band)) {
      const auto got =
          align::banded_overlap_align(c.a, c.b, sc, c.shift, band, ws, opts);
      const auto want = align::banded_overlap_align_reference(
          c.a, c.b, sc, c.shift, band, opts);
      expect_same_result(got, want);
    }
  }
}

TEST(Workspace, DirtyFullOverlapReuseMatchesFreshWorkspace) {
  const Scoring sc;
  const AlignOptions opts{.keep_ops = true};
  Workspace reused;
  for (const PairCase& c : varied_pairs(99)) {
    const auto got = align::overlap_align(c.a, c.b, sc, reused, opts);
    Workspace fresh;
    const auto want = align::overlap_align(c.a, c.b, sc, fresh, opts);
    expect_same_result(got, want);
  }
}

TEST(Workspace, BandedEqualsFullAtCoveringBand) {
  const Scoring sc;
  const AlignOptions opts{.keep_ops = true};
  Workspace ws;
  util::Prng rng(31);
  for (int i = 0; i < 25; ++i) {
    const auto a = test::random_dna(rng, 5 + rng.below(80));
    const auto b = test::random_dna(rng, 5 + rng.below(80));
    // A band wide enough to cover every cell from the zero-shift diagonal.
    const std::uint32_t band =
        static_cast<std::uint32_t>(a.size() + b.size() + 2);
    const auto banded =
        align::banded_overlap_align(a, b, sc, 0, band, ws, opts);
    const auto full = align::overlap_align(a, b, sc, ws, opts);
    expect_same_result(banded, full);
  }
}

TEST(Workspace, NoAllocationsAfterWarmup) {
  const Scoring sc;
  Workspace ws;
  util::Prng rng(8);
  const auto a = test::random_dna(rng, 400);
  const auto b = test::random_dna(rng, 380);
  (void)align::banded_overlap_align(a, b, sc, -300, 16, ws);  // warmup
  ws.reset_stats();
  for (int i = 0; i < 50; ++i) {
    (void)align::banded_overlap_align(a, b, sc, -300, 16, ws);
  }
  EXPECT_EQ(ws.allocations(), 0u);
  EXPECT_GT(ws.allocations_avoided(), 0u);
  EXPECT_GT(ws.bytes_in_use(), 0u);
  EXPECT_GE(ws.bytes_reserved(), ws.bytes_in_use());

  // Smaller shapes after warmup are served entirely from capacity too.
  const auto a2 = test::random_dna(rng, 60);
  const auto b2 = test::random_dna(rng, 50);
  ws.reset_stats();
  (void)align::banded_overlap_align(a2, b2, sc, -20, 8, ws);
  (void)align::overlap_align(a2, b2, sc, ws);
  EXPECT_EQ(ws.allocations(), 0u);
}

TEST(OverlapEngine, MatchesReferenceKernelOnStorePairs) {
  util::Prng rng(42);
  seq::FragmentStore store;
  // Fragments with planted suffix-prefix overlaps.
  auto base = test::random_dna(rng, 500);
  for (int i = 0; i < 6; ++i) {
    const std::size_t at = static_cast<std::size_t>(i) * 70;
    std::vector<seq::Code> frag(base.begin() + at, base.begin() + at + 150);
    store.add(frag, seq::FragType::kWGS, "f" + std::to_string(i));
  }
  const auto doubled = seq::make_doubled_store(store);
  OverlapParams params;
  params.min_overlap = 40;
  params.min_identity = 0.9;
  params.band = 8;

  core::OverlapEngine engine(doubled, params);
  std::vector<core::PairMsg> batch;
  for (std::uint32_t i = 0; i + 1 < 6; ++i) {
    // Consecutive fragments overlap by 80 bp: the maximal match anchors at
    // (70, 0) in forward orientation (doubled ids are 2*frag).
    batch.push_back(core::PairMsg{2 * i, 70, 2 * (i + 1), 0, 80});
  }
  const auto results = engine.run(batch);
  ASSERT_EQ(results.size(), batch.size());
  EXPECT_EQ(engine.pairs_aligned(), batch.size());
  for (std::size_t k = 0; k < batch.size(); ++k) {
    const core::PairMsg& pm = batch[k];
    const auto want = align::banded_overlap_align_reference(
        doubled.seq(pm.seq_a), doubled.seq(pm.seq_b), params.scoring,
        static_cast<std::int32_t>(pm.pos_b) -
            static_cast<std::int32_t>(pm.pos_a),
        params.band);
    const core::ResultMsg& r = results[k];
    EXPECT_EQ(r.frag_a, pm.seq_a >> 1);
    EXPECT_EQ(r.frag_b, pm.seq_b >> 1);
    EXPECT_EQ(r.accepted,
              align::accept_overlap(want, params) ? 1 : 0);
    EXPECT_EQ(r.delta, static_cast<std::int32_t>(want.aln.a_begin) -
                           static_cast<std::int32_t>(want.aln.b_begin));
    EXPECT_TRUE(r.accepted) << "planted overlap " << k << " not accepted";
  }

  // Batch API appends in order.
  std::vector<core::ResultMsg> out(1);
  engine.run(batch, out);
  ASSERT_EQ(out.size(), 1 + batch.size());
  EXPECT_EQ(out[1].frag_a, results[0].frag_a);
}

TEST(OverlapEngine, StorelessEngineRejectsPairApi) {
  core::OverlapEngine engine{OverlapParams{}};
  EXPECT_THROW(engine.details(0, 0, 1, 0), std::logic_error);
  // full_align still works without a store.
  util::Prng rng(3);
  const auto a = test::random_dna(rng, 40);
  const auto r = engine.full_align(a, a);
  EXPECT_EQ(r.aln.matches, a.size());
}

TEST(ValidateParams, RejectsUselessCombinations) {
  OverlapParams p;  // defaults are valid
  EXPECT_NO_THROW(align::validate_overlap_params(p, 20));

  OverlapParams zero_band = p;
  zero_band.band = 0;
  EXPECT_THROW(align::validate_overlap_params(zero_band, 20),
               std::invalid_argument);

  OverlapParams bad_identity = p;
  bad_identity.min_identity = 0.0;
  EXPECT_THROW(align::validate_overlap_params(bad_identity, 20),
               std::invalid_argument);
  bad_identity.min_identity = 1.5;
  EXPECT_THROW(align::validate_overlap_params(bad_identity, 20),
               std::invalid_argument);

  // min_overlap below ψ: pairs come from ψ-long exact matches, so the
  // threshold is unreachable-from-below and clusters stay singletons.
  EXPECT_THROW(align::validate_overlap_params(p, p.min_overlap + 1),
               std::invalid_argument);

  core::ClusterParams cp;  // defaults are valid
  EXPECT_NO_THROW(core::validate_cluster_params(cp));
  core::ClusterParams big_psi = cp;
  big_psi.psi = cp.overlap.min_overlap + 10;
  EXPECT_THROW(core::validate_cluster_params(big_psi), std::invalid_argument);

  // A negative tolerance would wrap when the consistency check widens its
  // band by it.
  core::ClusterParams negative_tolerance = cp;
  negative_tolerance.placement_tolerance = -1;
  EXPECT_THROW(core::validate_cluster_params(negative_tolerance),
               std::invalid_argument);
  EXPECT_THROW(core::cluster_serial(seq::FragmentStore{}, negative_tolerance),
               std::invalid_argument);
  negative_tolerance.placement_tolerance = 0;
  EXPECT_NO_THROW(core::validate_cluster_params(negative_tolerance));

  // prefix_w: 0 leaves the parallel GST without buckets, above ψ some kept
  // suffix is shorter than its bucket prefix, and above 12 the bucket table
  // outgrows what a GST checkpoint may hold (16 would shift 1u by 32).
  core::ClusterParams w = cp;
  for (std::uint32_t bad : {0u, 13u, 16u, cp.psi + 1}) {
    w.prefix_w = bad;
    EXPECT_THROW(core::validate_cluster_params(w), std::invalid_argument)
        << "prefix_w " << bad;
  }
  w.prefix_w = 13;
  w.psi = 20;
  try {
    core::validate_cluster_params(w);
    ADD_FAILURE() << "prefix_w 13 accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("prefix_w"), std::string::npos);
  }
  util::Prng rng(3);
  const auto frags = test::random_store(rng, 8, 60, 90);
  EXPECT_THROW(core::cluster_parallel(frags, w, 2), std::invalid_argument);
  w.psi = 8;
  w.overlap.min_overlap = 8;
  w.prefix_w = 9;
  EXPECT_THROW(core::validate_cluster_params(w), std::invalid_argument);
  for (std::uint32_t good : {1u, 8u}) {
    w.prefix_w = good;
    EXPECT_NO_THROW(core::validate_cluster_params(w)) << "prefix_w " << good;
  }
  w.psi = 30;
  w.overlap.min_overlap = 40;
  w.prefix_w = 12;
  EXPECT_NO_THROW(core::validate_cluster_params(w));
}

TEST(ValidateParams, BatchSizeWithinNewPairsBuf) {
  // batch_size 0 dispatches nothing and never terminates; a batch above
  // New_Pairs_Buf cannot be refilled by one report.
  core::ClusterParams cp;
  for (std::uint32_t bad : {0u, core::kNewPairsBuf + 1, 1u << 20}) {
    cp.batch_size = bad;
    EXPECT_THROW(core::validate_cluster_params(cp), std::invalid_argument)
        << "batch_size " << bad;
  }
  for (std::uint32_t good : {1u, 256u, core::kNewPairsBuf}) {
    cp.batch_size = good;
    EXPECT_NO_THROW(core::validate_cluster_params(cp)) << "batch_size " << good;
  }
}

}  // namespace
}  // namespace pgasm
