// Tests for the layout union-find and the greedy OLC assembler.
#include <gtest/gtest.h>

#include "align/overlap.hpp"
#include "olc/assembler.hpp"
#include "olc/layout.hpp"
#include "sim/genome.hpp"
#include "sim/reads.hpp"
#include "test_helpers.hpp"

namespace pgasm {
namespace {

using olc::LayoutUF;
using olc::Transform;

TEST(Transform, ComposeAndInverse) {
  const Transform shift{false, 10};
  const Transform flip{true, 5};
  EXPECT_EQ(shift(3), 13);
  EXPECT_EQ(flip(3), 2);
  const Transform c = flip * shift;  // c(x) = flip(shift(x)) = 5 - (x+10)
  EXPECT_EQ(c(3), 5 - 13);
  EXPECT_TRUE(c.flip);
  for (const Transform t : {shift, flip, c}) {
    const Transform inv = t.inverse();
    for (std::int64_t x : {-7, 0, 3, 100}) {
      EXPECT_EQ(inv(t(x)), x);
      EXPECT_EQ(t(inv(x)), x);
    }
  }
}

TEST(Transform, CompositionAssociativity) {
  util::Prng rng(5);
  for (int t = 0; t < 50; ++t) {
    const Transform a{rng.chance(0.5), rng.range(-50, 50)};
    const Transform b{rng.chance(0.5), rng.range(-50, 50)};
    const Transform c{rng.chance(0.5), rng.range(-50, 50)};
    const Transform ab_c = (a * b) * c;
    const Transform a_bc = a * (b * c);
    EXPECT_EQ(ab_c, a_bc);
    for (std::int64_t x : {-3, 0, 9}) EXPECT_EQ(ab_c(x), a(b(c(x))));
  }
}

TEST(LayoutUF, ChainsPlacements) {
  LayoutUF uf(4);
  // 1 sits at +10 in 0's frame; 2 at +10 in 1's frame; 3 flipped at 5 in 2's.
  EXPECT_EQ(uf.unite(0, 1, Transform{false, 10}, 2),
            LayoutUF::UniteOutcome::kMerged);
  EXPECT_EQ(uf.unite(1, 2, Transform{false, 10}, 2),
            LayoutUF::UniteOutcome::kMerged);
  EXPECT_EQ(uf.unite(2, 3, Transform{true, 5}, 2),
            LayoutUF::UniteOutcome::kMerged);
  EXPECT_EQ(uf.num_components(), 1u);
  auto [r0, t0] = uf.find(0);
  auto [r3, t3] = uf.find(3);
  EXPECT_EQ(r0, r3);
  // Position of 3's coordinate x in root frame must equal the composition
  // regardless of which node became root: compare relative placement.
  // 3's frame -> 0's frame: shift10 ∘ shift10 ∘ flip5 = x -> 25 - x.
  const Transform to0 = t0.inverse() * t3;
  EXPECT_TRUE(to0.flip);
  EXPECT_EQ(to0(0), 25);
  EXPECT_EQ(to0(7), 18);
}

TEST(LayoutUF, DetectsConflicts) {
  LayoutUF uf(3);
  EXPECT_EQ(uf.unite(0, 1, Transform{false, 100}, 3),
            LayoutUF::UniteOutcome::kMerged);
  EXPECT_EQ(uf.unite(1, 2, Transform{false, 100}, 3),
            LayoutUF::UniteOutcome::kMerged);
  // Consistent closure edge 0 -> 2 at 200 (within tolerance).
  EXPECT_EQ(uf.unite(0, 2, Transform{false, 198}, 3),
            LayoutUF::UniteOutcome::kConsistent);
  // Contradicting placement.
  EXPECT_EQ(uf.unite(0, 2, Transform{false, 150}, 3),
            LayoutUF::UniteOutcome::kConflict);
  // Orientation contradiction.
  EXPECT_EQ(uf.unite(0, 2, Transform{true, 200}, 3),
            LayoutUF::UniteOutcome::kConflict);
}

TEST(LayoutUF, ComponentsPartition) {
  LayoutUF uf(6);
  uf.unite(0, 1, Transform{false, 5}, 2);
  uf.unite(3, 4, Transform{true, 9}, 2);
  auto comps = uf.components();
  EXPECT_EQ(comps.size(), 4u);
  std::size_t total = 0;
  for (const auto& c : comps) total += c.size();
  EXPECT_EQ(total, 6u);
}

// --- Assembler --------------------------------------------------------------

/// Tile a genome with overlapping error-free reads; assembly must
/// reconstruct it as a single contig whose consensus equals the genome.
TEST(Assembler, PerfectTilingReconstructsGenome) {
  util::Prng rng(11);
  const auto genome = test::random_dna(rng, 800);
  seq::FragmentStore frags;
  for (std::size_t start = 0; start + 200 <= genome.size(); start += 100) {
    frags.add(std::vector<seq::Code>(genome.begin() + start,
                                     genome.begin() + start + 200));
  }
  const auto result = olc::assemble(frags, olc::AssemblyParams{});
  ASSERT_EQ(result.contigs.size(), 1u);
  const auto& contig = result.contigs[0];
  EXPECT_EQ(contig.layout.size(), frags.size());
  ASSERT_EQ(contig.consensus.size(), genome.size());
  EXPECT_EQ(contig.consensus, genome);
}

TEST(Assembler, MixedStrandsReconstruct) {
  util::Prng rng(13);
  const auto genome = test::random_dna(rng, 600);
  seq::FragmentStore frags;
  int idx = 0;
  for (std::size_t start = 0; start + 200 <= genome.size(); start += 80) {
    std::vector<seq::Code> read(genome.begin() + start,
                                genome.begin() + start + 200);
    if (idx++ % 2) read = seq::reverse_complement(read);
    frags.add(read);
  }
  const auto result = olc::assemble(frags, olc::AssemblyParams{});
  ASSERT_EQ(result.contigs.size(), 1u);
  const auto& cons = result.contigs[0].consensus;
  ASSERT_EQ(cons.size(), genome.size());
  // Consensus is the genome or its reverse complement (orientation of the
  // root fragment is arbitrary).
  const bool fwd = cons == genome;
  const bool rev = cons == seq::reverse_complement(genome);
  EXPECT_TRUE(fwd || rev);
}

TEST(Assembler, ConsensusFixesSequencingErrors) {
  util::Prng rng(17);
  const auto genome = test::random_dna(rng, 500);
  seq::FragmentStore frags;
  // 6x coverage of errorful reads: consensus should vote errors away.
  for (int copies = 0; copies < 6; ++copies) {
    for (std::size_t start = 0; start + 150 <= genome.size(); start += 75) {
      std::vector<seq::Code> read(genome.begin() + start,
                                  genome.begin() + start + 150);
      for (auto& c : read) {
        if (rng.chance(0.01)) c = static_cast<seq::Code>((c + 1) % 4);
      }
      frags.add(read);
    }
  }
  olc::AssemblyParams params;
  params.overlap.min_identity = 0.9;
  const auto result = olc::assemble(frags, params);
  ASSERT_GE(result.contigs.size(), 1u);
  // Find the large contig.
  const olc::Contig* big = &result.contigs[0];
  for (const auto& c : result.contigs) {
    if (c.length() > big->length()) big = &c;
  }
  // Reads tile [0, 450) of the 500 bp genome (last start is 300).
  ASSERT_EQ(big->consensus.size(), 450u);
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < big->consensus.size(); ++i) {
    mismatches += (big->consensus[i] != genome[i]);
  }
  EXPECT_LT(mismatches, big->consensus.size() / 100);  // <1% consensus error
}

TEST(Assembler, PolishFixesIndels) {
  // Reads with indels: the fixed-offset draft drifts, the polish pass must
  // realign and recover the genome, including columns the backbone read
  // deleted (insertion voting).
  util::Prng rng(37);
  const auto genome = test::random_dna(rng, 600);
  seq::FragmentStore frags;
  for (int copies = 0; copies < 8; ++copies) {
    for (std::size_t start = 0; start + 150 <= genome.size(); start += 75) {
      std::vector<seq::Code> read;
      read.reserve(160);
      for (std::size_t k = start; k < start + 150; ++k) {
        if (rng.chance(0.004)) continue;  // deletion
        if (rng.chance(0.004)) {
          read.push_back(static_cast<seq::Code>(rng.below(4)));  // insertion
        }
        seq::Code c = genome[k];
        if (rng.chance(0.01)) c = static_cast<seq::Code>((c + 1) % 4);
        read.push_back(c);
      }
      frags.add(read);
    }
  }
  olc::AssemblyParams params;
  params.overlap.min_identity = 0.9;
  const auto result = olc::assemble(frags, params);
  const olc::Contig* big = &result.contigs[0];
  for (const auto& c : result.contigs) {
    if (c.length() > big->length()) big = &c;
  }
  // Align the consensus to the genome: near-perfect identity expected.
  const auto aln =
      align::overlap_align(big->consensus, genome, align::Scoring{});
  EXPECT_GT(aln.aln.columns, 500u);
  EXPECT_GT(aln.aln.identity(), 0.995);
}

TEST(Assembler, PolishDisabledKeepsDraft) {
  util::Prng rng(39);
  const auto genome = test::random_dna(rng, 400);
  seq::FragmentStore frags;
  for (std::size_t start = 0; start + 150 <= genome.size(); start += 75) {
    frags.add(std::vector<seq::Code>(genome.begin() + start,
                                     genome.begin() + start + 150));
  }
  olc::AssemblyParams params;
  params.polish_passes = 0;
  const auto result = olc::assemble(frags, params);
  ASSERT_EQ(result.contigs.size(), 1u);
  // Error-free reads: draft is already exact even without polishing.
  EXPECT_EQ(result.contigs[0].consensus,
            std::vector<seq::Code>(genome.begin(), genome.begin() + 375));
}

TEST(Assembler, DisjointIslandsYieldSeparateContigs) {
  util::Prng rng(19);
  const auto g1 = test::random_dna(rng, 400);
  const auto g2 = test::random_dna(rng, 400);
  seq::FragmentStore frags;
  for (const auto& g : {g1, g2}) {
    for (std::size_t start = 0; start + 150 <= g.size(); start += 70) {
      frags.add(std::vector<seq::Code>(g.begin() + start,
                                       g.begin() + start + 150));
    }
  }
  const auto result = olc::assemble(frags, olc::AssemblyParams{});
  EXPECT_EQ(result.num_multi_contigs(), 2u);
}

TEST(Assembler, SingletonsReported) {
  util::Prng rng(23);
  seq::FragmentStore frags;
  frags.add(test::random_dna(rng, 300));
  frags.add(test::random_dna(rng, 300));  // no overlap between them
  const auto result = olc::assemble(frags, olc::AssemblyParams{});
  EXPECT_EQ(result.contigs.size(), 2u);
  EXPECT_EQ(result.num_singletons(), 2u);
  EXPECT_EQ(result.num_multi_contigs(), 0u);
}

TEST(Assembler, EmptyInput) {
  seq::FragmentStore frags;
  const auto result = olc::assemble(frags, olc::AssemblyParams{});
  EXPECT_TRUE(result.contigs.empty());
  EXPECT_EQ(result.n50(), 0u);
}

TEST(Assembler, N50Sane) {
  util::Prng rng(29);
  const auto genome = test::random_dna(rng, 1000);
  seq::FragmentStore frags;
  for (std::size_t start = 0; start + 200 <= genome.size(); start += 90) {
    frags.add(std::vector<seq::Code>(genome.begin() + start,
                                     genome.begin() + start + 200));
  }
  const auto result = olc::assemble(frags, olc::AssemblyParams{});
  EXPECT_GE(result.n50(), 900u);
}


// --- Byte identity of the assembled output -----------------------------------
//
// The layout walk aligns only the overlaps that can still change the layout;
// its contigs must equal those of aligning every promising pair and folding
// the accepted ones best-score-first. These hashes were recorded from that
// exhaustive fold, so any drift in layout, consensus, polish or contig order
// fails here.

/// FNV-1a over every contig's consensus and placements, in emission order.
std::uint64_t assembly_hash(const olc::AssemblyResult& r) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    for (int k = 0; k < 8; ++k) {
      h ^= (v >> (8 * k)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  mix(r.contigs.size());
  for (const auto& c : r.contigs) {
    mix(c.consensus.size());
    for (const seq::Code b : c.consensus) mix(b);
    mix(c.layout.size());
    for (const auto& pl : c.layout) {
      mix(pl.fragment);
      mix(pl.flip);
      mix(static_cast<std::uint64_t>(pl.offset));
      mix(pl.length);
    }
  }
  return h;
}

/// Reads sampled from a simulated genome, as one cluster would hold them.
seq::FragmentStore simulated_cluster(const sim::GenomeParams& gp,
                                     double coverage, double flip_prob,
                                     std::uint64_t read_seed) {
  const sim::Genome genome = sim::simulate_genome(gp);
  sim::ReadSet reads;
  util::Prng rng(read_seed);
  sim::sample_wgs(reads, genome, coverage,
                  sim::ReadParams{.vector_contam_prob = 0.0,
                                  .strand_flip_prob = flip_prob},
                  rng);
  return std::move(reads.store);
}

TEST(AssemblerIdentity, WgsLikeCluster) {
  const auto frags =
      simulated_cluster(sim::shotgun_like(6000, 41), 8.0, 0.5, 42);
  const auto result = olc::assemble(frags, olc::AssemblyParams{});
  EXPECT_EQ(assembly_hash(result), 0x42aed434bd397dd4ull);
  // Aligning every promising pair took 3457 alignments; one DP per
  // candidate the walk reaches, 573.
  EXPECT_EQ(result.stats.overlaps_considered, 182u);
}

TEST(AssemblerIdentity, ReverseComplementHeavyCluster) {
  const auto frags =
      simulated_cluster(sim::shotgun_like(5000, 43), 8.0, 0.9, 44);
  const auto result = olc::assemble(frags, olc::AssemblyParams{});
  EXPECT_EQ(assembly_hash(result), 0x30872b7f3ff21979ull);
  // Aligning every promising pair took 3016 alignments; one DP per
  // candidate the walk reaches, 498.
  EXPECT_EQ(result.stats.overlaps_considered, 147u);
}

TEST(AssemblerIdentity, RepeatRichClusterWithConflicts) {
  auto gp = sim::maize_like(12000, 45);
  for (auto& fam : gp.repeat_families) fam.divergence = 0.005;
  const auto frags = simulated_cluster(gp, 6.0, 0.5, 46);
  const auto result = olc::assemble(frags, olc::AssemblyParams{});
  EXPECT_GT(result.stats.layout_conflicts, 0u);
  EXPECT_EQ(assembly_hash(result), 0x8c84c1cfc44f16a5ull);
  // Aligning every promising pair took 9783 alignments; one DP per
  // candidate the walk reaches, 4217.
  EXPECT_EQ(result.stats.overlaps_considered, 3613u);
}

/// Two maximal matches on one diagonal, split by a substitution, make the
/// generator emit the same (seq_a, seq_b, shift) twice; only one is aligned.
TEST(AssemblerIdentity, DuplicatePairsAlignedOnce) {
  util::Prng rng(47);
  const auto genome = test::random_dna(rng, 400);
  seq::FragmentStore frags;
  frags.add(std::vector<seq::Code>(genome.begin(), genome.begin() + 300));
  std::vector<seq::Code> b(genome.begin() + 100, genome.end());
  b[100] = static_cast<seq::Code>((b[100] + 1) % 4);
  frags.add(b);
  const auto result = olc::assemble(frags, olc::AssemblyParams{});
  ASSERT_EQ(result.contigs.size(), 1u);
  EXPECT_EQ(assembly_hash(result), 0x0d10e45fda96aad4ull);
  // Aligning every promising pair took 2 alignments.
  EXPECT_EQ(result.stats.overlaps_considered, 1u);
}

}  // namespace
}  // namespace pgasm
