// Tests for the generalized suffix tree and promising-pair generation.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <limits>
#include <map>
#include <set>
#include <utility>

#include "gst/lookup_filter.hpp"
#include "gst/pair_generator.hpp"
#include "gst/suffix_tree.hpp"
#include "sim/genome.hpp"
#include "sim/reads.hpp"
#include "test_helpers.hpp"

namespace pgasm {
namespace {

using gst::GstParams;
using gst::PairGenParams;
using gst::PairGenerator;
using gst::PromisingPair;
using gst::SuffixTree;
using test::random_store;

TEST(SuffixEnumeration, SkipsMaskedAndShort) {
  seq::FragmentStore store;
  // ACG N ACGTA  -> runs: [0,3) and [4,9)
  store.add_ascii("ACGNACGTA");
  std::vector<gst::SuffixSite> suffixes;
  for (const gst::Suffix s : gst::enumerate_suffixes(store, 3))
    suffixes.push_back(gst::site_of(store, s));
  // Run 1 (len 3): positions 0 (len 3). Run 2 (len 5): positions 4..6.
  ASSERT_EQ(suffixes.size(), 4u);
  EXPECT_EQ(suffixes[0].pos, 0u);
  EXPECT_EQ(suffixes[0].len, 3u);
  EXPECT_EQ(suffixes[0].cls, gst::kClassLambda);
  EXPECT_EQ(suffixes[1].pos, 4u);
  EXPECT_EQ(suffixes[1].len, 5u);
  // Position 4 follows a masked char: class must be λ.
  EXPECT_EQ(suffixes[1].cls, gst::kClassLambda);
  EXPECT_EQ(suffixes[2].pos, 5u);
  EXPECT_EQ(suffixes[2].len, 4u);
  // Position 5 follows 'A' (code 0): class 1.
  EXPECT_EQ(suffixes[2].cls, 1);
  EXPECT_EQ(suffixes[3].pos, 6u);
  EXPECT_EQ(suffixes[3].len, 3u);
}

/// The (seq, pos, len, cls) record of every suffix enumeration must
/// produce, computed from the fragments alone.
std::vector<gst::SuffixSite> record_enumeration(const seq::FragmentStore& store,
                                                std::uint32_t min_len) {
  std::vector<gst::SuffixSite> out;
  for (std::uint32_t s = 0; s < store.size(); ++s) {
    const auto text = store.seq(s);
    const auto n = static_cast<std::uint32_t>(text.size());
    for (std::uint32_t pos = 0; pos < n; ++pos) {
      std::uint32_t len = 0;
      while (pos + len < n && seq::is_base(text[pos + len])) ++len;
      if (len == 0 || len < min_len) continue;
      const bool lambda = pos == 0 || !seq::is_base(text[pos - 1]);
      const auto cls =
          static_cast<std::uint8_t>(lambda ? 0 : 1 + text[pos - 1]);
      out.push_back({s, pos, len, cls});
    }
  }
  return out;
}

TEST(SuffixEnumeration, OffsetsDecodeToSequenceRecords) {
  seq::FragmentStore store;
  store.add_ascii("ACGTTGCANNACGTAGGCAT");  // a masked run inside
  store.add_ascii("");                      // empty fragment
  store.add_ascii("AC");                    // shorter than ψ
  store.add_ascii("NACGTTTGCA");            // mask at position 0
  store.add_ascii("GGCATTACGN");            // mask at the last position
  store.add_ascii("N");                     // all masked
  store.add_ascii("");
  store.add_ascii("TTGACCAGTA");
  util::Prng rng(9);
  const auto more = random_store(rng, 6, 1, 40, 0.1);
  for (std::uint32_t id = 0; id < more.size(); ++id) store.add(more.seq(id));
  for (const std::uint32_t psi : {0u, 1u, 3u, 8u, 12u}) {
    const auto offsets = gst::enumerate_suffixes(store, psi);
    EXPECT_TRUE(std::ranges::is_sorted(offsets)) << "psi " << psi;
    std::vector<gst::SuffixSite> got;
    for (const gst::Suffix s : offsets) {
      got.push_back(gst::site_of(store, s));
      EXPECT_EQ(gst::class_of(store.text(), s), got.back().cls);
    }
    EXPECT_EQ(got, record_enumeration(store, psi)) << "psi " << psi;
    // A slice enumerates its own fragments only, in the same order.
    const auto slice = gst::enumerate_suffixes_range(store, 3, 8, psi);
    std::vector<gst::Suffix> want;
    for (const gst::Suffix s : offsets) {
      const std::uint32_t id = store.id_at(s);
      if (id >= 3 && id < 8) want.push_back(s);
    }
    EXPECT_EQ(slice, want) << "psi " << psi;
  }
}

TEST(SuffixTree, InvariantsTinyKnownInput) {
  seq::FragmentStore store;
  store.add_ascii("ACGTACGT");
  store.add_ascii("CGTACGTT");
  SuffixTree tree(store, GstParams{.min_match = 2});
  EXPECT_EQ(tree.check_invariants(), "");
  EXPECT_GT(tree.num_nodes(), 0u);
  EXPECT_GT(tree.num_leaves(), 0u);
}

class SuffixTreeRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SuffixTreeRandom, InvariantsHold) {
  util::Prng rng(GetParam());
  const auto store = random_store(rng, 8 + rng.below(8), 20, 120, 0.05);
  SuffixTree tree(store, GstParams{.min_match = 3});
  EXPECT_EQ(tree.check_invariants(), "") << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, SuffixTreeRandom,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                           12, 13, 14, 15, 16));

TEST(SuffixTree, HighlyRepetitiveInput) {
  seq::FragmentStore store;
  store.add_ascii("AAAAAAAAAAAAAAAAAAAA");
  store.add_ascii("AAAAAAAAAA");
  store.add_ascii("ACACACACACACACACAC");
  store.add_ascii("CACACACACACACACA");
  SuffixTree tree(store, GstParams{.min_match = 2});
  EXPECT_EQ(tree.check_invariants(), "");
}

TEST(SuffixTree, InputOrderKeepsPairMultiset) {
  // A rank hands the constructor its suffixes in arrival order; the groups
  // and the pair multiset must not depend on that order.
  util::Prng rng(77);
  const auto store = random_store(rng, 12, 30, 90);
  const std::uint32_t psi = 4;
  SuffixTree plain(store, GstParams{.min_match = psi});
  auto suffixes = gst::enumerate_suffixes(store, psi);
  for (std::size_t i = suffixes.size(); i > 1; --i)
    std::swap(suffixes[i - 1], suffixes[rng.below(i)]);
  SuffixTree shuffled(store, std::move(suffixes), GstParams{.min_match = psi});
  EXPECT_EQ(shuffled.check_invariants(), "");

  // Same pair stream content (as multisets of maximal matches).
  auto pa = PairGenerator::generate_all(plain, {.dup_elim = false});
  auto pb = PairGenerator::generate_all(shuffled, {.dup_elim = false});
  auto key = [](const PromisingPair& p) {
    return std::tuple(p.seq_a, p.pos_a, p.seq_b, p.pos_b, p.match_len);
  };
  std::multiset<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t,
                           std::uint32_t, std::uint32_t>>
      ma, mb;
  for (const auto& p : pa) ma.insert(key(p));
  for (const auto& p : pb) mb.insert(key(p));
  EXPECT_EQ(ma, mb);
  EXPECT_FALSE(ma.empty());
}

// --- Pair generation: the heart of the paper -------------------------------

class PairGenRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PairGenRandom, SuffixLevelMatchesBruteForce) {
  util::Prng rng(GetParam());
  const std::uint32_t psi = 3 + static_cast<std::uint32_t>(rng.below(4));
  const auto store = random_store(rng, 6 + rng.below(6), 15, 60, 0.04);
  SuffixTree tree(store, GstParams{.min_match = psi});
  ASSERT_EQ(tree.check_invariants(), "");

  const auto expected = test::brute_force_maximal_matches(store, psi);
  const auto pairs = PairGenerator::generate_all(tree, {.dup_elim = false});
  std::set<test::MaxMatch> got;
  for (const auto& p : pairs) {
    auto [it, fresh] =
        got.insert({p.seq_a, p.pos_a, p.seq_b, p.pos_b, p.match_len});
    EXPECT_TRUE(fresh) << "duplicate maximal match emitted (seed "
                       << GetParam() << ")";
  }
  EXPECT_EQ(got, expected) << "seed " << GetParam() << " psi " << psi;
}

TEST_P(PairGenRandom, EmittedInNonIncreasingMatchLengthOrder) {
  util::Prng rng(GetParam() * 977 + 5);
  const auto store = random_store(rng, 10, 20, 80);
  SuffixTree tree(store, GstParams{.min_match = 3});
  PairGenerator gen(tree, {.dup_elim = false});
  PromisingPair p;
  std::uint32_t last = UINT32_MAX;
  while (gen.next(p)) {
    EXPECT_LE(p.match_len, last);
    last = p.match_len;
  }
}

TEST_P(PairGenRandom, DupElimCoversAllPairsAtLeastOnce) {
  util::Prng rng(GetParam() * 31 + 7);
  const std::uint32_t psi = 3;
  const auto store = random_store(rng, 8 + rng.below(8), 15, 70, 0.03);
  SuffixTree tree(store, GstParams{.min_match = psi});

  const auto expected = test::brute_force_promising_pairs(store, psi);
  const auto pairs = PairGenerator::generate_all(tree, {.dup_elim = true});
  std::set<std::pair<std::uint32_t, std::uint32_t>> got;
  for (const auto& p : pairs) got.insert({p.seq_a, p.seq_b});
  EXPECT_EQ(got, expected) << "seed " << GetParam();

  // At most once per node => no more emissions than distinct maximal
  // matches (suffix-level count bounds fragment-level count).
  const auto suffix_level =
      PairGenerator::generate_all(tree, {.dup_elim = false});
  EXPECT_LE(pairs.size(), suffix_level.size());
}

TEST_P(PairGenRandom, DupElimAnchorsAreRealMatches) {
  util::Prng rng(GetParam() * 131 + 3);
  const auto store = random_store(rng, 10, 20, 60);
  SuffixTree tree(store, GstParams{.min_match = 3});
  const auto pairs = PairGenerator::generate_all(tree, {.dup_elim = true});
  for (const auto& p : pairs) {
    const auto ta = store.seq(p.seq_a);
    const auto tb = store.seq(p.seq_b);
    ASSERT_LE(p.pos_a + p.match_len, ta.size());
    ASSERT_LE(p.pos_b + p.match_len, tb.size());
    for (std::uint32_t k = 0; k < p.match_len; ++k) {
      ASSERT_TRUE(seq::is_base(ta[p.pos_a + k]));
      ASSERT_EQ(ta[p.pos_a + k], tb[p.pos_b + k]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PairGenRandom,
                         ::testing::Range<std::uint64_t>(1, 25));

TEST(PairGen, DoubledInputFiltersSelfAndMirror) {
  util::Prng rng(123);
  seq::FragmentStore plain = random_store(rng, 6, 40, 80);
  const auto doubled = seq::make_doubled_store(plain);
  SuffixTree tree(doubled, GstParams{.min_match = 8});
  PairGenerator gen(tree, {.dup_elim = true, .doubled_input = true});
  PromisingPair p;
  std::set<std::pair<std::uint32_t, std::uint32_t>> frag_pairs;
  while (gen.next(p)) {
    // Never pairs a fragment with itself or its own reverse complement.
    EXPECT_NE(p.seq_a >> 1, p.seq_b >> 1);
    // Canonical form: lower fragment appears on its forward strand.
    EXPECT_LT(p.seq_a >> 1, p.seq_b >> 1);
    EXPECT_EQ(p.seq_a & 1u, 0u);
    frag_pairs.insert({p.seq_a >> 1, p.seq_b >> 1});
  }
}

TEST(PairGen, FindsReverseComplementOverlap) {
  // f2 is the reverse complement of f1's tail + extra: they overlap only
  // through the RC strand.
  util::Prng rng(9);
  const auto base = test::random_dna(rng, 60);
  std::vector<seq::Code> f1(base.begin(), base.begin() + 40);
  std::vector<seq::Code> tail(base.begin() + 20, base.begin() + 60);
  const auto f2 = seq::reverse_complement(tail);
  seq::FragmentStore plain;
  plain.add(f1);
  plain.add(f2);
  const auto doubled = seq::make_doubled_store(plain);
  SuffixTree tree(doubled, GstParams{.min_match = 10});
  const auto pairs = PairGenerator::generate_all(
      tree, {.dup_elim = true, .doubled_input = true});
  bool found = false;
  for (const auto& p : pairs) {
    if ((p.seq_a >> 1) == 0 && (p.seq_b >> 1) == 1) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(PairGen, NoPairsBelowPsi) {
  seq::FragmentStore store;
  store.add_ascii("ACGTACGTAA");
  store.add_ascii("TTTTGGGGCC");  // shares no 4-mer with the first
  SuffixTree tree(store, GstParams{.min_match = 4});
  const auto pairs = PairGenerator::generate_all(tree, {.dup_elim = false});
  EXPECT_TRUE(pairs.empty());
}

TEST(PairGen, MaskingSuppressesPairs) {
  // Identical fragments, but one has the shared region masked out.
  seq::FragmentStore store;
  store.add_ascii("ACGTACGTACGTACGTACGT");
  store.add_ascii("ACGTACGTACGTACGTACGT");
  store.mask(1, 0, 20);
  SuffixTree tree(store, GstParams{.min_match = 8});
  const auto pairs = PairGenerator::generate_all(tree, {.dup_elim = true});
  EXPECT_TRUE(pairs.empty());
}

// --- Lookup-table baseline filter (paper Section 2) -------------------------

class LookupVsGst : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LookupVsGst, SameFragmentPairSetAtEqualCutoff) {
  // With psi == w, a fragment pair shares a maximal match >= psi iff it
  // shares at least one w-mer: the two filters must produce the same
  // distinct pair set, but the lookup table emits (many) more copies.
  util::Prng rng(GetParam() * 7 + 1);
  const auto store = random_store(rng, 12, 40, 100);
  const std::uint32_t w = 8;
  SuffixTree tree(store, GstParams{.min_match = w});
  const auto gst_pairs =
      PairGenerator::generate_all(tree, {.dup_elim = true});
  std::set<std::pair<std::uint32_t, std::uint32_t>> gst_set;
  for (const auto& p : gst_pairs) gst_set.insert({p.seq_a, p.seq_b});

  gst::LookupFilter filter(store, {.w = w});
  std::set<std::pair<std::uint32_t, std::uint32_t>> lut_set;
  std::uint64_t lut_count = 0;
  PromisingPair p;
  while (filter.next(p)) {
    lut_set.insert({p.seq_a, p.seq_b});
    ++lut_count;
    // Anchors are real exact w-mers.
    const auto a = store.seq(p.seq_a);
    const auto b = store.seq(p.seq_b);
    for (std::uint32_t k = 0; k < w; ++k) {
      ASSERT_EQ(a[p.pos_a + k], b[p.pos_b + k]);
    }
  }
  EXPECT_EQ(lut_set, gst_set) << "seed " << GetParam();
  EXPECT_GE(lut_count, gst_pairs.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, LookupVsGst,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(LookupFilter, LongMatchEmitsManyCopies) {
  // The Section 2 argument: an exact match of length l appears as
  // (l - w + 1) w-mer hits.
  util::Prng rng(5);
  const auto shared = test::random_dna(rng, 60);
  seq::FragmentStore store;
  std::vector<seq::Code> f1 = test::random_dna(rng, 20);
  f1.insert(f1.end(), shared.begin(), shared.end());
  std::vector<seq::Code> f2(shared);
  auto tail = test::random_dna(rng, 20);
  f2.insert(f2.end(), tail.begin(), tail.end());
  store.add(f1);
  store.add(f2);
  const std::uint32_t w = 11;
  gst::LookupFilter filter(store, {.w = w});
  std::uint64_t count = 0;
  PromisingPair p;
  while (filter.next(p)) ++count;
  EXPECT_GE(count, 60u - w + 1u - 2u);  // ~l - w + 1 (allow random extras)

  // The GST generator emits the pair once.
  SuffixTree tree(store, GstParams{.min_match = w});
  const auto gst_pairs = PairGenerator::generate_all(tree, {.dup_elim = true});
  EXPECT_EQ(gst_pairs.size(), 1u);
}

TEST(LookupFilter, DedupPerWordAndDoubledInput) {
  util::Prng rng(9);
  seq::FragmentStore plain = random_store(rng, 6, 40, 80);
  const auto doubled = seq::make_doubled_store(plain);
  gst::LookupFilter filter(doubled,
                           {.w = 9, .doubled_input = true,
                            .dedup_per_word = true});
  PromisingPair p;
  std::set<std::tuple<std::uint32_t, std::uint32_t>> seen;
  while (filter.next(p)) {
    EXPECT_LT(p.seq_a >> 1, p.seq_b >> 1);
    EXPECT_EQ(p.seq_a & 1u, 0u);  // canonical mirror
  }
  EXPECT_GT(filter.stats().table_entries, 0u);
}

TEST(LookupFilter, TopWordsSummaryIsCanonical) {
  // The heaviest-word summary iterates an unordered per-word tally, so it
  // goes through util::sorted_items before ranking (DESIGN.md §16): pairs
  // descending, ties by word ascending, capped, and identical run to run.
  util::Prng rng(9);
  const auto shared = test::random_dna(rng, 60);
  seq::FragmentStore store;
  for (int i = 0; i < 4; ++i) {
    auto frag = test::random_dna(rng, 20);
    frag.insert(frag.end(), shared.begin(), shared.end());
    store.add(frag);
  }
  const auto run = [&] {
    gst::LookupFilter filter(store, {.w = 9});
    PromisingPair p;
    while (filter.next(p)) {
    }
    return filter.stats().top_words;
  };
  const auto words = run();
  ASSERT_FALSE(words.empty());
  EXPECT_LE(words.size(), 8u);
  for (std::size_t i = 1; i < words.size(); ++i) {
    EXPECT_GE(words[i - 1].second, words[i].second);
    if (words[i - 1].second == words[i].second) {
      EXPECT_LT(words[i - 1].first, words[i].first);
    }
  }
  EXPECT_EQ(words, run());
}

TEST(PairGen, PairSetMonotoneInPsi) {
  // Lower psi admits every pair a higher psi admits (a maximal match of
  // length >= psi2 is also >= psi1 < psi2).
  util::Prng rng(777);
  const auto store = random_store(rng, 14, 30, 90);
  std::set<std::pair<std::uint32_t, std::uint32_t>> prev;
  bool first = true;
  for (std::uint32_t psi : {12u, 8u, 5u, 3u}) {
    SuffixTree tree(store, GstParams{.min_match = psi});
    const auto pairs = PairGenerator::generate_all(tree, {.dup_elim = true});
    std::set<std::pair<std::uint32_t, std::uint32_t>> cur;
    for (const auto& p : pairs) cur.insert({p.seq_a, p.seq_b});
    if (!first) {
      for (const auto& pr : prev) {
        EXPECT_TRUE(cur.count(pr)) << "pair lost when lowering psi";
      }
    }
    prev = std::move(cur);
    first = false;
  }
}

TEST(PairGen, MemoryIsLinear) {
  util::Prng rng(4242);
  const auto store = random_store(rng, 60, 80, 120);
  SuffixTree tree(store, GstParams{.min_match = 6});
  PairGenerator gen(tree, {.dup_elim = true});
  PromisingPair p;
  std::uint64_t peak = 0;
  while (gen.next(p)) peak = std::max(peak, gen.memory_bytes());
  // Generous linear bound: a small constant times input characters.
  EXPECT_LT(peak, 64 * store.total_length() + (1u << 16));
}

// --- Reference construction and golden identity -----------------------------
//
// The production build compresses non-branching edges by comparing words
// and builds each inert range (two or more suffixes, one non-λ class) as a
// single leaf; the reference below builds the paper's full tree, extending
// edges one character at a time. collapse() turns the full tree into the
// one production must build, node for node and suffix for suffix, because
// partitions, contigs and checkpoint fast-forward positions all follow
// from the tree.

struct RefTree {
  std::vector<gst::SuffixSite> suffixes;
  std::vector<gst::Node> nodes;
};

/// The reference works on decoded suffixes, not on text offsets.
std::vector<gst::SuffixSite> sites(const seq::FragmentStore& store,
                                   const std::vector<gst::Suffix>& suffixes) {
  std::vector<gst::SuffixSite> out;
  for (const gst::Suffix s : suffixes) out.push_back(gst::site_of(store, s));
  return out;
}

void ref_add_node(RefTree& t, gst::Node nd, std::uint32_t parent) {
  const auto id = static_cast<std::uint32_t>(t.nodes.size());
  nd.parent = parent;
  if (parent != gst::kNilNode) {
    nd.next_sibling = t.nodes[parent].first_child;
    t.nodes[parent].first_child = id;
  }
  t.nodes.push_back(nd);
}

void ref_build(RefTree& t, const seq::FragmentStore& store,
               std::uint32_t begin, std::uint32_t end, std::uint32_t depth,
               std::uint32_t parent) {
  auto& sfx = t.suffixes;
  // Group of suffix i at `depth`: 0 when it ends there, else 1 + base.
  const auto group = [&](const gst::SuffixSite& s) {
    return s.len == depth ? 0 : 1 + store.seq(s.seq)[s.pos + depth];
  };
  for (;;) {
    if (end - begin == 1) {
      ref_add_node(t, {.depth = sfx[begin].len, .suffix_begin = begin,
                       .suffix_end = end}, parent);
      return;
    }
    std::array<std::uint32_t, seq::kSigma + 1> count{};
    for (std::uint32_t i = begin; i < end; ++i) ++count[group(sfx[i])];
    if (count[0] == end - begin) {
      ref_add_node(t, {.depth = depth, .suffix_begin = begin,
                       .suffix_end = end}, parent);
      return;
    }
    int groups = 0;
    for (auto c : count) groups += c > 0;
    if (groups > 1) break;
    ++depth;
  }
  const auto u = static_cast<std::uint32_t>(t.nodes.size());
  ref_add_node(t, {.depth = depth}, parent);
  std::vector<gst::SuffixSite> sorted;
  for (int g = 0; g <= seq::kSigma; ++g) {
    for (std::uint32_t i = begin; i < end; ++i) {
      if (group(sfx[i]) == g) sorted.push_back(sfx[i]);
    }
  }
  std::copy(sorted.begin(), sorted.end(), sfx.begin() + begin);
  std::uint32_t gb = begin;
  for (int g = 0; g <= seq::kSigma; ++g) {
    std::uint32_t ge = gb;
    while (ge < end && group(sfx[ge]) == g) ++ge;
    if (gb == ge) continue;
    if (g == 0) {
      ref_add_node(t, {.depth = depth, .suffix_begin = gb, .suffix_end = ge},
                   u);
    } else {
      ref_build(t, store, gb, ge, depth + 1, u);
    }
    gb = ge;
  }
}

RefTree reference_tree(const seq::FragmentStore& store,
                       std::vector<gst::Suffix> suffixes,
                       const std::vector<std::uint32_t>& bucket_begin,
                       std::uint32_t start_depth) {
  RefTree t{sites(store, suffixes), {}};
  const auto n = static_cast<std::uint32_t>(t.suffixes.size());
  std::vector<std::uint32_t> cuts = bucket_begin;
  if (cuts.empty()) cuts.push_back(0);
  cuts.push_back(n);
  for (std::size_t b = 0; b + 1 < cuts.size(); ++b) {
    if (cuts[b] < cuts[b + 1])
      ref_build(t, store, cuts[b], cuts[b + 1], start_depth, gst::kNilNode);
  }
  return t;
}

bool is_inert(std::uint32_t mask) {
  return std::has_single_bit(mask) && mask != 1u << gst::kClassLambda;
}

/// The full tree with every topmost inert subtree of two or more suffixes
/// (except an ended-group leaf, which keeps its depth) replaced by one leaf
/// at its entry depth, and every other one-suffix leaf moved to its entry
/// depth too. Under a parent of depth >= ψ the inert leaf holds its
/// suffixes in depth-first sibling order, each old leaf's suffixes in index
/// order; under a shallower parent (or none) it holds them in input order,
/// the order of `input`.
RefTree collapse(const RefTree& full,
                 const std::vector<gst::SuffixSite>& input,
                 std::uint32_t start_depth, std::uint32_t psi) {
  const auto& nodes = full.nodes;
  const auto n = static_cast<std::uint32_t>(nodes.size());
  std::vector<std::uint32_t> mask(n, 0), nsuf(n, 0);
  for (std::uint32_t id = n; id-- > 0;) {
    const gst::Node& nd = nodes[id];
    for (std::uint32_t i = nd.suffix_begin; i < nd.suffix_end; ++i) {
      mask[id] |= 1u << full.suffixes[i].cls;
      ++nsuf[id];
    }
    if (nd.parent != gst::kNilNode) {
      mask[nd.parent] |= mask[id];
      nsuf[nd.parent] += nsuf[id];
    }
  }
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::size_t> input_rank;
  for (std::size_t i = 0; i < input.size(); ++i) {
    input_rank[{input[i].seq, input[i].pos}] = i;
  }
  RefTree out{full.suffixes, {}};
  std::vector<std::uint32_t> new_id(n, gst::kNilNode);
  std::vector<bool> dropped(n, false);
  for (std::uint32_t id = 0; id < n; ++id) {
    const gst::Node& nd = nodes[id];
    const std::uint32_t par = nd.parent;
    if (par != gst::kNilNode && dropped[par]) {
      dropped[id] = true;
      continue;
    }
    gst::Node copy = nd;
    const bool ended_leaf =
        nd.is_leaf() && par != gst::kNilNode && nd.depth == nodes[par].depth;
    const std::uint32_t entry_depth =
        par == gst::kNilNode ? start_depth : nodes[par].depth + 1;
    if (nsuf[id] == 1 && !ended_leaf) copy.depth = entry_depth;
    if (nsuf[id] >= 2 && is_inert(mask[id]) && !ended_leaf) {
      // Gather the subtree's leaves in sibling order.
      std::vector<gst::SuffixSite> walk;
      std::uint32_t lo = std::numeric_limits<std::uint32_t>::max(), hi = 0;
      const auto visit = [&](const auto& self, std::uint32_t v) -> void {
        const gst::Node& x = nodes[v];
        if (x.is_leaf()) {
          lo = std::min(lo, x.suffix_begin);
          hi = std::max(hi, x.suffix_end);
          for (std::uint32_t i = x.suffix_begin; i < x.suffix_end; ++i)
            walk.push_back(full.suffixes[i]);
          return;
        }
        for (std::uint32_t c = x.first_child; c != gst::kNilNode;
             c = nodes[c].next_sibling)
          self(self, c);
      };
      visit(visit, id);
      EXPECT_EQ(hi - lo, walk.size()) << "subtree range not contiguous";
      if (par == gst::kNilNode || nodes[par].depth < psi) {
        std::ranges::sort(walk, {}, [&](const gst::SuffixSite& sf) {
          return input_rank.at({sf.seq, sf.pos});
        });
      }
      std::ranges::copy(walk, out.suffixes.begin() + lo);
      copy = {.depth = entry_depth,
              .next_sibling = nd.next_sibling,
              .suffix_begin = lo,
              .suffix_end = hi};
      dropped[id] = true;
    }
    new_id[id] = static_cast<std::uint32_t>(out.nodes.size());
    copy.parent = par;
    out.nodes.push_back(copy);
  }
  // Re-link through the new ids; the next kept sibling of a kept node is
  // always kept, since dropped nodes lie strictly inside a collapsed one.
  for (gst::Node& nd : out.nodes) {
    const auto map = [&](std::uint32_t v) {
      return v == gst::kNilNode ? v : new_id[v];
    };
    if (!nd.is_leaf()) nd.first_child = map(nd.first_child);
    nd.parent = map(nd.parent);
    nd.next_sibling = map(nd.next_sibling);
  }
  return out;
}

/// The test oracle for the tree's grouping: `suffixes` stable-sorted by
/// their first w codes, ascending, with the start of each group.
std::pair<std::vector<gst::Suffix>, std::vector<std::uint32_t>>
ascending_groups(const seq::FragmentStore& store,
                 std::vector<gst::Suffix> suffixes, std::uint32_t w) {
  const auto key = [&](const gst::Suffix& s) {
    return gst::bucket_of(store, s, w);
  };
  std::ranges::stable_sort(suffixes, {}, key);
  std::vector<std::uint32_t> begins;
  for (std::uint32_t i = 0; i < suffixes.size(); ++i) {
    if (i == 0 || key(suffixes[i]) != key(suffixes[i - 1]))
      begins.push_back(i);
  }
  return {std::move(suffixes), std::move(begins)};
}

/// The suffixes of `store` in reverse enumeration order: a second input
/// order for the explicit-suffix constructor.
std::vector<gst::Suffix> reversed_suffixes(const seq::FragmentStore& store,
                                           std::uint32_t psi) {
  auto suffixes = gst::enumerate_suffixes(store, psi);
  std::ranges::reverse(suffixes);
  return suffixes;
}

/// The reference for a tree built over `input`: the full tree of its
/// ascending groups from depth min(ψ, 8), collapsed.
RefTree grouped_reference(const seq::FragmentStore& store,
                          std::vector<gst::Suffix> input, std::uint32_t psi) {
  const std::uint32_t w = std::min(psi, 8u);
  auto [grouped, begins] = ascending_groups(store, std::move(input), w);
  return collapse(reference_tree(store, grouped, begins, w),
                  sites(store, grouped), w, psi);
}

void expect_same_tree(const SuffixTree& tree, const RefTree& ref,
                      const std::string& what) {
  ASSERT_EQ(tree.num_nodes(), ref.nodes.size()) << what;
  ASSERT_EQ(tree.num_suffixes(), ref.suffixes.size()) << what;
  for (std::uint32_t i = 0; i < ref.nodes.size(); ++i) {
    const gst::Node& a = tree.node(i);
    const gst::Node& b = ref.nodes[i];
    ASSERT_TRUE(a.parent == b.parent && a.depth == b.depth &&
                a.first_child == b.first_child &&
                a.next_sibling == b.next_sibling &&
                a.suffix_begin == b.suffix_begin &&
                a.suffix_end == b.suffix_end)
        << what << ": node " << i << " differs: (" << a.parent << ","
        << a.depth << "," << a.first_child << "," << a.next_sibling << ","
        << a.suffix_begin << "," << a.suffix_end << ") vs (" << b.parent
        << "," << b.depth << "," << b.first_child << "," << b.next_sibling
        << "," << b.suffix_begin << "," << b.suffix_end << ")";
  }
  for (std::uint32_t i = 0; i < ref.suffixes.size(); ++i) {
    ASSERT_EQ(gst::site_of(tree.store(), tree.suffix(i)), ref.suffixes[i])
        << what << ": suffix order differs at " << i;
  }
  EXPECT_EQ(tree.check_invariants(), "") << what;
}

void expect_matches_reference(const seq::FragmentStore& store,
                              std::uint32_t psi, const std::string& what) {
  expect_same_tree(
      SuffixTree(store, GstParams{.min_match = psi}),
      grouped_reference(store, gst::enumerate_suffixes(store, psi), psi),
      what + " psi=" + std::to_string(psi));
  expect_same_tree(
      SuffixTree(store, reversed_suffixes(store, psi),
                 GstParams{.min_match = psi}),
      grouped_reference(store, reversed_suffixes(store, psi), psi),
      what + " reversed psi=" + std::to_string(psi));
}

TEST(SuffixTreeEdges, SuffixEndsAtLastByteOfText) {
  // The shared repeat runs to the very end of the store's text, so the
  // longest comparisons stop exactly at the final byte.
  util::Prng rng(31);
  const auto repeat = test::random_dna(rng, 53);
  seq::FragmentStore store;
  for (std::size_t lead : {3u, 9u, 16u}) {
    auto frag = test::random_dna(rng, lead);
    frag.insert(frag.end(), repeat.begin(), repeat.end());
    store.add(frag);
  }
  for (std::uint32_t psi : {1u, 5u, 20u}) {
    expect_matches_reference(store, psi, "last-byte");
  }
}

TEST(SuffixTreeEdges, FragmentsShorterThanAWord) {
  seq::FragmentStore store;
  for (const char* s : {"A", "AC", "ACG", "ACGT", "ACGTA", "ACGTAC",
                        "ACGTACG", "CGTACG", "GTAC", "ACGTACG", "T"}) {
    store.add_ascii(s);
  }
  for (std::uint32_t psi : {1u, 2u, 4u, 7u}) {
    expect_matches_reference(store, psi, "short");
  }
}

TEST(SuffixTreeEdges, MaskedRunsSplitFragments) {
  // Identical fragments masked at the same place: the raw bytes agree
  // across the mask, but no suffix may extend past it.
  seq::FragmentStore store;
  const std::string a = "ACGTTGCAACGTTGCAACGTTGCAACGTTGCA";
  for (int i = 0; i < 3; ++i) store.add_ascii(a + a);
  store.mask(0, 20, 23);
  store.mask(1, 20, 23);
  store.mask(2, 5, 6);
  store.mask(2, 40, 50);
  store.add_ascii(a.substr(0, 20) + "N" + a);
  for (std::uint32_t psi : {1u, 3u, 8u, 17u}) {
    expect_matches_reference(store, psi, "masked");
  }
}

TEST(SuffixTreeEdges, IdenticalFragmentsShareLeaves) {
  util::Prng rng(5);
  const auto frag = test::random_dna(rng, 45);
  seq::FragmentStore store;
  for (int i = 0; i < 4; ++i) store.add(frag);
  store.add(std::span(frag).subspan(7));
  SuffixTree tree(store, GstParams{.min_match = 4});
  std::uint32_t multi = 0;
  for (std::uint32_t id = 0; id < tree.num_nodes(); ++id) {
    multi += tree.node(id).is_leaf() && tree.node(id).num_suffixes() > 1;
  }
  EXPECT_GT(multi, 0u);
  for (std::uint32_t psi : {1u, 4u, 30u}) {
    expect_matches_reference(store, psi, "identical");
  }
}

TEST(SuffixTreeEdges, MismatchAtEveryOffsetModEight) {
  // One copy per mismatch offset 0..71: the first differing byte sits at
  // every position of a word, in the first word and in later ones.
  util::Prng rng(8);
  const auto base = test::random_dna(rng, 90);
  seq::FragmentStore store;
  store.add(base);
  for (std::uint32_t k = 0; k < 72; ++k) {
    auto copy = base;
    copy[k] = static_cast<seq::Code>((copy[k] + 1 + k % 3) % 4);
    store.add(copy);
  }
  for (std::uint32_t psi : {1u, 6u, 20u}) {
    expect_matches_reference(store, psi, "mod8");
  }
}

TEST(SuffixTreeEdges, ExactRepeatsLongerThan64) {
  util::Prng rng(64);
  const auto rep = test::random_dna(rng, 150);
  seq::FragmentStore store;
  for (int i = 0; i < 4; ++i) {
    auto frag = test::random_dna(rng, 10 + 7 * i);
    frag.insert(frag.end(), rep.begin(), rep.end());
    if (i % 2 == 0) frag.insert(frag.end(), rep.begin(), rep.begin() + 80);
    const auto tail = test::random_dna(rng, 5 + i);
    frag.insert(frag.end(), tail.begin(), tail.end());
    store.add(frag);
  }
  for (std::uint32_t psi : {2u, 20u, 70u}) {
    expect_matches_reference(store, psi, "repeat");
  }
}

TEST(SuffixTreeEdges, RandomStoresMatchReference) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    util::Prng rng(seed);
    const auto store = random_store(rng, 12, 5, 140, 0.03);
    expect_matches_reference(store, 3, "random seed " + std::to_string(seed));
  }
}

// Fixed-seed workloads for the golden hashes: a doubled wgs-like read set
// with masked runs, and a doubled repeat-rich (maize-like) one.
seq::FragmentStore golden_store(bool repeat_rich) {
  const std::uint64_t seed = repeat_rich ? 2006 : 205;
  const auto genome = sim::simulate_genome(
      repeat_rich ? sim::maize_like(12'000, seed)
                  : sim::shotgun_like(12'000, seed));
  sim::ReadSet reads;
  util::Prng rng(seed);
  sim::sample_wgs(reads, genome, 5.0, {.len_mean = 400, .len_spread = 100},
                  rng);
  if (!repeat_rich) {
    for (std::uint32_t id = 0; id < reads.store.size(); ++id) {
      if (!rng.chance(0.3)) continue;
      const std::uint32_t len = reads.store.length(id);
      const auto at = static_cast<std::uint32_t>(rng.below(len));
      reads.store.mask(id, at,
                       std::min(len, at + 5 + static_cast<std::uint32_t>(
                                                  rng.below(36))));
    }
  }
  return seq::make_doubled_store(reads.store);
}

struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  }
};

std::uint64_t tree_hash(const SuffixTree& tree) {
  Fnv f;
  for (std::uint32_t i = 0; i < tree.num_nodes(); ++i) {
    const gst::Node& nd = tree.node(i);
    for (std::uint32_t v : {nd.parent, nd.depth, nd.first_child,
                            nd.next_sibling, nd.suffix_begin, nd.suffix_end})
      f.add(v);
  }
  for (std::uint32_t i = 0; i < tree.num_suffixes(); ++i) {
    const gst::SuffixSite sf = gst::site_of(tree.store(), tree.suffix(i));
    f.add(sf.seq);
    f.add(sf.pos);
  }
  return f.h;
}

std::pair<std::uint64_t, std::uint64_t> stream_hash(const SuffixTree& tree,
                                                    PairGenParams params) {
  PairGenerator gen(tree, params);
  Fnv f;
  std::uint64_t n = 0;
  PromisingPair p;
  while (gen.next(p)) {
    for (std::uint32_t v : {p.seq_a, p.pos_a, p.seq_b, p.pos_b, p.match_len})
      f.add(v);
    ++n;
  }
  return {f.h, n};
}

struct Golden {
  std::uint64_t serial_tree, reversed_tree;
  std::uint64_t elim, elim_n, suffix_level, suffix_level_n;
};

/// `serial` is the tree over the enumerated suffixes; `reversed` is built
/// from them in reverse order, which changes the order inside each group.
void expect_golden(bool repeat_rich, std::uint32_t psi, const Golden& want) {
  const auto store = golden_store(repeat_rich);
  SuffixTree serial(store, GstParams{.min_match = psi});
  SuffixTree reversed(store, reversed_suffixes(store, psi),
                      GstParams{.min_match = psi});
  const auto elim = stream_hash(serial, {.doubled_input = true});
  const auto suffix_level =
      stream_hash(serial, {.dup_elim = false, .doubled_input = true});
  EXPECT_EQ(tree_hash(serial), want.serial_tree);
  EXPECT_EQ(tree_hash(reversed), want.reversed_tree);
  EXPECT_EQ(elim.first, want.elim);
  EXPECT_EQ(elim.second, want.elim_n);
  EXPECT_EQ(suffix_level.first, want.suffix_level);
  EXPECT_EQ(suffix_level.second, want.suffix_level_n);
}

TEST(SuffixTreeGolden, WgsLikeMaskedTreeAndPairStream) {
  expect_golden(false, 14,
                {9940178745039505808ull, 2079140358036384604ull,
                 9434392479842476710ull, 3589, 9434392479842476710ull, 3589});
}

TEST(SuffixTreeGolden, RepeatRichTreeAndPairStream) {
  expect_golden(true, 24,
                {4154354107880330803ull, 7797350474604980015ull,
                 13410265634253747581ull, 7457, 1717882182973441283ull, 8331});
}

// --- Visiting only the nodes that can emit ---------------------------------
//
// The reference below visits every node of depth >= ψ of the full,
// uncollapsed reference tree, deepest first, keeps each node's lsets as
// plain vectors and dissolves them into the parent on the way up; the
// production tree replaces inert subtrees by single leaves and the
// production generator skips one-suffix and inert leaves, and together
// they must still emit the same stream, field for field.

struct RefStream {
  std::vector<PromisingPair> pairs;
  std::uint64_t filtered_self = 0, filtered_mirror = 0;
};

RefStream every_node_reference(const RefTree& tree, std::size_t num_seqs,
                               std::uint32_t psi, PairGenParams params) {
  using Lists = std::array<std::vector<std::uint32_t>, gst::kNumClasses>;
  std::vector<Lists> lists(tree.nodes.size());
  std::vector<std::uint32_t> order;
  for (std::uint32_t id = 0; id < tree.nodes.size(); ++id) {
    if (tree.nodes[id].depth >= psi) order.push_back(id);
  }
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    const std::uint32_t da = tree.nodes[a].depth, db = tree.nodes[b].depth;
    return da != db ? da > db : a > b;
  });
  RefStream ref;
  const auto emit = [&](std::uint32_t ea, std::uint32_t eb, std::uint32_t len) {
    const gst::SuffixSite& sa = tree.suffixes[ea];
    const gst::SuffixSite& sb = tree.suffixes[eb];
    if (sa.seq == sb.seq) {
      ++ref.filtered_self;
      return;
    }
    PromisingPair p{sa.seq, sa.pos, sb.seq, sb.pos, len};
    const auto swap_sides = [&p] {
      std::swap(p.seq_a, p.seq_b);
      std::swap(p.pos_a, p.pos_b);
    };
    if (params.doubled_input) {
      if (p.seq_a >> 1 == p.seq_b >> 1) {
        ++ref.filtered_self;
        return;
      }
      if (p.seq_a >> 1 > p.seq_b >> 1) swap_sides();
      if (p.seq_a & 1u) {
        ++ref.filtered_mirror;
        return;
      }
    } else if (p.seq_a > p.seq_b) {
      swap_sides();
    }
    ref.pairs.push_back(p);
  };
  std::vector<std::uint8_t> seen(num_seqs, 0);
  for (const std::uint32_t u : order) {
    const gst::Node& nd = tree.nodes[u];
    Lists& own = lists[u];
    if (nd.is_leaf()) {
      for (std::uint32_t i = nd.suffix_begin; i < nd.suffix_end; ++i) {
        own[tree.suffixes[i].cls].push_back(i);
      }
      // Classes within the leaf: different ones, or λ with λ.
      for (int x = 0; x < gst::kNumClasses; ++x) {
        for (int y = x; y < gst::kNumClasses; ++y) {
          if (x == y && x != gst::kClassLambda) continue;
          for (std::size_t i = 0; i < own[x].size(); ++i) {
            for (std::size_t j = x == y ? i + 1 : 0; j < own[y].size(); ++j) {
              emit(own[x][i], own[y][j], nd.depth);
            }
          }
        }
      }
      continue;
    }
    std::vector<std::uint32_t> children;
    for (std::uint32_t c = nd.first_child; c != gst::kNilNode;
         c = tree.nodes[c].next_sibling) {
      children.push_back(c);
    }
    if (params.dup_elim) {
      // First occurrence of each sequence, children in sibling order and
      // classes in order within a child.
      for (const std::uint32_t c : children) {
        for (auto& l : lists[c]) {
          std::erase_if(l, [&](std::uint32_t e) {
            return std::exchange(seen[tree.suffixes[e].seq], 1) != 0;
          });
        }
      }
      for (const std::uint32_t c : children) {
        for (auto& l : lists[c]) {
          for (const std::uint32_t e : l) seen[tree.suffixes[e].seq] = 0;
        }
      }
    }
    // Classes across two different children, all but same-base.
    for (std::size_t ci = 0; ci < children.size(); ++ci) {
      for (std::size_t cj = ci + 1; cj < children.size(); ++cj) {
        for (int x = 0; x < gst::kNumClasses; ++x) {
          for (int y = 0; y < gst::kNumClasses; ++y) {
            if (x == y && x != gst::kClassLambda) continue;
            for (const std::uint32_t a : lists[children[ci]][x]) {
              for (const std::uint32_t b : lists[children[cj]][y]) {
                emit(a, b, nd.depth);
              }
            }
          }
        }
      }
    }
    for (const std::uint32_t c : children) {
      for (int x = 0; x < gst::kNumClasses; ++x) {
        own[x].insert(own[x].end(), lists[c][x].begin(), lists[c][x].end());
        lists[c][x].clear();
      }
    }
  }
  return ref;
}

/// Reads sampled from one small genome with substitutions, plus masked runs
/// (λ classes inside reads), identical fragments, a read holding a repeat
/// of itself and fragments shorter than a word.
seq::FragmentStore mixed_store(util::Prng& rng) {
  const auto genome = test::random_dna(rng, 300 + rng.below(300));
  const auto slice = [&](std::size_t len) {
    const std::size_t at = rng.below(genome.size() - len + 1);
    return std::vector<seq::Code>(genome.begin() + at,
                                  genome.begin() + at + len);
  };
  seq::FragmentStore store;
  const std::size_t reads = 10 + rng.below(8);
  for (std::size_t r = 0; r < reads; ++r) {
    auto read = slice(30 + rng.below(91));
    for (auto& c : read) {
      if (rng.chance(0.01))
        c = static_cast<seq::Code>((c + 1 + rng.below(3)) % 4);
    }
    const auto id = store.add(read);
    if (rng.chance(0.3)) {
      const auto at = static_cast<std::uint32_t>(rng.below(read.size()));
      store.mask(id, at,
                 std::min(static_cast<std::uint32_t>(read.size()),
                          at + 1 + static_cast<std::uint32_t>(rng.below(5))));
    }
  }
  for (int k = 0; k < 2; ++k) {
    const auto copy = store.seq(static_cast<std::uint32_t>(rng.below(reads)));
    store.add(std::vector<seq::Code>(copy.begin(), copy.end()));
  }
  auto repeat = slice(25);
  auto twice = slice(10);
  twice.insert(twice.end(), repeat.begin(), repeat.end());
  twice.insert(twice.end(), repeat.begin(), repeat.end());
  store.add(twice);
  for (int k = 0; k < 3; ++k) store.add(slice(1 + rng.below(7)));
  return store;
}

void expect_same_stream(const SuffixTree& tree, const RefTree& full,
                        PairGenParams params, const std::string& what) {
  const RefStream ref = every_node_reference(full, tree.store().size(),
                                             tree.params().min_match, params);
  PairGenerator gen(tree, params);
  std::vector<PromisingPair> got;
  gen.fill(got, std::numeric_limits<std::size_t>::max());
  ASSERT_EQ(got.size(), ref.pairs.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const PromisingPair& a = got[i];
    const PromisingPair& b = ref.pairs[i];
    ASSERT_TRUE(a == b) << what << ": pair " << i << " is (" << a.seq_a << ","
                        << a.pos_a << "," << a.seq_b << "," << a.pos_b << ","
                        << a.match_len << "), reference (" << b.seq_a << ","
                        << b.pos_a << "," << b.seq_b << "," << b.pos_b << ","
                        << b.match_len << ")";
  }
  EXPECT_EQ(gen.pairs_filtered_self(), ref.filtered_self) << what;
  EXPECT_EQ(gen.pairs_filtered_mirror(), ref.filtered_mirror) << what;
}

/// Nodes of the full tree a generator would visit if inert subtrees were
/// neither collapsed nor skipped.
std::size_t visit_candidates(const RefTree& tree, std::uint32_t psi) {
  std::size_t n = 0;
  for (const gst::Node& nd : tree.nodes) {
    n += nd.depth >= psi && !(nd.is_leaf() && nd.num_suffixes() == 1);
  }
  return n;
}

TEST_P(PairGenRandom, StreamEqualsEveryNodeReference) {
  util::Prng rng(GetParam());
  const auto plain = mixed_store(rng);
  const std::uint32_t psi = 6 + static_cast<std::uint32_t>(rng.below(9));
  const std::uint32_t w = std::min(psi, 8u);
  for (const bool doubled : {false, true}) {
    const auto store = doubled ? seq::make_doubled_store(plain) : plain;
    // The serial tree against the full tree from the root; the tree over
    // reversed input against the full trees of its ascending groups.
    SuffixTree serial(store, GstParams{.min_match = psi});
    const RefTree serial_full =
        reference_tree(store, gst::enumerate_suffixes(store, psi), {}, 0);
    auto [grouped, begins] =
        ascending_groups(store, reversed_suffixes(store, psi), w);
    const RefTree reversed_full = reference_tree(store, grouped, begins, w);
    SuffixTree reversed(store, reversed_suffixes(store, psi),
                        GstParams{.min_match = psi});
    // Inert subtrees must be there to collapse and skip, or the comparison
    // is vacuous.
    EXPECT_LT(serial.num_nodes(), serial_full.nodes.size());
    EXPECT_LT(serial.pair_nodes_by_depth_desc().size(),
              visit_candidates(serial_full, psi));
    for (const SuffixTree* tree : {&serial, &reversed}) {
      for (const bool dup_elim : {false, true}) {
        const std::string what =
            "seed " + std::to_string(GetParam()) + " psi " +
            std::to_string(psi) + (doubled ? " doubled" : " plain") +
            (tree == &reversed ? " reversed" : " serial") +
            (dup_elim ? " dup_elim" : "");
        expect_same_stream(*tree,
                           tree == &reversed ? reversed_full : serial_full,
                           {.dup_elim = dup_elim, .doubled_input = doubled},
                           what);
      }
    }
  }
}

/// Checks pair_nodes_by_depth_desc() against a class mask recomputed bottom
/// up: exactly the nodes of depth >= ψ that are neither inert nor one-suffix
/// leaves, deepest first with ties by descending id. Returns how many nodes
/// at depth >= ψ were left out for being inert.
std::size_t expect_pair_nodes(const SuffixTree& tree, const std::string& what) {
  const std::uint32_t psi = tree.params().min_match;
  std::vector<std::uint32_t> mask(tree.num_nodes(), 0);
  // Children always have larger ids than their parent.
  for (auto id = static_cast<std::uint32_t>(tree.num_nodes()); id-- > 0;) {
    const gst::Node& nd = tree.node(id);
    if (nd.is_leaf()) {
      for (std::uint32_t i = nd.suffix_begin; i < nd.suffix_end; ++i) {
        mask[id] |= 1u << gst::class_of(tree.store().text(), tree.suffix(i));
      }
    }
    if (nd.parent != gst::kNilNode) mask[nd.parent] |= mask[id];
  }
  std::vector<std::uint32_t> want;
  std::size_t inert = 0;
  for (std::uint32_t id = 0; id < tree.num_nodes(); ++id) {
    const gst::Node& nd = tree.node(id);
    if (nd.depth < psi || (nd.is_leaf() && nd.num_suffixes() == 1)) continue;
    const std::uint32_t m = mask[id];
    if ((m & (m - 1)) == 0 && m != 1u << gst::kClassLambda) {
      ++inert;
      continue;
    }
    want.push_back(id);
  }
  const auto got = tree.pair_nodes_by_depth_desc();
  for (std::size_t i = 1; i < got.size(); ++i) {
    const std::uint32_t da = tree.node(got[i - 1]).depth;
    const std::uint32_t db = tree.node(got[i]).depth;
    EXPECT_TRUE(da > db || (da == db && got[i - 1] > got[i]))
        << what << ": order broken at " << i;
  }
  auto sorted = got;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, want) << what;
  return inert;
}

TEST(SuffixTree, PairNodesAreExactlyTheEmittingCandidates) {
  std::size_t inert = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    util::Prng rng(seed);
    const auto store = seq::make_doubled_store(mixed_store(rng));
    for (const std::uint32_t psi : {1u, 6u, 12u}) {
      const std::string what =
          "seed " + std::to_string(seed) + " psi " + std::to_string(psi);
      inert += expect_pair_nodes(
          SuffixTree(store, GstParams{.min_match = psi}), what);
      inert += expect_pair_nodes(
          SuffixTree(store, reversed_suffixes(store, psi),
                     GstParams{.min_match = psi}),
          what + " reversed");
    }
  }
  const auto golden = golden_store(false);
  inert += expect_pair_nodes(
      SuffixTree(golden, GstParams{.min_match = 20}), "golden");
  EXPECT_GT(inert, 0u);
}

/// Checks the two leaf kinds without check_invariants(): no internal node
/// is inert, every multi-suffix leaf holds identical strings or one non-λ
/// class, and an inert leaf under a parent of depth >= ψ holds its suffixes
/// in depth-first order: descending, a proper prefix after its extensions,
/// equal strings in input order, which is enumeration order or, with
/// `reversed_input`, its reverse. Returns how many such deep inert leaves
/// hold two different strings.
std::size_t expect_inert_leaves(const SuffixTree& tree, const std::string& what,
                                bool reversed_input = false) {
  const auto& store = tree.store();
  std::vector<std::uint32_t> mask(tree.num_nodes(), 0);
  for (auto id = static_cast<std::uint32_t>(tree.num_nodes()); id-- > 0;) {
    const gst::Node& nd = tree.node(id);
    for (std::uint32_t i = nd.suffix_begin; i < nd.suffix_end; ++i) {
      mask[id] |= 1u << gst::class_of(store.text(), tree.suffix(i));
    }
    if (nd.parent != gst::kNilNode) mask[nd.parent] |= mask[id];
  }
  const auto text = [&](std::uint32_t i) {
    const gst::SuffixSite sf = gst::site_of(store, tree.suffix(i));
    return store.seq(sf.seq).subspan(sf.pos, sf.len);
  };
  std::size_t ordered = 0;
  for (std::uint32_t id = 0; id < tree.num_nodes(); ++id) {
    const gst::Node& nd = tree.node(id);
    if (!nd.is_leaf()) {
      EXPECT_FALSE(is_inert(mask[id])) << what << ": internal node " << id;
      continue;
    }
    if (nd.num_suffixes() < 2) continue;
    bool identical = true;
    for (std::uint32_t i = nd.suffix_begin + 1; i < nd.suffix_end; ++i) {
      identical = identical && std::ranges::equal(text(i), text(i - 1));
    }
    EXPECT_TRUE(identical || is_inert(mask[id])) << what << ": leaf " << id;
    if (!is_inert(mask[id]) || nd.parent == gst::kNilNode ||
        tree.node(nd.parent).depth < tree.params().min_match)
      continue;
    ordered += !identical;
    for (std::uint32_t i = nd.suffix_begin + 1; i < nd.suffix_end; ++i) {
      const auto a = text(i - 1), b = text(i);
      EXPECT_FALSE(std::ranges::lexicographical_compare(a, b))
          << what << ": inert leaf " << id << " ascends at " << i;
      if (std::ranges::equal(a, b)) {
        const gst::SuffixSite x = gst::site_of(store, tree.suffix(i - 1));
        const gst::SuffixSite y = gst::site_of(store, tree.suffix(i));
        EXPECT_NE(std::pair(x.seq, x.pos) < std::pair(y.seq, y.pos),
                  reversed_input)
            << what << ": inert leaf " << id << " reorders equal strings";
      }
    }
  }
  return ordered;
}

TEST(SuffixTree, InertRangesAreSingleLeaves) {
  std::size_t ordered = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    util::Prng rng(seed);
    const auto store = seq::make_doubled_store(mixed_store(rng));
    for (const std::uint32_t psi : {1u, 6u, 12u}) {
      const std::string what =
          "seed " + std::to_string(seed) + " psi " + std::to_string(psi);
      ordered += expect_inert_leaves(
          SuffixTree(store, GstParams{.min_match = psi}), what);
      ordered += expect_inert_leaves(
          SuffixTree(store, reversed_suffixes(store, psi),
                     GstParams{.min_match = psi}),
          what + " reversed", true);
    }
  }
  EXPECT_GT(ordered, 0u);
  // On reads nearly every suffix lies in an inert range, so the trees of
  // the golden stores hold fewer nodes than suffixes: 0.44-0.46 nodes per
  // suffix, where the full tree holds 1.86-1.88.
  for (const bool repeat_rich : {false, true}) {
    const auto store = golden_store(repeat_rich);
    const std::uint32_t psi = repeat_rich ? 24 : 14;
    SuffixTree serial(store, GstParams{.min_match = psi});
    SuffixTree reversed(store, reversed_suffixes(store, psi),
                        GstParams{.min_match = psi});
    for (const SuffixTree* tree : {&serial, &reversed}) {
      const std::string what = std::string(repeat_rich ? "repeat" : "wgs") +
                               (tree == &reversed ? " reversed" : " serial");
      expect_inert_leaves(*tree, what, tree == &reversed);
      EXPECT_LT(static_cast<double>(tree->num_nodes()),
                0.75 * static_cast<double>(tree->num_suffixes()))
          << what;
    }
  }
}

TEST(PairGen, PeakMemoryHoldsOnlyTheInternalFrontier) {
  // Reads sampled from one genome: most leaves hold a single suffix and
  // most subtrees are inert. Their lsets are built when the parent is
  // entered, so neither the node order nor the lset pool scales with them.
  const auto store = golden_store(false);
  SuffixTree tree(store, GstParams{.min_match = 20});
  PairGenerator gen(tree, {.doubled_input = true});
  PromisingPair p;
  std::uint64_t peak = gen.memory_bytes();
  while (gen.next(p)) peak = std::max(peak, gen.memory_bytes());
  const double per_char =
      static_cast<double>(peak) / static_cast<double>(store.total_length());
  // The bound sits between the measured ~18.6 bytes per character of a
  // generator that visits and pools every inert subtree and the ~11.1 of
  // one that skips them (a generator that also pools every leaf measures
  // ~45).
  EXPECT_LT(per_char, 14.0);
}

}  // namespace
}  // namespace pgasm
