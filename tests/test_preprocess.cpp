// Tests for preprocessing: quality trimming, vector screening, statistical
// repeat masking, invalidation rules, and Table-2 style type accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "preprocess/kmer_set.hpp"
#include "preprocess/preprocess.hpp"
#include "sim/genome.hpp"
#include "sim/reads.hpp"
#include "test_helpers.hpp"

namespace pgasm {
namespace {

using preprocess::KmerSet;
using preprocess::PreprocessParams;
using preprocess::RepeatMasker;
using preprocess::RepeatMaskParams;

TEST(RepeatMasker, CanonicalKmerStrandIndependent) {
  const auto fwd = seq::encode("ACGTACGTACGTACGT");
  const auto rev = seq::reverse_complement(fwd);
  std::uint64_t a = 0, b = 0;
  ASSERT_TRUE(RepeatMasker::canonical_kmer(fwd, 0, 16, &a));
  ASSERT_TRUE(RepeatMasker::canonical_kmer(rev, 0, 16, &b));
  EXPECT_EQ(a, b);
}

TEST(RepeatMasker, RejectsMaskedWindow) {
  auto s = seq::encode("ACGTNACGTACGTACGTT");
  std::uint64_t k = 0;
  EXPECT_FALSE(RepeatMasker::canonical_kmer(s, 0, 16, &k));
  EXPECT_TRUE(RepeatMasker::canonical_kmer(s, 5, 12, &k));
}

TEST(RepeatMasker, RollingKmersMatchCanonicalKmer) {
  // The rolling enumerator must report exactly the windows canonical_kmer
  // accepts, with the same keys, in ascending position: random texts with
  // masked runs and single masked bases, at the extremes of k.
  util::Prng rng(17);
  for (const std::uint32_t k : {1u, 2u, 12u, 16u, 31u, 32u}) {
    for (int trial = 0; trial < 20; ++trial) {
      auto text = test::random_dna(rng, rng.below(300), 0.01);
      for (int run = 0; run < 3 && !text.empty(); ++run) {
        const auto at = rng.below(text.size());
        const auto len = std::min<std::size_t>(1 + rng.below(40),
                                               text.size() - at);
        std::fill_n(text.begin() + static_cast<std::ptrdiff_t>(at), len,
                    seq::kMask);
      }
      std::vector<std::pair<std::uint32_t, std::uint64_t>> want, got;
      for (std::uint32_t p = 0; p + k <= text.size(); ++p) {
        std::uint64_t key = 0;
        if (RepeatMasker::canonical_kmer(text, p, k, &key))
          want.emplace_back(p, key);
      }
      preprocess::for_each_canonical_kmer(
          text, k, [&](std::uint32_t p, std::uint64_t key) {
            got.emplace_back(p, key);
          });
      EXPECT_EQ(got, want) << "k = " << k << ", trial " << trial;
    }
  }
}

TEST(KmerSet, EmptySetHasNoMembers) {
  const KmerSet empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_FALSE(empty.contains(0));
  EXPECT_FALSE(empty.contains(~0ull));
  const KmerSet from_nothing(std::vector<std::uint64_t>{});
  EXPECT_TRUE(from_nothing.empty());
  EXPECT_FALSE(from_nothing.contains(0));
}

TEST(KmerSet, PrefilterFalsePositivesResolvedExactly) {
  // Keys arrive unsorted and duplicated; the set keeps them sorted and
  // unique. At 64-128 filter bits per key about one odd probe in 100
  // passes the bitmap prefilter; the binary search must still reject every
  // one.
  util::Prng rng(19);
  std::vector<std::uint64_t> keys;
  for (int i = 0; i < 500; ++i) keys.push_back(rng.below(1ull << 32) * 2);
  keys.insert(keys.end(), keys.begin(), keys.begin() + 100);
  const KmerSet set(keys);
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  EXPECT_EQ(set.keys(), keys);
  for (const std::uint64_t key : keys) EXPECT_TRUE(set.contains(key));
  for (std::uint64_t probe = 1; probe < 200'000; probe += 2) {
    EXPECT_FALSE(set.contains(probe));
  }
}

TEST(KmerSet, InsertMergesIntoSortedUniqueKeys) {
  KmerSet set(std::vector<std::uint64_t>{40, 10, 30});
  const std::vector<std::uint64_t> more = {20, 30, 50, 5};
  set.insert(more);
  EXPECT_EQ(set.keys(), (std::vector<std::uint64_t>{5, 10, 20, 30, 40, 50}));
  for (const std::uint64_t key : set.keys()) EXPECT_TRUE(set.contains(key));
  EXPECT_FALSE(set.contains(25));
}

TEST(RepeatMasker, LibraryKeysMergeAfterSpectrum) {
  // Library k-mers join the learned spectrum: the set stays sorted and
  // unique, keeps every spectrum key, and masks library-only sequence.
  util::Prng rng(23);
  const auto repeat = test::random_dna(rng, 200);
  const auto known = test::random_dna(rng, 80);
  seq::FragmentStore store;
  for (int i = 0; i < 40; ++i) store.add(repeat);
  std::vector<seq::Code> read = test::random_dna(rng, 60);
  read.insert(read.end(), known.begin(), known.end());
  const auto tail = test::random_dna(rng, 60);
  read.insert(read.end(), tail.begin(), tail.end());
  const auto read_id = store.add(read);

  RepeatMaskParams params;
  params.sample_fraction = 1.0;
  params.fixed_threshold = 4;
  RepeatMasker masker(store, params);
  const auto spectrum = masker.repetitive_kmers();
  ASSERT_FALSE(spectrum.empty());
  masker.add_library_sequence(known);
  masker.add_library_sequence(repeat);  // all already present
  const auto& merged = masker.repetitive_kmers();
  EXPECT_TRUE(std::is_sorted(merged.begin(), merged.end()));
  EXPECT_EQ(std::adjacent_find(merged.begin(), merged.end()), merged.end());
  EXPECT_TRUE(std::includes(merged.begin(), merged.end(), spectrum.begin(),
                            spectrum.end()));
  EXPECT_EQ(merged.size(), spectrum.size() + known.size() - 16 + 1);
  EXPECT_EQ(masker.mask_fragment(store, read_id), known.size());
}

TEST(RepeatMasker, K32MasksHighCopySequence) {
  // k = 32 fills the 64-bit key exactly; it must still mask the repeat and
  // leave unique reads alone.
  util::Prng rng(29);
  const auto repeat = test::random_dna(rng, 200);
  seq::FragmentStore store;
  for (int i = 0; i < 40; ++i) store.add(repeat);
  for (int i = 0; i < 20; ++i) store.add(test::random_dna(rng, 200));
  RepeatMaskParams params;
  params.k = 32;
  params.sample_fraction = 0.5;
  RepeatMasker masker(store, params);
  EXPECT_EQ(masker.num_repetitive_kmers(), 200u - 32 + 1);
  EXPECT_EQ(masker.mask_fragment(store, 0), 200u);
  EXPECT_EQ(masker.mask_fragment(store, 45), 0u);
}

TEST(Preprocess, RejectsKmerLengthsOutsideOneTo32) {
  const seq::FragmentStore store;
  for (const std::uint32_t k : {0u, 33u}) {
    PreprocessParams params;
    params.repeat.k = k;
    EXPECT_THROW(preprocess::validate_preprocess_params(params),
                 std::invalid_argument);
    EXPECT_THROW(preprocess::preprocess(store, {}, params),
                 std::invalid_argument);
    EXPECT_THROW(RepeatMasker(store, params.repeat), std::invalid_argument);
    params = PreprocessParams{};
    params.vector_k = k;
    EXPECT_THROW(preprocess::preprocess(store, {}, params),
                 std::invalid_argument);
  }
  PreprocessParams edge;
  edge.repeat.k = 32;
  edge.vector_k = 32;
  EXPECT_NO_THROW(preprocess::validate_preprocess_params(edge));
  edge.repeat.k = 1;
  edge.vector_k = 1;
  EXPECT_NO_THROW(preprocess::validate_preprocess_params(edge));
}

TEST(Preprocess, RejectsZeroMinLen) {
  // The second read's qualities are all below the floor, so it trims to
  // nothing. At min_len = 0 that empty fragment would reach
  // FragmentStore::add as an empty quality span, which on a store with
  // qualities reads as "no qualities" and throws an unrelated error; the
  // parameter check must reject min_len = 0 first and name the field.
  util::Prng rng(12);
  seq::FragmentStore store;
  store.add(test::random_dna(rng, 200), seq::FragType::kWGS, "good",
            std::vector<std::uint8_t>(200, 40));
  store.add(test::random_dna(rng, 200), seq::FragType::kWGS, "bad",
            std::vector<std::uint8_t>(200, 5));
  PreprocessParams params;
  params.mask_repeats = false;
  params.min_len = 0;
  try {
    preprocess::validate_preprocess_params(params);
    ADD_FAILURE() << "min_len = 0 was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("min_len"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(preprocess::preprocess(store, {}, params),
               std::invalid_argument);
  params.min_len = 1;
  const auto result = preprocess::preprocess(store, {}, params);
  EXPECT_EQ(result.kept_ids, std::vector<std::uint32_t>{0});
  EXPECT_EQ(result.stats.discarded_short, 1u);
}

TEST(RepeatMasker, MasksHighCopySequence) {
  // 40 copies of a repeat read + 20 unique reads.
  util::Prng rng(3);
  const auto repeat = test::random_dna(rng, 200);
  seq::FragmentStore store;
  for (int i = 0; i < 40; ++i) store.add(repeat);
  for (int i = 0; i < 20; ++i) store.add(test::random_dna(rng, 200));

  RepeatMaskParams params;
  params.k = 16;
  params.sample_fraction = 0.5;
  RepeatMasker masker(store, params);
  EXPECT_GT(masker.num_repetitive_kmers(), 0u);

  std::uint64_t masked_repeat = masker.mask_fragment(store, 0);
  std::uint64_t masked_unique = masker.mask_fragment(store, 45);
  EXPECT_GT(masked_repeat, 150u);
  EXPECT_EQ(masked_unique, 0u);
}

TEST(RepeatMasker, SpectrumSnapshotSortedAndStable) {
  // repetitive_kmers() is the key-sorted set itself (DESIGN.md §16), so
  // every consumer — the preprocess fingerprint, reports — sees one fixed
  // order.
  util::Prng rng(3);
  const auto repeat = test::random_dna(rng, 200);
  seq::FragmentStore store;
  for (int i = 0; i < 40; ++i) store.add(repeat);
  for (int i = 0; i < 20; ++i) store.add(test::random_dna(rng, 200));

  RepeatMaskParams params;
  params.k = 16;
  params.sample_fraction = 0.5;
  RepeatMasker masker(store, params);
  const auto snap = masker.repetitive_kmers();
  ASSERT_EQ(snap.size(), masker.num_repetitive_kmers());
  EXPECT_TRUE(std::is_sorted(snap.begin(), snap.end()));
  EXPECT_EQ(snap, masker.repetitive_kmers());
}

TEST(Preprocess, RepeatSpectrumFingerprintIsReproducible) {
  // The fingerprint folds the *sorted* spectrum, so two identical inputs
  // must agree bit for bit; test_determinism extends this across rank
  // counts and transports.
  util::Prng rng(7);
  const auto repeat = test::random_dna(rng, 250);
  seq::FragmentStore store;
  for (int i = 0; i < 30; ++i) store.add(repeat);
  for (int i = 0; i < 15; ++i) store.add(test::random_dna(rng, 250));

  PreprocessParams params;
  params.repeat.sample_fraction = 1.0;
  const auto a = preprocess::preprocess(store, {}, params);
  const auto b = preprocess::preprocess(store, {}, params);
  EXPECT_NE(a.stats.repeat_spectrum_fingerprint, 0u);
  EXPECT_EQ(a.stats.repeat_spectrum_fingerprint,
            b.stats.repeat_spectrum_fingerprint);
}

TEST(RepeatMasker, LibraryScreening) {
  util::Prng rng(5);
  const auto known = test::random_dna(rng, 100);
  seq::FragmentStore store;
  // One read embedding the known repeat.
  std::vector<seq::Code> read = test::random_dna(rng, 50);
  read.insert(read.end(), known.begin(), known.end());
  auto tail = test::random_dna(rng, 50);
  read.insert(read.end(), tail.begin(), tail.end());
  store.add(read);

  RepeatMaskParams params;
  params.threshold_multiple = 0;  // disable statistical detection
  RepeatMasker masker(store, params);
  masker.add_library_sequence(known);
  const auto masked = masker.mask_fragment(store, 0);
  EXPECT_GE(masked, 100u);
  EXPECT_LT(masked, 140u);  // flanks survive
}

TEST(Preprocess, QualityTrimRemovesBadEnds) {
  seq::FragmentStore store;
  std::vector<seq::Code> read(300, seq::kA);
  std::vector<std::uint8_t> qual(300, 40);
  for (int i = 0; i < 30; ++i) qual[i] = 5;           // bad 5' end
  for (int i = 0; i < 20; ++i) qual[299 - i] = 5;     // bad 3' end
  store.add(read, seq::FragType::kWGS, "r", qual);

  PreprocessParams params;
  params.mask_repeats = false;
  params.min_len = 50;
  const auto result = preprocess::preprocess(store, {}, params);
  ASSERT_EQ(result.store.size(), 1u);
  EXPECT_LE(result.store.length(0), 252u);
  EXPECT_GE(result.store.length(0), 240u);
  EXPECT_GT(result.stats.quality_trimmed_bases, 40u);
}

TEST(Preprocess, VectorScreenTrimsContamination) {
  util::Prng rng(7);
  const auto& lib = sim::vector_library();
  std::vector<seq::Code> read(lib[0].begin(), lib[0].begin() + 40);
  const auto genomic = test::random_dna(rng, 260);
  read.insert(read.end(), genomic.begin(), genomic.end());
  seq::FragmentStore store;
  store.add(read);

  PreprocessParams params;
  params.mask_repeats = false;
  params.min_len = 50;
  const auto result = preprocess::preprocess(store, lib, params);
  ASSERT_EQ(result.store.size(), 1u);
  EXPECT_LE(result.store.length(0), 260u);
  EXPECT_GT(result.stats.vector_trimmed_bases, 20u);
}

TEST(Preprocess, DiscardsShortAndFullyMasked) {
  util::Prng rng(9);
  const auto repeat = test::random_dna(rng, 300);
  seq::FragmentStore store;
  for (int i = 0; i < 30; ++i) store.add(repeat);   // pure repeat reads
  store.add(test::random_dna(rng, 60));             // too short
  store.add(test::random_dna(rng, 300));            // good unique read

  PreprocessParams params;
  params.min_len = 100;
  params.repeat.sample_fraction = 1.0;
  // All-identical reads are adversarial for the coverage-peak statistic
  // (the repeat *is* the apparent peak); pin the absolute threshold.
  params.repeat.fixed_threshold = 4;
  params.max_masked_fraction = 0.5;
  const auto result = preprocess::preprocess(store, {}, params);
  EXPECT_EQ(result.stats.discarded_short, 1u);
  EXPECT_GE(result.stats.discarded_masked, 28u);
  // The unique read survives.
  bool unique_kept = false;
  for (auto id : result.kept_ids) unique_kept |= (id == 31u);
  EXPECT_TRUE(unique_kept);
}

TEST(Preprocess, UnmaskedStoreParallelsMasked) {
  util::Prng rng(10);
  const auto repeat = test::random_dna(rng, 250);
  seq::FragmentStore store;
  for (int i = 0; i < 20; ++i) store.add(repeat);
  // Half-repeat half-unique reads survive with masking.
  for (int i = 0; i < 10; ++i) {
    std::vector<seq::Code> r(repeat.begin(), repeat.begin() + 100);
    const auto uniq = test::random_dna(rng, 200);
    r.insert(r.end(), uniq.begin(), uniq.end());
    store.add(r);
  }
  PreprocessParams params;
  params.repeat.sample_fraction = 1.0;
  params.max_masked_fraction = 0.6;
  const auto result = preprocess::preprocess(store, {}, params);
  ASSERT_EQ(result.store.size(), result.unmasked_store.size());
  ASSERT_EQ(result.store.size(), result.kept_ids.size());
  std::uint64_t masked_bases = 0, unmasked_bases = 0;
  for (seq::FragmentId id = 0; id < result.store.size(); ++id) {
    EXPECT_EQ(result.store.length(id), result.unmasked_store.length(id));
    masked_bases += result.store.length(id) -
                    static_cast<std::uint64_t>(
                        result.store.masked_fraction(id) *
                        result.store.length(id) + 0.5);
    unmasked_bases += result.unmasked_store.length(id);
    EXPECT_DOUBLE_EQ(result.unmasked_store.masked_fraction(id), 0.0);
  }
  EXPECT_GT(result.stats.masked_bases, 0u);
}

TEST(Preprocess, Table2ShapeGeneEnrichedSurvivesShotgunDoesNot) {
  // The paper's Table 2 effect: on a repeat-rich genome, most WGS reads are
  // invalidated by repeat masking while gene-enriched (MF/HC) reads
  // largely survive.
  const auto g = sim::simulate_genome(sim::maize_like(150'000, 33));
  util::Prng rng(11);
  sim::ReadSet rs;
  sim::ReadParams rp;
  rp.len_mean = 400;
  rp.len_spread = 50;
  rp.vector_contam_prob = 0.02;
  sim::sample_wgs(rs, g, 1.0, rp, rng);
  sim::sample_gene_enriched(rs, g, 300, 0.95, rp, rng, seq::FragType::kMF);

  PreprocessParams params;
  params.repeat.sample_fraction = 1.0;  // our test project is only ~1X deep
  params.max_masked_fraction = 0.5;
  const auto result =
      preprocess::preprocess(rs.store, sim::vector_library(), params);

  const auto& wgs = result.stats.by_type.at(seq::FragType::kWGS);
  const auto& mf = result.stats.by_type.at(seq::FragType::kMF);
  const double wgs_survival = static_cast<double>(wgs.fragments_after) /
                              static_cast<double>(wgs.fragments_before);
  const double mf_survival = static_cast<double>(mf.fragments_after) /
                             static_cast<double>(mf.fragments_before);
  EXPECT_LT(wgs_survival, 0.65);
  EXPECT_GT(mf_survival, 0.6);
  EXPECT_GT(mf_survival, wgs_survival + 0.25);
}

TEST(Preprocess, MaskingAblationSwitch) {
  util::Prng rng(13);
  const auto repeat = test::random_dna(rng, 300);
  seq::FragmentStore store;
  for (int i = 0; i < 30; ++i) store.add(repeat);
  PreprocessParams params;
  params.repeat.sample_fraction = 1.0;
  params.mask_repeats = false;
  const auto result = preprocess::preprocess(store, {}, params);
  EXPECT_EQ(result.stats.masked_bases, 0u);
  EXPECT_EQ(result.store.size(), 30u);
}

// --- Golden output --------------------------------------------------------
//
// One FNV-1a hash over everything preprocess() returns: both stores (codes,
// type, name, qualities), kept_ids and every PreprocessStats field. The
// hashes were recorded with the per-position canonical_kmer / hash-table
// implementation, so any change to the k-mer layer must keep the output
// byte for byte.

struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  }
};

void hash_store(Fnv& f, const seq::FragmentStore& s) {
  f.add(s.size());
  for (seq::FragmentId id = 0; id < s.size(); ++id) {
    f.add(static_cast<std::uint64_t>(s.type(id)));
    f.add(s.length(id));
    for (const seq::Code c : s.seq(id)) f.add(c);
    for (const std::uint8_t q : s.quality(id)) f.add(q);
    for (const char c : s.name(id)) f.add(static_cast<unsigned char>(c));
  }
}

std::uint64_t output_hash(const preprocess::PreprocessResult& r) {
  Fnv f;
  hash_store(f, r.store);
  hash_store(f, r.unmasked_store);
  for (const std::uint32_t id : r.kept_ids) f.add(id);
  const auto& st = r.stats;
  for (const auto& [type, ts] : st.by_type) {
    f.add(static_cast<std::uint64_t>(type));
    for (std::uint64_t v : {ts.fragments_before, ts.bases_before,
                            ts.fragments_after, ts.bases_after})
      f.add(v);
  }
  for (std::uint64_t v :
       {st.quality_trimmed_bases, st.vector_trimmed_bases, st.masked_bases,
        st.discarded_short, st.discarded_masked,
        static_cast<std::uint64_t>(st.repetitive_kmers),
        st.repeat_spectrum_fingerprint})
    f.add(v);
  return f.h;
}

// A wgs-like 8X shotgun run with vector contamination, qualities and masked
// runs (restarts for the k-mer scan), sampled at 1/8 like perfbench's wgs.
preprocess::PreprocessResult golden_wgs() {
  const auto g = sim::simulate_genome(sim::shotgun_like(60'000, 205));
  util::Prng rng(206);
  sim::ReadSet rs;
  sim::sample_wgs(rs, g, 8.0, {.len_mean = 550, .len_spread = 120}, rng);
  for (seq::FragmentId id = 0; id < rs.store.size(); ++id) {
    if (!rng.chance(0.2)) continue;
    const std::uint32_t len = rs.store.length(id);
    const auto at = static_cast<std::uint32_t>(rng.below(len));
    rs.store.mask(id, at, std::min(len, at + 1 + static_cast<std::uint32_t>(
                                                     rng.below(20))));
  }
  PreprocessParams params;
  params.repeat.sample_fraction = 1.0 / 8.0;
  return preprocess::preprocess(rs.store, sim::vector_library(), params);
}

// A maize-like repeat-rich genome sampled by MF, HC, BAC and WGS, with the
// full sample perfbench's maize workload uses.
preprocess::PreprocessResult golden_maize() {
  constexpr std::uint64_t kGenome = 90'000;
  const auto g = sim::simulate_genome(sim::maize_like(kGenome, 2006));
  util::Prng rng(2007);
  sim::ReadSet rs;
  const sim::ReadParams rp{.len_mean = 650, .len_spread = 150};
  sim::sample_gene_enriched(rs, g, kGenome / 900, 0.90, rp, rng,
                            seq::FragType::kMF);
  sim::sample_gene_enriched(rs, g, kGenome / 900, 0.85, rp, rng,
                            seq::FragType::kHC);
  sim::sample_bac(rs, g, 3, kGenome / 15, 0.6, rp, rng);
  sim::sample_wgs(rs, g, 1.0, rp, rng);
  PreprocessParams params;
  params.repeat.sample_fraction = 1.0;
  return preprocess::preprocess(rs.store, sim::vector_library(), params);
}

TEST(Preprocess, GoldenOutput) {
  const auto wgs = golden_wgs();
  const auto maize = golden_maize();
  // Non-trivial inputs: every stage changes something.
  EXPECT_GT(wgs.stats.vector_trimmed_bases, 0u);
  EXPECT_GT(wgs.stats.quality_trimmed_bases, 0u);
  EXPECT_GT(maize.stats.masked_bases, 0u);
  EXPECT_GT(maize.stats.discarded_masked, 0u);
  EXPECT_EQ(output_hash(wgs), 16395549102635686475ull);
  EXPECT_EQ(output_hash(maize), 818748654739186077ull);
}

}  // namespace
}  // namespace pgasm
