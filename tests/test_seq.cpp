// Tests for seq: alphabet, reverse complement, FragmentStore, FASTA I/O.
#include <gtest/gtest.h>

#include <sstream>

#include "seq/fasta.hpp"
#include "seq/fastq.hpp"
#include "seq/fragment_store.hpp"
#include "test_helpers.hpp"

namespace pgasm {
namespace {

TEST(Alphabet, EncodeDecode) {
  EXPECT_EQ(seq::encode_char('A'), seq::kA);
  EXPECT_EQ(seq::encode_char('C'), seq::kC);
  EXPECT_EQ(seq::encode_char('G'), seq::kG);
  EXPECT_EQ(seq::encode_char('T'), seq::kT);
  EXPECT_EQ(seq::encode_char('N'), seq::kMask);
  EXPECT_EQ(seq::encode_char('a'), seq::kMask);  // soft-masked
  EXPECT_EQ(seq::encode_char('x'), seq::kMask);
  EXPECT_EQ(seq::decode(seq::encode("ACGTN")), "ACGTN");
}

TEST(Alphabet, ComplementPairs) {
  EXPECT_EQ(seq::complement(seq::kA), seq::kT);
  EXPECT_EQ(seq::complement(seq::kT), seq::kA);
  EXPECT_EQ(seq::complement(seq::kC), seq::kG);
  EXPECT_EQ(seq::complement(seq::kG), seq::kC);
  EXPECT_EQ(seq::complement(seq::kMask), seq::kMask);
}

TEST(Alphabet, ReverseComplementKnown) {
  const auto codes = seq::encode("AACGT");
  EXPECT_EQ(seq::decode(seq::reverse_complement(codes)), "ACGTT");
}

class RevCompProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RevCompProperty, IsInvolution) {
  util::Prng rng(GetParam());
  const auto s = test::random_dna(rng, 50 + rng.below(200), 0.05);
  EXPECT_EQ(seq::reverse_complement(seq::reverse_complement(s)), s);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RevCompProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(FragmentStore, BasicAccessors) {
  seq::FragmentStore store;
  const auto id0 = store.add_ascii("ACGT", seq::FragType::kWGS, "r0");
  const auto id1 = store.add_ascii("GGGTTTAA", seq::FragType::kMF, "r1");
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.total_length(), 12u);
  EXPECT_EQ(store.length(id0), 4u);
  EXPECT_EQ(store.length(id1), 8u);
  EXPECT_EQ(store.to_ascii(id0), "ACGT");
  EXPECT_EQ(store.to_ascii(id1), "GGGTTTAA");
  EXPECT_EQ(store.type(id0), seq::FragType::kWGS);
  EXPECT_EQ(store.name(id1), "r1");
  EXPECT_EQ(store.max_length(), 8u);
  EXPECT_EQ(store.count_of_type(seq::FragType::kMF), 1u);
  EXPECT_EQ(store.total_length_of_type(seq::FragType::kWGS), 4u);
}

TEST(FragmentStore, MaskingAndFractions) {
  seq::FragmentStore store;
  store.add_ascii("ACGTACGTAC");
  store.mask(0, 2, 6);
  EXPECT_EQ(store.to_ascii(0), "ACNNNNGTAC");
  EXPECT_DOUBLE_EQ(store.masked_fraction(0), 0.4);
  EXPECT_EQ(store.unmasked_length(), 6u);
}

TEST(FragmentStore, TextSeparatesFragmentsWithMasks) {
  seq::FragmentStore store;
  EXPECT_TRUE(store.text().empty());
  EXPECT_EQ(store.total_length(), 0u);
  store.add_ascii("ACG");
  store.add_ascii("");
  store.add_ascii("TN");
  // Codes outside A, C, G, T, kMask are stored as kMask.
  store.add(std::vector<seq::Code>{0, 7, 3});
  const std::vector<seq::Code> want{4, 0, 1, 2, 4, 4, 3, 4, 4, 0, 4, 3, 4};
  EXPECT_EQ(std::vector<seq::Code>(store.text().begin(), store.text().end()),
            want);
  EXPECT_EQ(store.total_length(), 8u);
  EXPECT_EQ(store.unmasked_length(), 6u);
  const std::uint32_t offsets[] = {1, 5, 6, 9};
  for (std::uint32_t id = 0; id < store.size(); ++id) {
    EXPECT_EQ(store.offset(id), offsets[id]);
    EXPECT_EQ(store.seq(id).data(), store.text().data() + offsets[id]);
    // Each code and the separator after it map back to the fragment.
    for (std::uint32_t k = 0; k <= store.length(id); ++k) {
      EXPECT_EQ(store.id_at(offsets[id] + k), id) << "offset " << k;
    }
  }

  // Qualities keep their per-fragment meaning; separators have none.
  seq::FragmentStore with_qual;
  const std::vector<std::uint8_t> q0{30, 31, 32}, q1{40, 41};
  with_qual.add(seq::encode("ACG"), seq::FragType::kWGS, "a", q0);
  with_qual.add(seq::encode("TT"), seq::FragType::kWGS, "b", q1);
  const auto qual = [&](std::uint32_t id) {
    const auto q = with_qual.quality(id);
    return std::vector<std::uint8_t>(q.begin(), q.end());
  };
  EXPECT_EQ(qual(0), q0);
  EXPECT_EQ(qual(1), q1);
}

TEST(FragmentStore, QualityMismatchesAreRejected) {
  const std::vector<std::uint8_t> q2{30, 31};
  seq::FragmentStore with_qual;
  with_qual.add(seq::encode("AC"), seq::FragType::kWGS, "a", q2);
  EXPECT_THROW(with_qual.add(seq::encode("AC")), std::invalid_argument);
  EXPECT_THROW(with_qual.add(seq::encode("ACG"), seq::FragType::kWGS, "b", q2),
               std::invalid_argument);
  seq::FragmentStore without;
  without.add(seq::encode("AC"));
  EXPECT_THROW(without.add(seq::encode("AC"), seq::FragType::kWGS, "b", q2),
               std::invalid_argument);
  // An empty fragment carries no qualities and fits either store.
  with_qual.add({});
  without.add({});
  EXPECT_EQ(with_qual.size(), 2u);
  EXPECT_EQ(without.size(), 2u);
  EXPECT_TRUE(with_qual.has_quality());
  EXPECT_FALSE(without.has_quality());
}

TEST(FragmentStore, IdAtAcrossIndexBlocks) {
  // Fragments from empty to several index blocks long, so blocks start
  // inside fragments, on separators, and hold many short fragments.
  util::Prng rng(12);
  seq::FragmentStore store;
  for (int i = 0; i < 300; ++i) {
    const std::size_t len = i % 7 == 0   ? rng.below(3)
                            : i % 5 == 0 ? 1500 + rng.below(3000)
                                         : rng.below(400);
    store.add(test::random_dna(rng, len));
  }
  ASSERT_GT(store.text().size(), 8u * seq::FragmentStore::kIdBlock);
  seq::FragmentId want = 0;
  for (std::uint32_t off = 1; off < store.text().size(); ++off) {
    while (want + 1 < store.size() && store.offset(want + 1) <= off) ++want;
    ASSERT_EQ(store.id_at(off), want) << "offset " << off;
  }
}

TEST(FragmentStore, TextSizeLimitIsAPurePredicate) {
  // A suffix is a u32 offset into the text, so the text holds at most 2^32
  // codes: every fragment's codes, one separator each and a leading one.
  using Store = seq::FragmentStore;
  constexpr std::uint64_t kMax = std::uint64_t{1} << 32;
  static_assert(Store::kMaxTextCodes == kMax);
  EXPECT_TRUE(Store::text_fits(0, 0));
  EXPECT_TRUE(Store::text_fits(1, kMax - 2));
  EXPECT_FALSE(Store::text_fits(1, kMax - 1));
  EXPECT_TRUE(Store::text_fits(kMax - 1, 0));
  EXPECT_FALSE(Store::text_fits(kMax, 0));
  EXPECT_TRUE(Store::text_fits(1000, kMax - 1001));
  EXPECT_FALSE(Store::text_fits(1000, kMax - 1000));
  // No wrap-around on absurd sizes.
  EXPECT_FALSE(Store::text_fits(~std::uint64_t{0}, 2));
  EXPECT_FALSE(Store::text_fits(2, ~std::uint64_t{0}));
}

TEST(FragmentStore, DoubledStoreLayout) {
  seq::FragmentStore store;
  store.add_ascii("AACG");
  store.add_ascii("TTGC");
  const auto doubled = seq::make_doubled_store(store);
  ASSERT_EQ(doubled.size(), 4u);
  EXPECT_EQ(doubled.to_ascii(0), "AACG");
  EXPECT_EQ(doubled.to_ascii(1), "CGTT");  // revcomp of AACG
  EXPECT_EQ(doubled.to_ascii(2), "TTGC");
  EXPECT_EQ(doubled.to_ascii(3), "GCAA");
}

TEST(Fasta, RoundTrip) {
  seq::FragmentStore store;
  store.add_ascii("ACGTACGTACGT", seq::FragType::kWGS, "alpha");
  store.add_ascii("GGGG", seq::FragType::kMF, "beta");
  std::ostringstream out;
  seq::write_fasta(out, store, {.line_width = 5, .emit_type_token = true});

  seq::FragmentStore back;
  std::istringstream in(out.str());
  const auto n = seq::read_fasta(in, back);
  ASSERT_EQ(n, 2u);
  EXPECT_EQ(back.to_ascii(0), "ACGTACGTACGT");
  EXPECT_EQ(back.name(0), "alpha");
  EXPECT_EQ(back.type(0), seq::FragType::kWGS);
  EXPECT_EQ(back.type(1), seq::FragType::kMF);
}

TEST(Fasta, HandlesWindowsLineEndingsAndBlankLines) {
  std::istringstream in(">x\r\nACGT\r\n\r\nGG\r\n>y\r\nTT\r\n");
  seq::FragmentStore store;
  ASSERT_EQ(seq::read_fasta(in, store), 2u);
  EXPECT_EQ(store.to_ascii(0), "ACGTGG");
  EXPECT_EQ(store.to_ascii(1), "TT");
}

TEST(Fasta, RejectsDataBeforeHeader) {
  std::istringstream in("ACGT\n>x\nACGT\n");
  seq::FragmentStore store;
  EXPECT_THROW(seq::read_fasta(in, store), std::runtime_error);
}

TEST(Fasta, MapsAmbiguityToMask) {
  std::istringstream in(">x\nACRYGT\n");
  seq::FragmentStore store;
  seq::read_fasta(in, store);
  EXPECT_EQ(store.to_ascii(0), "ACNNGT");
}

TEST(Fastq, RoundTrip) {
  seq::FragmentStore store;
  const auto codes = seq::encode("ACGTACGT");
  const std::vector<std::uint8_t> qual = {2, 10, 20, 30, 40, 50, 60, 5};
  store.add(codes, seq::FragType::kWGS, "readA", qual);
  std::ostringstream out;
  seq::write_fastq(out, store);

  seq::FragmentStore back;
  std::istringstream in(out.str());
  ASSERT_EQ(seq::read_fastq(in, back), 1u);
  EXPECT_EQ(back.to_ascii(0), "ACGTACGT");
  EXPECT_EQ(back.name(0), "readA");
  ASSERT_TRUE(back.has_quality());
  const auto q = back.quality(0);
  EXPECT_TRUE(std::equal(q.begin(), q.end(), qual.begin()));
}

TEST(Fastq, NoQualityStoreWritesDefault) {
  seq::FragmentStore store;
  store.add_ascii("ACGT");
  std::ostringstream out;
  seq::write_fastq(out, store, {.default_quality = 40});
  const std::string expected_quals(4, static_cast<char>(33 + 40));
  EXPECT_NE(out.str().find(expected_quals), std::string::npos);
}

TEST(Fastq, MalformedInputs) {
  seq::FragmentStore store;
  {
    std::istringstream in("ACGT\n");  // missing '@'
    EXPECT_THROW(seq::read_fastq(in, store), std::runtime_error);
  }
  {
    std::istringstream in("@r\nACGT\nIIII\n");  // missing '+'
    EXPECT_THROW(seq::read_fastq(in, store), std::runtime_error);
  }
  {
    std::istringstream in("@r\nACGT\n+\nII\n");  // length mismatch
    EXPECT_THROW(seq::read_fastq(in, store), std::runtime_error);
  }
  {
    std::istringstream in("@r\nACGT\n+\n");  // truncated
    EXPECT_THROW(seq::read_fastq(in, store), std::runtime_error);
  }
}

TEST(Fastq, QualityClampAndCrlf) {
  seq::FragmentStore store;
  std::istringstream in("@r desc\r\nAC\r\n+\r\n~~\r\n");  // '~' = phred 93
  ASSERT_EQ(seq::read_fastq(in, store), 1u);
  EXPECT_EQ(store.name(0), "r");
  EXPECT_EQ(store.quality(0)[0], 60);  // clamped
}

/// Reads `fastq`, whose records are named and hold `bases` and `quals`
/// (Phred values), and expects it to write back unchanged.
void expect_fastq_round_trip(const std::string& fastq,
                             const std::vector<std::string>& bases,
                             const std::vector<std::vector<std::uint8_t>>& quals) {
  seq::FragmentStore store;
  std::istringstream in(fastq);
  ASSERT_EQ(seq::read_fastq(in, store), bases.size());
  ASSERT_TRUE(store.has_quality());
  for (std::uint32_t id = 0; id < store.size(); ++id) {
    EXPECT_EQ(store.to_ascii(id), bases[id]) << "read " << id;
    const auto q = store.quality(id);
    EXPECT_EQ(std::vector<std::uint8_t>(q.begin(), q.end()), quals[id])
        << "read " << id;
  }
  std::ostringstream out;
  seq::write_fastq(out, store);
  EXPECT_EQ(out.str(), fastq);
}

TEST(Fastq, EmptyReadFirst) {
  expect_fastq_round_trip("@a\n\n+\n\n@b\nACGT\n+\nIIJ5\n@c\nGG\n+\n!#\n",
                          {"", "ACGT", "GG"}, {{}, {40, 40, 41, 20}, {0, 2}});
}

TEST(Fastq, EmptyReadInMiddle) {
  expect_fastq_round_trip("@a\nACGT\n+\nIIJ5\n@b\n\n+\n\n@c\nGG\n+\n!#\n",
                          {"ACGT", "", "GG"}, {{40, 40, 41, 20}, {}, {0, 2}});
}

}  // namespace
}  // namespace pgasm
