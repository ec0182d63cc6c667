// Fuzz harness: the banded overlap kernel against its scalar reference.
//
// Input layout: byte 0 picks a scoring, byte 1 is the band, bytes 2-3 the
// shift (folded onto the band's positions relative to the matrix), byte 4
// where the rest splits into a and b. Each remaining byte is one code:
// mostly bases, plus kMask and an out-of-alphabet code. Property (abort on
// violation): banded_overlap_align through one long-lived dirty Workspace
// equals banded_overlap_align_reference in every result field, ops and
// overlap type included.
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "align/overlap.hpp"
#include "align/workspace.hpp"
#include "fuzz_driver.hpp"

namespace {

using pgasm::align::OverlapResult;
using pgasm::align::Scoring;
using pgasm::seq::Code;

constexpr std::size_t kHeader = 5;
constexpr std::size_t kMaxCodes = 4096;

// Default, unit, heavy, one that forces 32-bit lanes on any length, and
// one with rewarded gaps.
const Scoring kScorings[] = {Scoring{}, Scoring{1, -1, -1}, Scoring{5, -4, -7},
                             Scoring{4, -5000, -6}, Scoring{3, -1, 1}};

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "fuzz_banded property violated: %s\n", what);
    std::abort();
  }
}

Code code_of(std::uint8_t byte) {
  const unsigned c = byte % 8u;
  if (c < 6) return static_cast<Code>(c % 4);
  return c == 6 ? pgasm::seq::kMask : Code{0xFF};
}

/// A seed input: b repeats a's suffix from `start`, and the band is centred
/// on that overlap's diagonal.
std::vector<std::uint8_t> overlap_seed(std::uint8_t scoring,
                                       std::uint8_t band, std::size_t la,
                                       std::size_t start) {
  const std::size_t raw = la - start + band + 1;  // shift −start, unfolded
  std::vector<std::uint8_t> in{scoring, band,
                               static_cast<std::uint8_t>(raw & 0xFF),
                               static_cast<std::uint8_t>(raw >> 8), 128};
  std::vector<std::uint8_t> a(la);
  for (std::size_t i = 0; i < la; ++i) {
    a[i] = static_cast<std::uint8_t>((i * 7 + i / 3) % 6);
  }
  in.insert(in.end(), a.begin(), a.end());
  in.insert(in.end(), a.begin() + static_cast<std::ptrdiff_t>(start),
            a.end());
  in.resize(kHeader + 2 * la, 3);
  return in;
}

}  // namespace

std::vector<std::vector<std::uint8_t>> pgasm_fuzz_seeds() {
  std::vector<std::vector<std::uint8_t>> seeds;
  seeds.push_back(overlap_seed(0, 12, 120, 40));
  seeds.push_back(overlap_seed(1, 56, 200, 10));
  seeds.push_back(overlap_seed(3, 8, 64, 60));
  seeds.push_back(overlap_seed(4, 17, 90, 0));
  seeds.push_back({2, 0, 0, 0, 0});
  seeds.push_back({0, 1, 255, 255, 255, 6, 7});
  return seeds;
}

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size < kHeader) return 0;
  const Scoring& sc = kScorings[data[0] % std::size(kScorings)];
  const std::uint32_t band = data[1];
  const std::size_t n = std::min(size - kHeader, kMaxCodes);
  const std::size_t la = n * data[4] / 256;
  std::vector<Code> a, b;
  for (std::size_t i = 0; i < n; ++i) {
    (i < la ? a : b).push_back(code_of(data[kHeader + i]));
  }
  // Shifts from a band wholly below the matrix to one wholly above it.
  const auto reach = static_cast<std::int64_t>(n + 2 * band + 3);
  const auto raw = static_cast<std::int64_t>(data[2] | (data[3] << 8));
  const auto shift = static_cast<std::int32_t>(
      raw % reach - static_cast<std::int64_t>(la + band + 1));

  static pgasm::align::Workspace ws;  // dirty across every input
  const pgasm::align::AlignOptions keep{.keep_ops = true};
  const OverlapResult got =
      pgasm::align::banded_overlap_align(a, b, sc, shift, band, ws, keep);
  const OverlapResult want =
      pgasm::align::banded_overlap_align_reference(a, b, sc, shift, band, keep);
  check(got.aln.score == want.aln.score, "score differs");
  check(got.aln.a_begin == want.aln.a_begin && got.aln.a_end == want.aln.a_end,
        "a region differs");
  check(got.aln.b_begin == want.aln.b_begin && got.aln.b_end == want.aln.b_end,
        "b region differs");
  check(got.aln.matches == want.aln.matches, "matches differ");
  check(got.aln.columns == want.aln.columns, "columns differ");
  check(got.aln.ops == want.aln.ops, "ops differ");
  check(got.type == want.type, "overlap type differs");
  return 0;
}
