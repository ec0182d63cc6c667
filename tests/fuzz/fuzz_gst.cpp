// Fuzz harness: GST construction and promising-pair generation against
// brute force, serial against bucketed.
//
// Input layout: byte 0 picks ψ (1..16), byte 1 the bucket prefix w
// (1..min(ψ, 4)). The rest is a list of ops that build a small store; each
// op byte's top two bits pick the op and its low six bits are its argument:
//   0  new fragment of 1 + arg codes, one base per following byte;
//   1  identical copy of the fragment the next byte picks;
//   2  slice of 1 + arg codes of the fragment the next byte picks, starting
//      where the byte after it says;
//   3  mask a run of 1 + arg % 8 codes in the last fragment, starting
//      where the next byte says.
// The store is doubled (forward + reverse complement), as the pipeline does.
// Properties (abort on violation):
//   * check_invariants() holds on the serial tree and on the bucketed one;
//   * the dup_elim = false pair set of each tree is exactly the brute-force
//     set of maximal matches of length >= ψ;
//   * with buckets in prefix order, both trees emit the same dup_elim
//     stream, pair for pair.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <vector>

#include "fuzz_driver.hpp"
#include "gst/pair_generator.hpp"
#include "gst/suffix_tree.hpp"
#include "test_helpers.hpp"

namespace {

namespace gst = pgasm::gst;
namespace seq = pgasm::seq;

constexpr std::size_t kHeader = 2;
constexpr std::size_t kMaxFragments = 10;
constexpr std::size_t kMaxCodes = 320;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "fuzz_gst property violated: %s\n", what);
    std::abort();
  }
}

/// Decodes the op list; stops at the first op whose bytes run out or that
/// would pass the size caps.
seq::FragmentStore decode_store(const std::uint8_t* data, std::size_t size) {
  std::vector<std::vector<seq::Code>> frags;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> masks;  // [at, end)
  std::size_t codes = 0, i = 0;
  const auto take = [&](std::uint8_t& b) {
    if (i >= size) return false;
    b = data[i++];
    return true;
  };
  std::uint8_t op = 0;
  while (take(op)) {
    const std::uint32_t arg = op & 63u;
    std::vector<seq::Code> frag;
    std::uint8_t b = 0, c = 0;
    switch (op >> 6) {
      case 0:
        for (std::uint32_t k = 0; k <= arg && take(b); ++k)
          frag.push_back(static_cast<seq::Code>(b % 4));
        break;
      case 1:
        if (frags.empty() || !take(b)) break;
        frag = frags[b % frags.size()];
        break;
      case 2: {
        if (frags.empty() || !take(b) || !take(c)) break;
        const auto& src = frags[b % frags.size()];
        const std::size_t at = c % src.size();
        const std::size_t n = std::min<std::size_t>(1 + arg, src.size() - at);
        frag.assign(src.begin() + static_cast<std::ptrdiff_t>(at),
                    src.begin() + static_cast<std::ptrdiff_t>(at + n));
        break;
      }
      default:
        if (frags.empty() || !take(b)) break;
        {
          const auto len = static_cast<std::uint32_t>(frags.back().size());
          const std::uint32_t at = b % len;
          masks.resize(frags.size());
          masks.back() = {at, std::min(len, at + 1 + arg % 8)};
        }
        continue;
    }
    if (frag.empty() || frags.size() == kMaxFragments ||
        codes + frag.size() > kMaxCodes)
      break;
    codes += frag.size();
    frags.push_back(std::move(frag));
  }
  seq::FragmentStore store;
  for (const auto& f : frags) store.add(f);
  for (std::uint32_t id = 0; id < masks.size(); ++id) {
    if (masks[id].first < masks[id].second)
      store.mask(id, masks[id].first, masks[id].second);
  }
  return store;
}

std::set<pgasm::test::MaxMatch> suffix_level(const gst::SuffixTree& tree) {
  std::set<pgasm::test::MaxMatch> got;
  for (const auto& p :
       gst::PairGenerator::generate_all(tree, {.dup_elim = false})) {
    const bool fresh =
        got.insert({p.seq_a, p.pos_a, p.seq_b, p.pos_b, p.match_len}).second;
    check(fresh, "maximal match emitted twice");
  }
  return got;
}

/// Seed input: op bytes for a fragment with `n` codes taken from `pattern`.
void add_fragment(std::vector<std::uint8_t>& in, std::size_t n,
                  std::size_t pattern) {
  in.push_back(static_cast<std::uint8_t>(n - 1));
  for (std::size_t k = 0; k < n; ++k)
    in.push_back(static_cast<std::uint8_t>((k * pattern + k / 5) % 7));
}

}  // namespace

std::vector<std::vector<std::uint8_t>> pgasm_fuzz_seeds() {
  std::vector<std::vector<std::uint8_t>> seeds;
  // Overlapping reads, an identical copy and a masked run.
  std::vector<std::uint8_t> reads{7, 2};
  add_fragment(reads, 60, 3);
  reads.insert(reads.end(), {0x80 | 40, 0, 20, 0x40, 0, 0xC0 | 5, 30});
  add_fragment(reads, 25, 5);
  seeds.push_back(reads);
  // Fragments shorter than a word, and slices of them.
  std::vector<std::uint8_t> shorts{0, 0};
  for (std::size_t n = 1; n <= 7; ++n) add_fragment(shorts, n, 1);
  shorts.insert(shorts.end(), {0x80 | 4, 6, 0, 0x40, 3});
  seeds.push_back(shorts);
  // One long repeat in several copies, with a large ψ.
  std::vector<std::uint8_t> repeats{15, 3};
  add_fragment(repeats, 64, 2);
  repeats.insert(repeats.end(), {0x40, 0, 0x80 | 50, 0, 9, 0x80 | 33, 1, 30,
                                 0xC0 | 2, 12});
  seeds.push_back(repeats);
  seeds.push_back({});
  return seeds;
}

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size < kHeader) return 0;
  const std::uint32_t psi = 1 + data[0] % 16u;
  const std::uint32_t w = 1 + data[1] % std::min(psi, 4u);
  const seq::FragmentStore store =
      seq::make_doubled_store(decode_store(data + kHeader, size - kHeader));

  const gst::SuffixTree serial(store, {.min_match = psi, .prefix_w = 0});
  // Buckets in prefix order: the serial tree lays them out the same way.
  auto suffixes = gst::enumerate_suffixes(store, psi);
  std::stable_sort(suffixes.begin(), suffixes.end(),
                   [&](const gst::Suffix& a, const gst::Suffix& b) {
                     return gst::bucket_of(store, a, w) <
                            gst::bucket_of(store, b, w);
                   });
  std::vector<std::uint32_t> begins;
  for (std::uint32_t i = 0; i < suffixes.size(); ++i) {
    if (i == 0 || gst::bucket_of(store, suffixes[i], w) !=
                      gst::bucket_of(store, suffixes[i - 1], w))
      begins.push_back(i);
  }
  const gst::SuffixTree bucketed(store, std::move(suffixes), begins, w,
                                 {.min_match = psi, .prefix_w = w});
  check(serial.check_invariants().empty(), "serial tree invariants");
  check(bucketed.check_invariants().empty(), "bucketed tree invariants");

  const auto expected = pgasm::test::brute_force_maximal_matches(store, psi);
  check(suffix_level(serial) == expected, "serial suffix-level pair set");
  check(suffix_level(bucketed) == expected, "bucketed suffix-level pair set");

  const gst::PairGenParams elim{.doubled_input = true};
  check(gst::PairGenerator::generate_all(serial, elim) ==
            gst::PairGenerator::generate_all(bucketed, elim),
        "serial and bucketed dup_elim streams differ");
  return 0;
}
