// The k-mer layer of preprocessing (paper Section 8): one rolling scan per
// read, and one flat set type for both the repetitive spectrum and the
// vector screen.
//
// A canonical k-mer is min(forward code, reverse-complement code) of a
// window of k unmasked bases, two bits per base (RepeatMasker::canonical_kmer
// is the per-window definition). for_each_canonical_kmer rolls both codes in
// O(1) per base instead of rebuilding every window from scratch.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "seq/alphabet.hpp"

namespace pgasm::preprocess {

/// Throws std::invalid_argument naming `what` unless 1 <= k <= 32: a key
/// packs k bases into 64 bits, so k > 32 would shift past the word and
/// alias keys, and k = 0 would give every position key 0.
void validate_kmer_length(std::uint32_t k, const char* what);

/// Calls fn(pos, key) for every window text[pos, pos + k) of unmasked
/// bases, in ascending pos, with its canonical key: exactly the (pos, key)
/// pairs RepeatMasker::canonical_kmer accepts. A masked base restarts the
/// roll. Requires 1 <= k <= 32.
template <typename Fn>
void for_each_canonical_kmer(std::span<const seq::Code> text, std::uint32_t k,
                             Fn&& fn) {
  const std::uint64_t mask = k == 32 ? ~0ull : (1ull << (2 * k)) - 1;
  const std::uint32_t top = 2 * (k - 1);
  std::uint64_t fwd = 0, rev = 0;
  std::uint32_t run = 0;  // unmasked bases ending at i, capped at k
  const auto n = static_cast<std::uint32_t>(text.size());
  for (std::uint32_t i = 0; i < n; ++i) {
    const seq::Code c = text[i];
    if (!seq::is_base(c)) {
      run = 0;
      continue;
    }
    fwd = ((fwd << 2) | c) & mask;
    rev = (rev >> 2) | (static_cast<std::uint64_t>(seq::complement(c)) << top);
    if (run < k) ++run;
    if (run == k) fn(i + 1 - k, std::min(fwd, rev));
  }
}

/// A set of k-mer keys: a sorted unique vector behind a one-hash bitmap
/// prefilter of 64 to 128 bits per key. A miss, the common case when masking
/// or screening, almost always costs one bit test; a hit, or one of the ~1%
/// misses that pass the filter, costs one binary search.
class KmerSet {
 public:
  KmerSet() = default;
  /// The set of `keys`, given in any order and with duplicates.
  explicit KmerSet(std::vector<std::uint64_t> keys);

  /// Adds `keys`, given in any order and with duplicates.
  void insert(std::span<const std::uint64_t> keys);

  bool contains(std::uint64_t key) const noexcept {
    const std::uint64_t h = (key * kHashMul) >> filter_shift_;
    // The empty set's filter has no bit set, so keys_ is non-empty below.
    if (!((filter_[h >> 6] >> (h & 63)) & 1u)) return false;
    // Branch-free lower bound: each step's direction is unpredictable.
    const std::uint64_t* base = keys_.data();
    std::size_t len = keys_.size();
    while (len > 1) {
      const std::size_t half = len / 2;
      base += (base[half - 1] < key) ? half : 0;
      len -= half;
    }
    return *base == key;
  }

  bool empty() const noexcept { return keys_.empty(); }
  std::size_t size() const noexcept { return keys_.size(); }
  /// The keys in ascending order.
  const std::vector<std::uint64_t>& keys() const noexcept { return keys_; }

 private:
  static constexpr std::uint64_t kHashMul = 0x9E3779B97F4A7C15ull;

  void sort_and_index();

  std::vector<std::uint64_t> keys_;
  std::vector<std::uint64_t> filter_ = {0};  // 64 clear bits: rejects all
  std::uint32_t filter_shift_ = 58;          // 64 - log2(filter bits)
};

}  // namespace pgasm::preprocess
