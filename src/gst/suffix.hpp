// Suffix enumeration for the generalized suffix tree.
//
// A suffix is one u32: the offset of its first code in the store's text
// (seq::FragmentStore::text()), which holds a kMask before the first
// sequence and after every sequence. Everything else about it follows from
// the text:
//   * its *effective length* runs to the next kMask. Masked symbols act as
//     hard breaks, so no exact match can span them (this is how repeat
//     masking keeps repeats from seeding promising pairs), and the
//     separators end every suffix at its sequence's end;
//   * its lset class is the code before it: λ for a kMask (the suffix
//     starts its fragment or follows a masked character), else 1 + base;
//   * its sequence is the store's FragmentStore::id_at(offset), and its
//     start position the offset minus that sequence's offset.
// Suffixes shorter than the minimum match cutoff ψ cannot carry a
// qualifying maximal match and are dropped at enumeration time — with
// w <= ψ this also guarantees every kept suffix has a full w-length bucket
// prefix for the parallel construction (Section 6).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "seq/fragment_store.hpp"

namespace pgasm::gst {

/// Character classes used by lsets: λ (suffix starts the fragment or is
/// preceded by a masked character) plus the four bases.
inline constexpr std::uint8_t kClassLambda = 0;
inline constexpr int kNumClasses = 5;  // λ, A, C, G, T

/// A suffix: the offset of its first code in the store's text.
using Suffix = std::uint32_t;

/// Rank of a text code: 0 for kMask, 1 + base for a base. It is the lset
/// class of a suffix that code precedes, and it orders an ended suffix
/// before every extension of it.
constexpr std::uint8_t code_rank(seq::Code c) noexcept {
  static_assert(seq::kMask == seq::kSigma, "kMask follows the four bases");
  return static_cast<std::uint8_t>(c == seq::kMask ? 0 : c + 1);
}

/// Preceding-character class of the suffix at text offset `s`.
inline std::uint8_t class_of(std::span<const seq::Code> text,
                             Suffix s) noexcept {
  return code_rank(text[s - 1]);
}

/// What a suffix stands for in (sequence, position) terms; tests and
/// invariant checks decode suffixes with it.
struct SuffixSite {
  std::uint32_t seq = 0;  ///< sequence id within the store
  std::uint32_t pos = 0;  ///< start position (0-based)
  std::uint32_t len = 0;  ///< effective length (to mask break / end)
  std::uint8_t cls = 0;   ///< preceding-character class (lset class)

  friend bool operator==(const SuffixSite&, const SuffixSite&) = default;
};

SuffixSite site_of(const seq::FragmentStore& store, Suffix s) noexcept;

/// Enumerate all suffixes of `store` with effective length >= min_len, in
/// ascending offset order. Positions inside masked runs are skipped.
std::vector<Suffix> enumerate_suffixes(const seq::FragmentStore& store,
                                       std::uint32_t min_len);

/// Same, restricted to sequence ids in [seq_begin, seq_end) — used by the
/// parallel construction where each rank owns a contiguous slice.
std::vector<Suffix> enumerate_suffixes_range(const seq::FragmentStore& store,
                                             std::uint32_t seq_begin,
                                             std::uint32_t seq_end,
                                             std::uint32_t min_len);

/// Bucket id of a suffix: the base-4 value of its first w characters.
/// Requires an effective length >= w (guaranteed by enumeration with
/// min_len >= w).
std::uint32_t bucket_of(const seq::FragmentStore& store, Suffix s,
                        std::uint32_t w) noexcept;

/// Number of buckets for prefix length w: 4^w.
constexpr std::uint32_t num_buckets(std::uint32_t w) noexcept {
  return 1u << (2 * w);
}

}  // namespace pgasm::gst
