// FragmentStore: the fragment collection every stage operates on.
//
// Sequences are stored as one concatenated code array with an offset table,
// mirroring the paper's space discipline (O(N) total characters; per-fragment
// overhead is a few words). The array holds a kMask before the first
// sequence and after every sequence, so a suffix is one u32 offset into it:
// its effective length runs to the next kMask and its lset class is the code
// before it (gst/suffix.hpp). Codes other than A, C, G, T are stored as
// kMask. Optional arrays hold per-base quality values (used by
// preprocessing) and a fragment type tag (MF / HC / BAC / WGS / ENV) used
// in the Table 2 style reporting.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "seq/alphabet.hpp"

namespace pgasm::seq {

using FragmentId = std::uint32_t;

/// Sequencing strategy that produced a fragment (paper Table 2).
enum class FragType : std::uint8_t {
  kWGS = 0,   ///< whole genome shotgun
  kMF = 1,    ///< methyl-filtrated (gene enriched)
  kHC = 2,    ///< High-C0t (gene enriched)
  kBAC = 3,   ///< BAC-derived (ends + internal sub-reads)
  kEnv = 4,   ///< environmental / metagenomic
  kUnknown = 5,
};

const char* frag_type_name(FragType t) noexcept;

class FragmentStore {
 public:
  FragmentStore() = default;

  /// The text holds at most this many codes, separators included: every
  /// offset into it is a u32.
  static constexpr std::uint64_t kMaxTextCodes =
      std::uint64_t{std::numeric_limits<std::uint32_t>::max()} + 1;

  /// Whether a store of `fragments` fragments holding `chars` codes in all
  /// fits its text: one separator per fragment plus the leading one.
  static constexpr bool text_fits(std::uint64_t fragments,
                                  std::uint64_t chars) noexcept {
    return fragments < kMaxTextCodes && chars < kMaxTextCodes &&
           chars + fragments + 1 <= kMaxTextCodes;
  }

  /// Append a fragment; returns its id. Quality may be empty (no qualities).
  /// The first non-empty fragment decides whether the store has qualities;
  /// a later non-empty fragment that differs throws std::invalid_argument.
  /// Throws std::length_error if the text would pass kMaxTextCodes.
  FragmentId add(std::span<const Code> codes, FragType type = FragType::kUnknown,
                 std::string name = {}, std::span<const std::uint8_t> qual = {});
  FragmentId add_ascii(std::string_view dna, FragType type = FragType::kUnknown,
                       std::string name = {});

  std::size_t size() const noexcept { return offsets_.size(); }
  bool empty() const noexcept { return offsets_.empty(); }

  /// Total number of characters across all fragments (the paper's N).
  std::uint64_t total_length() const noexcept {
    return text_.empty() ? 0 : text_.size() - size() - 1;
  }

  std::uint32_t length(FragmentId id) const noexcept {
    return lengths_[id];
  }

  std::span<const Code> seq(FragmentId id) const noexcept {
    return {text_.data() + offsets_[id], lengths_[id]};
  }

  /// Mutable view (preprocessing masks in place on a cloned store). Write
  /// only codes A, C, G, T or kMask: the suffix tree relies on kMask being
  /// the one code with bit 2 set.
  std::span<Code> mutable_seq(FragmentId id) noexcept {
    return {text_.data() + offsets_[id], lengths_[id]};
  }

  FragType type(FragmentId id) const noexcept { return types_[id]; }
  const std::string& name(FragmentId id) const noexcept { return names_[id]; }

  bool has_quality() const noexcept { return !qual_.empty(); }
  std::span<const std::uint8_t> quality(FragmentId id) const noexcept {
    if (qual_.empty()) return {};
    // qual_ holds no separators: fragment id starts id + 1 codes earlier.
    return {qual_.data() + offsets_[id] - id - 1, lengths_[id]};
  }

  /// The whole text: kMask, fragment 0, kMask, fragment 1, ..., kMask.
  /// Empty for an empty store.
  std::span<const Code> text() const noexcept { return text_; }

  /// Offset of fragment id's first code in text().
  std::uint32_t offset(FragmentId id) const noexcept { return offsets_[id]; }

  /// The fragment whose codes or trailing separator hold text offset `off`
  /// (0 < off < text().size()): the last id with offset(id) <= off. A
  /// block index gives the fragment at the start of off's block of kIdBlock
  /// codes; a scan then steps over the fragments that start inside the
  /// block before off, none or one on reads.
  FragmentId id_at(std::uint32_t off) const noexcept {
    FragmentId id = block_first_[off / kIdBlock];
    const auto last = static_cast<FragmentId>(offsets_.size() - 1);
    // The first step without a branch; further ones are rare on reads.
    id += id < last && offsets_[id + (id < last)] <= off;
    while (id < last && offsets_[id + 1] <= off) ++id;
    return id;
  }

  /// Codes per block of the id_at index: one u32 per block.
  static constexpr std::uint32_t kIdBlock = 1024;

  std::string to_ascii(FragmentId id) const;

  /// Mask positions [begin, end) of fragment id (set to kMask).
  void mask(FragmentId id, std::uint32_t begin, std::uint32_t end);

  /// Fraction of fragment id's positions currently masked.
  double masked_fraction(FragmentId id) const noexcept;

  /// Count of unmasked characters across all fragments.
  std::uint64_t unmasked_length() const noexcept;

  std::uint32_t max_length() const noexcept { return max_length_; }

  void reserve(std::size_t fragments, std::uint64_t chars);

  /// Sum of lengths of fragments of the given type.
  std::uint64_t total_length_of_type(FragType t) const noexcept;
  std::size_t count_of_type(FragType t) const noexcept;

 private:
  std::vector<Code> text_;          // empty, or kMask-separated fragments
  std::vector<std::uint8_t> qual_;  // empty, or text_ without separators
  std::vector<std::uint32_t> offsets_;
  // Block b -> the fragment holding text offset b * kIdBlock.
  std::vector<FragmentId> block_first_;
  std::vector<std::uint32_t> lengths_;
  std::vector<FragType> types_;
  std::vector<std::string> names_;
  std::uint32_t max_length_ = 0;
};

/// Materialize the doubled store the suffix-tree / pair-generation
/// machinery reads. The paper builds the GST on all fragments *and their
/// reverse complements* (Section 5): sequence 2*i is fragment i forward,
/// 2*i+1 is its reverse complement.
FragmentStore make_doubled_store(const FragmentStore& in);

}  // namespace pgasm::seq
