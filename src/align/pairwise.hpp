// Types shared by the alignment kernels: scoring, edit operations, and the
// traced alignment result.
//
// The paper detects overlaps "by computing alignments between the
// corresponding pairs of fragments using standard dynamic programming
// approaches". The only DP this repository runs is the end-free
// suffix–prefix alignment in align/overlap.hpp, over the code alphabet
// (masked symbols are guaranteed mismatches) with linear gaps and full
// traceback, so callers get the aligned region, the identity, and
// optionally the operation string.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "seq/alphabet.hpp"

namespace pgasm::align {

using seq::Code;
using Seq = std::span<const Code>;

/// Linear-gap scoring: every gap column costs `gap`.
struct Scoring {
  int match = 2;
  int mismatch = -3;
  int gap = -4;

  int substitution(Code a, Code b) const noexcept {
    return (seq::is_base(a) && a == b) ? match : mismatch;
  }
};

/// Edit operations of a traceback, from the start of the aligned region.
enum class Op : std::uint8_t { kMatch, kMismatch, kInsertA, kInsertB };
// kInsertA: column consumes a character of `a` only (gap in b);
// kInsertB: column consumes a character of `b` only (gap in a).

struct AlignResult {
  int score = 0;
  /// Aligned (DP-traced) region, half-open, in each sequence.
  std::uint32_t a_begin = 0, a_end = 0;
  std::uint32_t b_begin = 0, b_end = 0;
  std::uint32_t matches = 0;   ///< identical columns
  std::uint32_t columns = 0;   ///< total alignment columns
  std::vector<Op> ops;         ///< filled when requested

  double identity() const noexcept {
    return columns == 0 ? 0.0
                        : static_cast<double>(matches) /
                              static_cast<double>(columns);
  }
  std::uint32_t a_span() const noexcept { return a_end - a_begin; }
  std::uint32_t b_span() const noexcept { return b_end - b_begin; }
};

struct AlignOptions {
  bool keep_ops = false;  ///< retain the op string in the result
};

}  // namespace pgasm::align
