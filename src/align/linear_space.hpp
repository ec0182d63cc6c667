// Space-efficient alignment kernels, extending the framework's linear-space
// discipline (paper Section 5: "eliminating the need to store promising
// pairs and pairwise alignment scores is key to achieving linear space")
// into the alignment layer itself:
//
//   * hirschberg_align — Needleman-Wunsch global alignment with full
//     traceback in O(min(|a|,|b|)) working memory (divide and conquer on
//     the middle row), instead of the O(|a||b|) traceback matrix.
//   * myers_edit_distance — Myers' 1999 bit-parallel algorithm: unit-cost
//     edit distance in O(|a|·|b|/64) word operations and O(1) extra space
//     per column block. Usable as a cheap pre-filter before full DP.
//   * banded_edit_distance — bit-parallel distance with an early-exit
//     threshold k (returns k+1 if the distance exceeds k).
#pragma once

#include <cstdint>
#include <optional>

#include "align/pairwise.hpp"

namespace pgasm::align {

class Workspace;

/// Needleman-Wunsch global alignment (linear gaps, masked symbols never
/// match) with O(min(|a|,|b|)) working memory. Always produces the op
/// string.
AlignResult hirschberg_align(Seq a, Seq b, const Scoring& sc);

/// Workspace variant: the three rolling DP rows and the reversed-half
/// sequence scratch come from `ws`; after warmup the only allocation left
/// is the op string the caller asked for.
AlignResult hirschberg_align(Seq a, Seq b, const Scoring& sc, Workspace& ws);

/// Unit-cost (Levenshtein) edit distance via Myers' bit-parallel scan.
/// Masked symbols mismatch everything, as everywhere else.
std::uint32_t myers_edit_distance(Seq a, Seq b);

/// Edit distance with cutoff: returns the distance if <= k, else k+1
/// (early exit). Useful as an overlap pre-filter: a pair whose best
/// possible alignment already needs > k edits cannot pass the identity
/// test.
std::uint32_t myers_edit_distance_bounded(Seq a, Seq b, std::uint32_t k);

}  // namespace pgasm::align
