// Suffix–prefix ("overlap") alignment and the clustering accept test.
//
// The paper's overlap criterion (Section 4): two fragments overlap if there
// is a high-quality alignment between a suffix of one and a prefix of the
// other. We implement this as end-free (semi-global) alignment: leading and
// trailing gaps in either sequence are free, so the best path also covers
// the containment cases. The result is classified into dovetail /
// containment types.
//
// Two variants:
//   * overlap_align        — full O(|a||b|) matrix; used at low volume and as
//                            the reference in tests.
//   * banded_overlap_align — restricted to a diagonal band around a seed
//                            (the maximal match that generated the pair),
//                            O((|a|+|b|)·band); this is the hot kernel the
//                            clustering phase calls, "anchored to the maximal
//                            matches" as in Section 5. It sweeps the band's
//                            anti-diagonals with 16-byte vectors of 16-bit
//                            (32-bit for long inputs) lanes and computes
//                            the same cells as its scalar reference.
#pragma once

#include <cstdint>

#include "align/pairwise.hpp"

namespace pgasm::align {

class Workspace;

enum class OverlapType : std::uint8_t {
  kNone = 0,        ///< no acceptable overlap geometry
  kDovetailAB,      ///< suffix of a aligns with prefix of b
  kDovetailBA,      ///< suffix of b aligns with prefix of a
  kContainsB,       ///< b is contained in a
  kContainedInB,    ///< a is contained in b
};

const char* overlap_type_name(OverlapType t) noexcept;

struct OverlapResult {
  AlignResult aln;
  OverlapType type = OverlapType::kNone;
  /// Overlap length: alignment columns (used for the min-overlap cutoff).
  std::uint32_t overlap_len() const noexcept { return aln.columns; }
};

/// Acceptance criteria for the clustering "alignment test" (Fig. 3).
struct OverlapParams {
  Scoring scoring{};
  std::uint32_t min_overlap = 40;  ///< minimum alignment columns
  double min_identity = 0.94;      ///< minimum fraction identical columns
  std::uint32_t band = 12;         ///< half-width for the banded kernel
};

/// Full-matrix end-free alignment.
OverlapResult overlap_align(Seq a, Seq b, const Scoring& sc,
                            const AlignOptions& opts = {});

/// Workspace variant of the full-matrix kernel: DP cells and traceback come
/// from `ws` (grow-only, reused dirty) — no heap allocations after warmup
/// unless opts.keep_ops asks for the op string.
OverlapResult overlap_align(Seq a, Seq b, const Scoring& sc, Workspace& ws,
                            const AlignOptions& opts = {});

/// Banded end-free alignment around diagonal (j - i) == shift. For a seed
/// maximal match at positions (pos_a, pos_b), pass shift = pos_b - pos_a.
/// DP cells and traceback come from the caller's `ws`: every lane is
/// written before any neighbor reads it, so the workspace buffers are
/// reused dirty with no per-call clear. Every result field, ops included,
/// equals banded_overlap_align_reference's. Throws std::invalid_argument
/// when 32-bit lanes could overflow: a weight beyond 2^28 in magnitude, or
/// max |weight| × (|a| + |b| + 2) above 2^31 − 2^28.
OverlapResult banded_overlap_align(Seq a, Seq b, const Scoring& sc,
                                   std::int32_t shift, std::uint32_t band,
                                   Workspace& ws,
                                   const AlignOptions& opts = {});

/// Upper bound on banded_overlap_align(a, b, sc, shift, band).aln.score for
/// any a, b of lengths la, lb: match × the longest diagonal overlap whose
/// diagonal lies in [shift - band, shift + band]. Every path starts on an
/// in-band diagonal d0 at the matrix edge, so it makes at most ovl(d0)
/// diagonal steps, each worth at most `match`; gaps only cost. ovl is
/// concave and piecewise linear, so its in-band maximum sits at a band end,
/// at d = 0 or at d = lb - la. Returns INT_MAX (skip nothing) for scoring
/// where that argument fails: match <= 0, gap > 0, or mismatch > match.
int banded_overlap_score_bound(std::uint32_t la, std::uint32_t lb,
                               std::int32_t shift, std::uint32_t band,
                               const Scoring& sc) noexcept;

/// Scalar row-major banded kernel with fresh, cleared buffers every call and
/// a reachability guard on every neighbor: the oracle banded_overlap_align
/// must match in every field (tests, tests/fuzz/fuzz_banded) and the
/// baseline of bench/align_throughput.
OverlapResult banded_overlap_align_reference(Seq a, Seq b, const Scoring& sc,
                                             std::int32_t shift,
                                             std::uint32_t band,
                                             const AlignOptions& opts = {});

/// Throws std::invalid_argument with a clear message unless band > 0,
/// min_identity ∈ (0, 1], and min_overlap >= psi (an overlap shorter than
/// the exact-match seed length psi can never be generated, so such a config
/// would silently produce singleton clusters).
void validate_overlap_params(const OverlapParams& p, std::uint32_t psi);

/// Does this overlap pass the clustering accept test?
bool accept_overlap(const OverlapResult& r, const OverlapParams& p) noexcept;

}  // namespace pgasm::align
