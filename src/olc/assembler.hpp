// Greedy overlap-layout-consensus assembler — the serial assembler run on
// each cluster (the paper uses CAP3 here; the framework only requires *a*
// stringent conventional assembler, see Section 3).
//
// Phases:
//   overlap  — promising pairs from a GST over the cluster's fragments
//              (+ reverse complements) at a stricter ψ, verified with
//              banded suffix-prefix alignments at higher identity;
//   layout   — accepted overlaps folded best score first (ties in pair
//              generation order) into an orientation-aware layout
//              union-find; placements that contradict earlier (better)
//              overlaps are rejected. Overlap and layout run as one
//              best-first walk: a pair waits in a queue under an upper
//              bound on its banded score and is aligned only if its two
//              fragments are still in different components when that
//              bound comes up (the paper's Fig. 3 skip rule); accepted
//              overlaps re-enter under their exact score. The layout is
//              the one folding every accepted overlap would build;
//   consensus — per-column majority vote over the placed fragments,
//              splitting at zero-coverage columns.
#pragma once

#include <cstdint>
#include <vector>

#include "align/overlap.hpp"
#include "olc/layout.hpp"
#include "seq/fragment_store.hpp"

namespace pgasm::olc {

struct AssemblyParams {
  /// Stricter than clustering: the paper assembles each cluster "with a
  /// higher stringency" than the clustering criterion.
  std::uint32_t psi = 24;
  align::OverlapParams overlap{
      .scoring = {},
      .min_overlap = 40,
      .min_identity = 0.96,
      .band = 12,
  };
  std::int64_t placement_tolerance = 10;
  /// Consensus polishing: realign every fragment to the draft consensus
  /// (banded) and re-vote per aligned column, letting gap majorities drop
  /// columns. Fixes the indel drift a fixed-offset vote cannot see — the
  /// step CAP3 performs during its consensus phase. 0 disables.
  int polish_passes = 4;
};

struct Placement {
  std::uint32_t fragment = 0;  ///< id within the assembled store
  bool flip = false;
  std::int64_t offset = 0;  ///< contig coordinate of the fragment's start
  std::uint32_t length = 0;  ///< fragment length (layout convenience)
};

struct Contig {
  std::vector<seq::Code> consensus;
  std::vector<Placement> layout;

  std::uint64_t length() const noexcept { return consensus.size(); }
  bool is_singleton() const noexcept { return layout.size() == 1; }
};

struct AssemblyStats {
  /// Banded DPs the layout walk ran: one per run of an oriented pair's
  /// shifts that it reached (over the run's hull), plus one for each
  /// member whose own band misses the hull's traced path. Exact duplicates
  /// and pairs whose fragments already shared a layout component cost none.
  std::uint64_t overlaps_considered = 0;
  std::uint64_t overlaps_accepted = 0;  ///< reached pairs that passed
  /// Inconsistent placements rejected among the overlaps the walk reaches
  /// (an overlap skipped unaligned is never tested against the layout).
  std::uint64_t layout_conflicts = 0;
};

struct AssemblyResult {
  std::vector<Contig> contigs;  ///< every fragment appears in exactly one
  AssemblyStats stats;

  std::size_t num_multi_contigs() const noexcept;
  std::size_t num_singletons() const noexcept;
  std::uint64_t n50() const;
};

/// Assemble one fragment set (typically one cluster's members).
AssemblyResult assemble(const seq::FragmentStore& fragments,
                        const AssemblyParams& params);

}  // namespace pgasm::olc
