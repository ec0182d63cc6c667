// Serial clustering (paper Fig. 3): generate promising pairs in decreasing
// maximal-match order; align a pair only when its fragments are still in
// different clusters; merge clusters on an accepted suffix–prefix overlap.
//
// The final clustering is the transitive closure of accepted overlaps and is
// independent of processing order (Section 4); the ordering heuristic only
// reduces the number of alignments computed.
#pragma once

#include <cstdint>

#include "core/cluster_params.hpp"
#include "seq/fragment_store.hpp"
#include "util/union_find.hpp"

namespace pgasm::core {

struct ClusterResult {
  util::UnionFind clusters;  ///< over fragment ids [0, n)
  ClusterStats stats;
};

/// Cluster `fragments` (forward sequences; reverse complements are handled
/// internally via the doubled store).
ClusterResult cluster_serial(const seq::FragmentStore& fragments,
                             const ClusterParams& params);

/// Shared helper: run the accept test for a promising pair expressed in
/// doubled-store ids, anchored at its maximal match, aligning in the
/// caller's workspace.
bool pair_overlaps(const seq::FragmentStore& doubled, std::uint32_t seq_a,
                   std::uint32_t pos_a, std::uint32_t seq_b,
                   std::uint32_t pos_b, const align::OverlapParams& p,
                   align::Workspace& ws);

/// Same, but returns the full alignment result (for placement extraction).
align::OverlapResult pair_overlap_details(const seq::FragmentStore& doubled,
                                          std::uint32_t seq_a,
                                          std::uint32_t pos_a,
                                          std::uint32_t seq_b,
                                          std::uint32_t pos_b,
                                          const align::OverlapParams& p,
                                          align::Workspace& ws);

/// The workspace overload above with one workspace per thread. Kept only
/// because perfbench/op.cpp's fixed-sample alignment measure calls this
/// form; new callers own their Workspace.
align::OverlapResult pair_overlap_details(const seq::FragmentStore& doubled,
                                          std::uint32_t seq_a,
                                          std::uint32_t pos_a,
                                          std::uint32_t seq_b,
                                          std::uint32_t pos_b,
                                          const align::OverlapParams& p);

}  // namespace pgasm::core
