// Serial clustering (paper Fig. 3): generate promising pairs in decreasing
// maximal-match order; align a pair only when its fragments are still in
// different clusters; merge clusters on an accepted suffix–prefix overlap.
//
// The final clustering is the transitive closure of accepted overlaps and is
// independent of processing order (Section 4); the ordering heuristic only
// reduces the number of alignments computed.
#pragma once

#include <cstdint>
#include <memory>

#include "core/cluster_params.hpp"
#include "core/consistency.hpp"
#include "core/wire.hpp"
#include "seq/fragment_store.hpp"
#include "util/union_find.hpp"

namespace pgasm::core {

struct ClusterResult {
  util::UnionFind clusters;  ///< over fragment ids [0, n)
  ClusterStats stats;
};

/// The Fig. 3 rule, applied the same way by cluster_serial, the parallel
/// master (Section 7) and the lookup-filter baseline: a pair is admitted
/// for alignment only while its fragments are in different clusters, and
/// an accepted overlap merges their clusters — unless the §10 consistency
/// check (params.resolve_inconsistent) refuses the merge.
class ClusterFold {
 public:
  /// `doubled` is the forward+RC store (fragment f = sequences 2f, 2f+1);
  /// it must outlive the fold.
  ClusterFold(const seq::FragmentStore& doubled, const ClusterParams& params);

  /// Count a generated pair; true when it should be aligned.
  bool admit(const PairMsg& pm);

  /// Fold one alignment outcome into the clustering.
  void fold(const ResultMsg& r);

  /// Copy the pair and merge counters into `stats`.
  void write_stats(ClusterStats& stats) const;

  util::UnionFind uf;  ///< over fragment ids [0, n)
  std::uint64_t generated = 0;  ///< pairs offered to admit()
  std::uint64_t selected = 0;   ///< pairs admit() passed
  std::uint64_t aligned = 0;    ///< outcomes folded
  std::uint64_t accepted = 0;
  std::uint64_t merges = 0;
  std::uint64_t rejected_inconsistent = 0;

 private:
  // The consistency check's verification alignments run wherever the fold
  // runs (on the parallel master, charged to its compute ledger).
  std::unique_ptr<ConsistencyResolver> resolver_;
};

/// Cluster `fragments` (forward sequences; reverse complements are handled
/// internally via the doubled store).
ClusterResult cluster_serial(const seq::FragmentStore& fragments,
                             const ClusterParams& params);

/// The accept-test alignment for a promising pair expressed in
/// doubled-store ids, anchored at its maximal match, aligning in the
/// caller's workspace.
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
