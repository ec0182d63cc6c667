// Parallel generalized suffix tree construction (paper Section 6).
//
// Algorithm, per rank:
//   1. Own a contiguous slice of the fragments (~N/p characters) and
//      enumerate its suffixes.
//   2. Bucket suffixes by their w-length prefix; allreduce the bucket
//      histogram; deterministically assign buckets to ranks balancing the
//      suffix load (millions of buckets for w=10..12 in the paper; 4^w
//      scaled down here).
//   3. Redistribute suffixes to their bucket owners with the paper's
//      customized staged Alltoallv (bounded buffers, p-1 paired rounds).
//      A suffix travels as its u32 offset into the global text. Slices
//      are contiguous and in rank order, so a rank's incoming suffixes,
//      concatenated by source rank, ascend by global offset.
//   4. The paper ships each rank the text its buckets need. Here every
//      rank already holds the whole store it was called with (it aligns
//      against it and rebuilds dead ranks' portions from it), so no text
//      travels and the build is one allreduce and one all-to-all whatever
//      the input size (DESIGN.md §2).
//   5. Hand the suffixes in arrival order to the one SuffixTree
//      constructor, over the global store. Like every tree, it regroups
//      them by their first min(ψ, 8) characters and builds each group
//      depth-first. With w < 8 a distribution bucket splits into several
//      tree groups; with w > 8 one tree group holds several distribution
//      buckets.
//
// The result holds the rank's subforest, which indexes the caller's store
// directly: its sequence ids and the pairs generated from it are global.
// The tree references that store, so the store must outlive the tree.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "gst/suffix_tree.hpp"
#include "seq/fragment_store.hpp"
#include "vmpi/runtime.hpp"

namespace pgasm::gst {

struct ParallelGstParams {
  /// gst.prefix_w is the distribution prefix w, 0 < w <= min(ψ, 12).
  GstParams gst{.min_match = 20, .prefix_w = 6};
  /// When true (and p > 1), rank 0 is assigned no buckets: the clustering
  /// phase uses rank 0 as the master, which generates no pairs (Fig. 6).
  bool exclude_rank0 = false;
};

struct GstBuildStats {
  std::uint64_t local_suffixes = 0;       ///< after redistribution
  std::uint64_t local_buckets = 0;        ///< non-empty buckets owned
  double compute_seconds = 0;             ///< thread CPU time in local work
  double comm_seconds = 0;                ///< modeled comm charge (ledger Δ)
  std::uint64_t bytes_sent = 0;           ///< ledger Δ
  std::uint64_t tree_nodes = 0;
};

struct DistributedGst {
  /// The rank's subforest over the caller's store (global sequence ids).
  /// It references that store, which must outlive it.
  std::unique_ptr<SuffixTree> tree;
  /// bucket id -> owning rank, identical on every rank (deterministic
  /// assignment). Kept so a survivor can rebuild a dead rank's portion.
  std::vector<std::int32_t> bucket_owner;
  GstBuildStats stats;
};

/// Contiguous fragment partition: rank r owns sequence ids
/// [slice_begin[r], slice_begin[r+1]). Balanced by total characters.
/// Deterministic; all ranks compute the same result.
std::vector<std::uint32_t> partition_store(const seq::FragmentStore& store,
                                           int num_ranks);

/// Deterministic bucket -> rank assignment balancing suffix counts (greedy
/// longest-processing-time). Exposed for tests.
std::vector<std::int32_t> assign_buckets(
    const std::vector<std::uint64_t>& global_histogram, int num_ranks);

/// SPMD entry point: every rank calls this with the same global store.
/// A rank enumerates and routes only its own slice of `global`; the
/// suffixes of its buckets arrive through messages (and are charged to the
/// cost model). Its tree indexes `global`, which must outlive the result.
DistributedGst build_distributed_gst(vmpi::Comm& comm,
                                     const seq::FragmentStore& global,
                                     const ParallelGstParams& params);

/// Serially rebuild the GST portion that `role` owned under the given
/// bucket assignment (no communication; reads the full global store, which
/// must outlive the result). Produces a tree identical to the one `role`
/// built in build_distributed_gst: the global suffix enumeration order
/// equals the concatenation of the per-rank slice enumerations (slices are
/// contiguous and ascending), filtering preserves relative order, both
/// trees index the same store, and the tree constructor's grouping is
/// stable.
/// A survivor adopting a dead worker's generation role therefore replays
/// exactly the same pair stream and can fast-forward to the dead worker's
/// last reported position.
DistributedGst rebuild_rank_portion(const seq::FragmentStore& global,
                                    const std::vector<std::int32_t>& bucket_owner,
                                    int role, const ParallelGstParams& params);

}  // namespace pgasm::gst
