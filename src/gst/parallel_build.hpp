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
//   4. Fetch the fragment text needed to build the local subtrees in
//      batches of Θ(N/p) characters through paired collective rounds:
//      a request Alltoallv (fragment ids) and a service Alltoallv
//      (fragment payloads). Ranks that exhaust their batches keep
//      participating to serve others.
//   5. Build the local bucket subtrees depth-first (SuffixTree).
//
// The result holds a rank-local FragmentStore (fetched copies), the local
// subforest, and the local->global sequence id map used when pairs are
// reported to the clustering master.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "gst/suffix_tree.hpp"
#include "seq/fragment_store.hpp"
#include "vmpi/runtime.hpp"

namespace pgasm::gst {

struct ParallelGstParams {
  GstParams gst{.min_match = 20, .prefix_w = 6};
  /// Target characters per fragment-fetch batch; 0 = everything in one
  /// batch. The paper sizes batches at Θ(N/p).
  std::uint64_t fetch_batch_chars = 1u << 20;
  /// When true (and p > 1), rank 0 is assigned no buckets: the clustering
  /// phase uses rank 0 as the master, which generates no pairs (Fig. 6).
  bool exclude_rank0 = false;
};

struct GstBuildStats {
  std::uint64_t local_suffixes = 0;       ///< after redistribution
  std::uint64_t local_buckets = 0;        ///< non-empty buckets owned
  std::uint64_t fetched_fragments = 0;    ///< fragments copied from peers
  std::uint64_t fetch_rounds = 0;         ///< batched fetch iterations
  double compute_seconds = 0;             ///< thread CPU time in local work
  double comm_seconds = 0;                ///< modeled comm charge (ledger Δ)
  std::uint64_t bytes_sent = 0;           ///< ledger Δ
  std::uint64_t tree_nodes = 0;
};

struct DistributedGst {
  seq::FragmentStore local_store;              ///< fetched fragment copies
  std::vector<std::uint32_t> local_to_global;  ///< local seq id -> global
  std::unique_ptr<SuffixTree> tree;            ///< forest over local ids
  /// bucket id -> owning rank, identical on every rank (deterministic
  /// assignment). Kept so a survivor can rebuild a dead rank's portion.
  std::vector<std::int32_t> bucket_owner;
  GstBuildStats stats;

  // `tree` references `local_store`, so moves must re-seat that reference
  // at the store's new address — the defaults would leave the tree pointing
  // into the moved-from (soon destroyed) object. Bites whenever a factory
  // return value is moved into place, e.g. the generator-takeover path's
  // make_unique<DistributedGst>(rebuild_rank_portion(...)).
  DistributedGst() = default;
  DistributedGst(DistributedGst&& o) noexcept
      : local_store(std::move(o.local_store)),
        local_to_global(std::move(o.local_to_global)),
        tree(std::move(o.tree)),
        bucket_owner(std::move(o.bucket_owner)),
        stats(o.stats) {
    if (tree) tree->rebind_store(local_store);
  }
  DistributedGst& operator=(DistributedGst&& o) noexcept {
    if (this != &o) {
      local_store = std::move(o.local_store);
      local_to_global = std::move(o.local_to_global);
      tree = std::move(o.tree);
      bucket_owner = std::move(o.bucket_owner);
      stats = o.stats;
      if (tree) tree->rebind_store(local_store);
    }
    return *this;
  }
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
/// Ranks read only their own slice of `global`; everything else arrives
/// through messages (and is charged to the cost model).
DistributedGst build_distributed_gst(vmpi::Comm& comm,
                                     const seq::FragmentStore& global,
                                     const ParallelGstParams& params);

/// Serially rebuild the GST portion that `role` owned under the given
/// bucket assignment (no communication; reads the full global store).
/// Produces a tree identical to the one `role` built in
/// build_distributed_gst: the global suffix enumeration order equals the
/// concatenation of the per-rank slice enumerations (slices are contiguous
/// and ascending), filtering preserves relative order, and the grouping and
/// local-id assignment rules are deterministic. A survivor adopting a dead
/// worker's generation role therefore replays exactly the same pair stream
/// and can fast-forward to the dead worker's last reported position.
DistributedGst rebuild_rank_portion(const seq::FragmentStore& global,
                                    const std::vector<std::int32_t>& bucket_owner,
                                    int role, const ParallelGstParams& params);

}  // namespace pgasm::gst
