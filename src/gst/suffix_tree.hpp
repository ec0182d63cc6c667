// Generalized suffix tree (GST), built as a forest of bucket subtrees.
//
// Construction follows the paper (Section 6): suffixes are grouped into
// buckets by their w-length prefix, and each bucket's compacted trie is
// built depth-first by recursively partitioning suffixes on the character
// at the current depth. Since the minimum maximal-match length ψ is >= w,
// the top of the GST (depth < w) is never materialized. The same code path
// serves the serial build (one implicit bucket at depth 0) and the parallel
// build (each rank constructs the subtrees of its assigned buckets).
//
// Each range finds its branching depth directly, as the shortest common
// prefix (capped by effective lengths) of its first suffix with every
// other one, compared eight characters per word; it then partitions once
// at that depth. Worst case build time stays O(S · l) character probes for
// S suffixes of average effective length l, the paper's stated bound; a
// non-branching edge costs one word compare per suffix per 8 characters.
// Space is O(S) nodes (leaves merge identical suffixes).
//
// The same pass that counts a range's branch characters ORs the lset
// classes of its suffixes into a mask, and records the node for pair
// generation if it can emit a pair: depth >= ψ, not a one-suffix leaf, and
// a mask other than one non-λ class. A subtree whose suffixes all share
// one non-λ preceding character is *inert*: no pair in it is left-maximal
// (condition C4 of Lemma 1). On shotgun reads only 7-11% of the nodes at
// depth >= ψ that are not one-suffix leaves are recorded, so pair
// generation never visits the rest.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "gst/suffix.hpp"
#include "seq/fragment_store.hpp"

namespace pgasm::gst {

inline constexpr std::uint32_t kNilNode =
    std::numeric_limits<std::uint32_t>::max();

struct Node {
  std::uint32_t parent = kNilNode;
  std::uint32_t depth = 0;          ///< string-depth (path-label length)
  std::uint32_t first_child = kNilNode;
  std::uint32_t next_sibling = kNilNode;
  /// Leaves: the (reordered) suffix range they own. Internal nodes: empty.
  std::uint32_t suffix_begin = 0;
  std::uint32_t suffix_end = 0;

  bool is_leaf() const noexcept { return first_child == kNilNode; }
  std::uint32_t num_suffixes() const noexcept {
    return suffix_end - suffix_begin;
  }
};

struct GstParams {
  std::uint32_t min_match = 20;  ///< ψ: minimum maximal-match length
  /// w: bucket prefix length, 0 < w <= min_match. Serial builds may pass 0
  /// to mean "one bucket at depth 0".
  std::uint32_t prefix_w = 0;
};

class SuffixTree {
 public:
  /// Serial build over all suffixes of `store` (forward sequences only; the
  /// caller passes a doubled store to include reverse complements).
  SuffixTree(const seq::FragmentStore& store, const GstParams& params);

  /// Build over an explicit suffix set (the parallel path: a rank's bucket
  /// contents). `start_depth` is the guaranteed common-prefix length within
  /// each bucket; `bucket_begin` delimits buckets in `suffixes` (terminated
  /// by suffixes.size()). Pass a single bucket [0, size) for no grouping.
  SuffixTree(const seq::FragmentStore& store, std::vector<Suffix> suffixes,
             std::span<const std::uint32_t> bucket_begin,
             std::uint32_t start_depth, const GstParams& params);

  const seq::FragmentStore& store() const noexcept { return *store_; }
  const GstParams& params() const noexcept { return params_; }

  /// Re-point the tree at a store that moved. The tree stores local suffix
  /// ids, not addresses, so any store with identical content is valid; an
  /// owner that holds the store and the tree side by side (DistributedGst)
  /// must call this after moving both, or the tree would keep referencing
  /// the moved-from store object.
  void rebind_store(const seq::FragmentStore& store) noexcept {
    store_ = &store;
  }

  std::size_t num_nodes() const noexcept { return nodes_.size(); }
  std::size_t num_suffixes() const noexcept { return suffixes_.size(); }
  std::size_t num_leaves() const noexcept { return num_leaves_; }
  const Node& node(std::uint32_t id) const noexcept { return nodes_[id]; }
  const Suffix& suffix(std::uint32_t idx) const noexcept {
    return suffixes_[idx];
  }

  /// The nodes pair generation visits, in decreasing string-depth order,
  /// children before parents (depth ties broken by descending id; children
  /// always have larger ids). These are the nodes recorded at build time
  /// as able to emit a pair: depth >= ψ, not a one-suffix leaf, and not
  /// inert (every suffix below carries the same non-λ class, so no pair
  /// under it is left-maximal). The generator builds the lsets of the
  /// skipped subtrees when it enters their parent.
  std::vector<std::uint32_t> pair_nodes_by_depth_desc() const;

  /// Total memory footprint of the structure, in bytes (paper §7.1 reports
  /// bytes per input character; bench/space_accounting reproduces that).
  std::uint64_t memory_bytes() const noexcept;

  /// Structural invariant check used by the tests. Returns an empty string
  /// if all invariants hold, else a description of the first violation.
  /// Verifies: suffix partition across leaves, path-label prefix property,
  /// sibling first-character distinctness, parent/child depth ordering,
  /// and right-maximality of branching.
  std::string check_invariants() const;

 private:
  void build_range(std::uint32_t begin, std::uint32_t end, std::uint32_t depth,
                   std::uint32_t parent);

  const seq::FragmentStore* store_;
  GstParams params_;
  std::vector<Suffix> suffixes_;
  std::vector<Node> nodes_;
  std::size_t num_leaves_ = 0;
  std::vector<std::uint32_t> pair_nodes_;  // nodes that can emit, ascending
  std::vector<Suffix> scratch_;  // partition buffer, build time only
};

}  // namespace pgasm::gst
