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
// Space is O(S) nodes.
//
// Each range arrives with the OR of its suffixes' lset classes (1 << cls):
// the root or bucket-root call computes it once, and below that the parent's
// partition pass computes each group's mask. A range whose mask is a single
// non-λ class is *inert*: its suffixes all share one preceding character,
// so no pair under it is left-maximal (condition C4 of Lemma 1). On shotgun
// reads nearly every suffix lies in an inert range. There are two kinds of
// leaf:
//   * a *plain* leaf holds one suffix, or identical strings of length
//     `depth`, as in the paper's tree;
//   * an *inert* leaf holds an inert range of two or more suffixes, built
//     without path compression, partitioning or recursion. Its `depth` is
//     the entry depth (its parent's depth + 1, or the start depth for a
//     root), which its suffixes share; nothing reads it. An internal node
//     is never inert.
// A node is recorded for pair generation if it can emit a pair: depth >= ψ,
// not inert, not a one-suffix leaf.
//
// A recorded parent collects an inert child's suffixes in index order. So
// under a parent of depth >= ψ an inert leaf is stable-sorted into the
// order a depth-first walk of the subtree it replaces would give (siblings
// are prepended, so they run from T down to the ended group): descending
// over effective lengths, a proper prefix after its extensions, and equal
// strings in range order. The comparisons start at the entry depth and
// compare words. Nothing reads the order of an inert leaf under a shallower
// parent, so it stays in range order. The pair stream is therefore
// byte-identical to that of the full tree:
//   * the recorded nodes are the same ones, in the same relative preorder,
//     because an inert subtree holds no recorded node and everything
//     outside it is built as before;
//   * each recorded node keeps its children in the same sibling order,
//     because an inert leaf takes the place of its subtree's root;
//   * an inert child's lset holds the same suffixes in the same order as
//     the walk over the subtree it replaces.
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
  /// String-depth (path-label length). An inert leaf stores its entry
  /// depth, the length of the prefix its suffixes are known to share.
  std::uint32_t depth = 0;
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
  /// as able to emit a pair: depth >= ψ, not a one-suffix leaf, and not an
  /// inert leaf. Every other child of a recorded node is a leaf, whose
  /// lsets the generator builds when it enters that node.
  std::vector<std::uint32_t> pair_nodes_by_depth_desc() const;

  /// Total memory footprint of the structure, in bytes (paper §7.1 reports
  /// bytes per input character; bench/space_accounting reproduces that).
  std::uint64_t memory_bytes() const noexcept;

  /// Structural invariant check used by the tests. Returns an empty string
  /// if all invariants hold, else a description of the first violation.
  /// Verifies: suffix partition across leaves, the two leaf kinds (and the
  /// walk order of inert leaves under parents of depth >= ψ), no inert
  /// internal node, path-label prefix property, sibling first-character
  /// distinctness, parent/child depth ordering, and right-maximality of
  /// branching.
  std::string check_invariants() const;

 private:
  /// Builds the subtree of [begin, end) under `parent`. The range shares
  /// its first `depth` characters, and `mask` ORs 1 << cls over it.
  void build_range(std::uint32_t begin, std::uint32_t end, std::uint32_t depth,
                   std::uint32_t parent, std::uint32_t mask);

  const seq::FragmentStore* store_;
  GstParams params_;
  std::vector<Suffix> suffixes_;
  std::vector<Node> nodes_;
  std::size_t num_leaves_ = 0;
  std::vector<std::uint32_t> pair_nodes_;  // nodes that can emit, ascending
  std::vector<Suffix> scratch_;  // partition buffer, build time only
};

}  // namespace pgasm::gst
