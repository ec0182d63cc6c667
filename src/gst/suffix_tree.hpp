// Generalized suffix tree (GST), built as a forest of bucket subtrees.
//
// Construction follows the paper (Section 6): suffixes are grouped into
// buckets by their w-length prefix, and each bucket's compacted trie is
// built depth-first by recursively partitioning suffixes on the character
// at the current depth. Every tree is built this way, by one constructor:
// the serial clustering tree, each per-cluster assembly tree and each
// rank's share of the parallel forest. It groups its suffixes by their
// first w = min(ψ, 8) characters with a stable counting sort in ascending
// prefix order, so the groups come out in the order a depth-first build
// from the root would visit them, and builds each group from depth w.
// Pair generation reads only nodes of depth >= ψ >= w (Lemma 1), so the
// top of the GST (depth < w) is never materialized and the pair stream is
// that of the full tree.
//
// A suffix is one u32, its offset into the store's text, which holds a
// kMask before the first sequence and after every sequence (suffix.hpp).
// The tree reads everything else from the text: a suffix has ended at
// depth d when text[offset + d] is kMask, and its lset class is the code at
// offset - 1. Its sequence id is FragmentStore::id_at(offset), a block
// index over the store's offsets; only pair generation needs it, once per
// suffix it collects into an lset. A suffix costs 4 bytes in the tree, in
// its partition buffer and in the parallel build's all-to-all.
//
// Each range finds its branching depth directly, as the shortest common
// prefix of its first suffix with every other one, compared eight
// characters per word: the compare stops at the first byte where the two
// differ or the first holds kMask, so it stops where either suffix ends
// (a word with bit 2 set in a byte holds kMask there). It then partitions
// once at that depth. Worst case build time stays O(S · l) character
// probes for S suffixes of average effective length l, the paper's stated
// bound; a non-branching edge costs one word compare per suffix per 8
// characters. Space is O(S) nodes.
//
// Each range arrives with the OR of its suffixes' lset classes (1 << cls):
// the constructor computes it once per group, and below that the parent's
// partition pass computes each group's mask. A range whose mask is a single
// non-λ class is *inert*: its suffixes all share one preceding character,
// so no pair under it is left-maximal (condition C4 of Lemma 1). On shotgun
// reads nearly every suffix lies in an inert range. There are two kinds of
// leaf:
//   * a *plain* leaf holds one suffix, or identical strings of length
//     `depth`, as in the paper's tree. A one-suffix leaf stores its entry
//     depth, like an inert leaf, instead of its length: nothing reads it,
//     and finding the length would mean scanning to the suffix's end;
//   * an *inert* leaf holds an inert range of two or more suffixes, built
//     without path compression, partitioning or recursion. Its `depth` is
//     the entry depth (its parent's depth + 1, or w for a group's root),
//     which its suffixes share; nothing reads it. An internal node
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
// compare words; at the first position k where two suffixes part, they
// order by code_rank(text[offset + k]) descending. That rank puts kMask
// below every base, so a proper prefix (which holds kMask at k) comes
// after its extensions; a raw code compare would put it first. Nothing
// reads the order of an inert leaf under a shallower parent, so it stays
// in range order. The pair stream is therefore
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
#include <string>
#include <vector>

#include "gst/suffix.hpp"
#include "seq/fragment_store.hpp"

namespace pgasm::gst {

inline constexpr std::uint32_t kNilNode =
    std::numeric_limits<std::uint32_t>::max();

struct Node {
  std::uint32_t parent = kNilNode;
  /// String-depth (path-label length). An inert or one-suffix leaf stores
  /// its entry depth, the length of the prefix its suffixes are known to
  /// share.
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
  /// w: the parallel build's bucket-distribution prefix (the paper's w).
  /// Each suffix goes to the rank that owns the bucket of its first w
  /// characters; build_distributed_gst requires 0 < w <= min(ψ, 12). No
  /// tree reads it: every tree groups its own suffixes by their first
  /// min(ψ, 8) characters.
  std::uint32_t prefix_w = 0;
};

class SuffixTree {
 public:
  /// Build over all suffixes of `store` (forward sequences only; the caller
  /// passes a doubled store to include reverse complements).
  SuffixTree(const seq::FragmentStore& store, const GstParams& params);

  /// Build over an explicit suffix set, e.g. a rank's share of the buckets.
  /// Every suffix must be at least min(ψ, 8) characters long, as
  /// enumeration with min_len ψ guarantees. Suffixes that share that prefix
  /// keep their relative order.
  SuffixTree(const seq::FragmentStore& store, std::vector<Suffix> suffixes,
             const GstParams& params);

  const seq::FragmentStore& store() const noexcept { return *store_; }
  const GstParams& params() const noexcept { return params_; }

  std::size_t num_nodes() const noexcept { return nodes_.size(); }
  std::size_t num_suffixes() const noexcept { return suffixes_.size(); }
  std::size_t num_leaves() const noexcept { return num_leaves_; }
  const Node& node(std::uint32_t id) const noexcept { return nodes_[id]; }
  /// The text offset of suffix `idx` (see suffix.hpp for what follows
  /// from it; site_of decodes it).
  Suffix suffix(std::uint32_t idx) const noexcept { return suffixes_[idx]; }

  /// The nodes pair generation visits, in decreasing string-depth order,
  /// children before parents (depth ties broken by descending id; children
  /// always have larger ids). These are the nodes recorded at build time
  /// as able to emit a pair: depth >= ψ, not a one-suffix leaf, and not an
  /// inert leaf. Every other child of a recorded node is a leaf, whose
  /// lsets the generator builds when it enters that node.
  std::vector<std::uint32_t> pair_nodes_by_depth_desc() const;

  /// Bytes of the suffix array: 4 per suffix.
  std::uint64_t suffix_bytes() const noexcept {
    return suffixes_.size() * sizeof(Suffix);
  }
  /// Bytes of the nodes and the list of nodes pair generation visits.
  std::uint64_t node_bytes() const noexcept {
    return nodes_.size() * sizeof(Node) +
           pair_nodes_.size() * sizeof(std::uint32_t);
  }
  /// Total memory footprint of the structure, in bytes (paper §7.1 reports
  /// bytes per input character; bench/space_accounting reproduces that).
  /// The text is the store's and is not counted.
  std::uint64_t memory_bytes() const noexcept {
    return suffix_bytes() + node_bytes();
  }

  /// Structural invariant check used by the tests. Returns an empty string
  /// if all invariants hold, else a description of the first violation.
  /// Verifies: suffix partition across leaves, the leaf kinds (the entry
  /// depth of one-suffix and inert leaves, and the walk order of inert
  /// leaves under parents of depth >= ψ), no inert
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
