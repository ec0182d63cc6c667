// On-demand promising-pair generation (paper Section 5).
//
// A *promising pair* is a pair of sequences sharing a maximal match of
// length >= ψ. Pairs are generated at GST nodes processed in decreasing
// string-depth order — so pairs stream out in non-increasing maximal-match
// length order without ever being stored (O(N) space), and each pair costs
// O(1): cross-products of lsets across different children (conditions
// C1..C4 of Lemma 1), lists dissolved upward by O(1) concatenation.
// Only the nodes the tree recorded as able to emit are visited
// (SuffixTree::pair_nodes_by_depth_desc). Every other child of a visited
// node is a leaf: one holding a single suffix (most leaves), or an *inert*
// leaf, which the tree builds in place of a subtree whose suffixes all
// share one non-λ preceding character, so that no pair inside is
// left-maximal (condition C4). When a visited node is entered, each such
// child's lset is filled from the leaf's suffixes in index order, and only
// the internal frontier holds pool entries between nodes.
//
// The pair stream is the same as if every node at depth >= ψ of the full,
// uncollapsed tree were visited:
//   * an inert subtree produces no combination of classes, so it emits
//     nothing; visiting it would only have concatenated its leaves' lsets
//     upward in depth-first sibling order, and the tree stores an inert
//     leaf under a visited parent in exactly that order (suffix_tree.hpp);
//   * duplicate elimination keeps the first occurrence of each sequence,
//     and that filter composes: filter(A ++ filter(B) ++ C) =
//     filter(A ++ B ++ C). Deferring it from the inert subtree to its
//     first visited ancestor therefore keeps the same entries in the same
//     order, and that ancestor's cross-products run over identical lists.
//
// Two generation modes:
//   * suffix-level  (dup_elim = false): emits every maximal match once,
//     identified by (seq, pos) of both occurrences. Used when alignments
//     are anchored to each maximal match, and by the property tests.
//   * fragment-level (dup_elim = true): the paper's duplicate-elimination
//     scheme — before generating at an internal node, all but one
//     occurrence of each fragment is removed from the children's lsets
//     (boolean array of size |sequences|, reset after use), so a pair is
//     emitted at most once per node and at least once overall.
//
// When the input store is the doubled (forward + reverse complement)
// collection, set doubled_input: pairs within the same underlying fragment
// are suppressed and exactly one of the two strand-mirror images of each
// pair is emitted (the one whose lower-numbered fragment appears forward).
#pragma once

#include <cstdint>
#include <vector>

#include "gst/lset.hpp"
#include "gst/suffix_tree.hpp"

namespace pgasm::gst {

struct PromisingPair {
  std::uint32_t seq_a = 0;  ///< sequence id (doubled id when doubled input)
  std::uint32_t pos_a = 0;  ///< maximal-match start within seq_a
  std::uint32_t seq_b = 0;
  std::uint32_t pos_b = 0;
  std::uint32_t match_len = 0;

  /// Band center for an anchored overlap alignment of (seq_a, seq_b).
  std::int32_t shift() const noexcept {
    return static_cast<std::int32_t>(pos_b) - static_cast<std::int32_t>(pos_a);
  }

  friend bool operator==(const PromisingPair&, const PromisingPair&) = default;
};

struct PairGenParams {
  bool dup_elim = true;
  bool doubled_input = false;
  /// Optional id translation applied before emission (and before the
  /// doubled-input filters): maps the tree's sequence ids to ids in an
  /// enclosing store. Used by the parallel path, where a rank's tree is
  /// built over local fragment copies whose ids do not preserve the
  /// forward/reverse-complement pairing of the global doubled store.
  /// When set, emitted pairs carry the translated ids.
  const std::vector<std::uint32_t>* global_ids = nullptr;
};

class PairGenerator {
 public:
  PairGenerator(const SuffixTree& tree, PairGenParams params = {});

  /// Produce the next pair. Returns false when exhausted.
  bool next(PromisingPair& out);

  /// Fill up to `max` pairs into out (appended); returns how many.
  std::size_t fill(std::vector<PromisingPair>& out, std::size_t max);

  bool done() const noexcept { return done_; }

  std::uint64_t pairs_emitted() const noexcept { return emitted_; }
  std::uint64_t pairs_filtered_self() const noexcept { return filtered_self_; }
  std::uint64_t pairs_filtered_mirror() const noexcept {
    return filtered_mirror_;
  }

  /// Bytes held by generator state (arena + pool + node order + lset refs
  /// + dedup bitmap).
  std::uint64_t memory_bytes() const noexcept;

  /// Convenience: run a fresh generator to exhaustion.
  static std::vector<PromisingPair> generate_all(const SuffixTree& tree,
                                                 PairGenParams params = {});

 private:
  void enter_node(std::uint32_t u);
  void collect_leaf(std::uint32_t leaf, NodeLsets& L);
  void finish_node(std::uint32_t u);
  void dedup_children();
  bool produce(PromisingPair& out);  // next raw pair at current node
  bool emit(std::uint32_t sfx_a, std::uint32_t sfx_b, std::uint32_t len,
            PromisingPair& out);

  const SuffixTree* tree_;
  PairGenParams params_;

  std::vector<std::uint32_t> order_;   // visited nodes, deepest first
  std::size_t oi_ = 0;                 // next node to enter
  bool in_node_ = false;
  bool done_ = false;

  LsetArena arena_;
  LsetPool pool_;
  std::vector<std::uint32_t> lset_ref_;  // node id -> pool ref (kNilNode = none)

  // Current-node iteration state.
  std::uint32_t u_ = kNilNode;
  bool leaf_ = false;
  std::uint32_t leaf_ref_ = kNilNode;       // pool ref holding leaf lsets
  std::vector<std::uint32_t> children_;     // child node ids (internal nodes)
  std::size_t ci_ = 0, cj_ = 0;             // child-pair cursor
  std::size_t combo_ = 0;                   // class-combo cursor
  std::uint32_t p_ = kNilEntry, q_ = kNilEntry;  // element cursors
  bool cursors_fresh_ = false;

  std::vector<std::uint8_t> seen_;  // dedup bitmap over sequence ids

  std::uint64_t emitted_ = 0;
  std::uint64_t filtered_self_ = 0;
  std::uint64_t filtered_mirror_ = 0;
};

}  // namespace pgasm::gst
