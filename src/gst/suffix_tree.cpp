#include "gst/suffix_tree.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <sstream>

#include "util/contract.hpp"

namespace pgasm::gst {

SuffixTree::SuffixTree(const seq::FragmentStore& store, const GstParams& params)
    : SuffixTree(store, enumerate_suffixes(store, std::max(params.min_match,
                                                           std::uint32_t{1})),
                 std::span<const std::uint32_t>{}, 0, params) {}

SuffixTree::SuffixTree(const seq::FragmentStore& store,
                       std::vector<Suffix> suffixes,
                       std::span<const std::uint32_t> bucket_begin,
                       std::uint32_t start_depth, const GstParams& params)
    : store_(&store), params_(params), suffixes_(std::move(suffixes)) {
  // On reads a leaf per inert range leaves about half a node per suffix.
  // Reserving one per suffix avoids regrowing the array, a copy that would
  // land at the build's memory peak; pages never written cost no memory.
  nodes_.reserve(suffixes_.size() + 16);
  scratch_.resize(suffixes_.size());
  // A root range's class mask is computed once here; below the roots each
  // partition pass hands its groups their masks.
  const auto build_root = [&](std::uint32_t begin, std::uint32_t end) {
    std::uint32_t mask = 0;
    for (std::uint32_t i = begin; i < end; ++i) mask |= 1u << suffixes_[i].cls;
    build_range(begin, end, start_depth, kNilNode, mask);
  };
  if (bucket_begin.empty()) {
    if (!suffixes_.empty())
      build_root(0, static_cast<std::uint32_t>(suffixes_.size()));
  } else {
    for (std::size_t b = 0; b < bucket_begin.size(); ++b) {
      const std::uint32_t begin = bucket_begin[b];
      const std::uint32_t end =
          b + 1 < bucket_begin.size()
              ? bucket_begin[b + 1]
              : static_cast<std::uint32_t>(suffixes_.size());
      if (begin < end) build_root(begin, end);
    }
  }
  scratch_.clear();
  scratch_.shrink_to_fit();
}

namespace {

/// Length of the common prefix of a[0, limit) and b[0, limit), compared a
/// word at a time. Never reads at or past `limit` in either string.
std::uint32_t common_prefix(const seq::Code* a, const seq::Code* b,
                            std::uint32_t limit) noexcept {
  static_assert(std::endian::native == std::endian::little ||
                    std::endian::native == std::endian::big,
                "word compare needs a byte-ordered endianness");
  std::uint32_t k = 0;
  for (; k + 8 <= limit; k += 8) {
    std::uint64_t x, y;
    std::memcpy(&x, a + k, 8);
    std::memcpy(&y, b + k, 8);
    if (const std::uint64_t diff = x ^ y; diff != 0) {
      // The first differing byte in memory order is the lowest-addressed.
      const int bit = std::endian::native == std::endian::little
                          ? std::countr_zero(diff)
                          : std::countl_zero(diff);
      return k + static_cast<std::uint32_t>(bit) / 8;
    }
  }
  while (k < limit && a[k] == b[k]) ++k;
  return k;
}

/// True if class mask `m` is a single non-λ class: no pair under a range
/// with this mask is left-maximal (condition C4 of Lemma 1).
bool inert(std::uint32_t m) noexcept {
  return std::has_single_bit(m) && m != 1u << kClassLambda;
}

}  // namespace

void SuffixTree::build_range(std::uint32_t begin, std::uint32_t end,
                             std::uint32_t depth, std::uint32_t parent,
                             std::uint32_t mask) {
  const auto& store = *store_;
  // Append a node as the first child of `under`; returns its id.
  const auto add_node = [&](Node nd, std::uint32_t under) {
    const auto id = static_cast<std::uint32_t>(nodes_.size());
    nd.parent = under;
    if (under != kNilNode) {
      nd.next_sibling = nodes_[under].first_child;
      nodes_[under].first_child = id;
    }
    nodes_.push_back(nd);
    return id;
  };
  const auto add_leaf = [&](std::uint32_t leaf_depth, std::uint32_t sb,
                            std::uint32_t se, std::uint32_t under) {
    add_node({.depth = leaf_depth, .suffix_begin = sb, .suffix_end = se},
             under);
    ++num_leaves_;
  };

  // Single suffix: leaf spanning its full effective length. It can pair
  // with nothing, so it is never recorded for pair generation.
  if (end - begin == 1) {
    add_leaf(suffixes_[begin].len, begin, end, parent);
    return;
  }

  // Inert range: one leaf at the entry depth, never recorded. If a recorded
  // parent will collect it, order its suffixes as the depth-first walk of
  // the subtree it replaces would have: descending over effective lengths,
  // a proper prefix after its extensions, equal strings in range order.
  if (inert(mask)) {
    if (parent != kNilNode && nodes_[parent].depth >= params_.min_match) {
      std::stable_sort(
          suffixes_.begin() + begin, suffixes_.begin() + end,
          [&](const Suffix& a, const Suffix& b) {
            const seq::Code* ta = store.seq(a.seq).data() + a.pos;
            const seq::Code* tb = store.seq(b.seq).data() + b.pos;
            const std::uint32_t limit = std::min(a.len, b.len);
            const std::uint32_t k =
                depth + common_prefix(ta + depth, tb + depth, limit - depth);
            return k < limit ? ta[k] > tb[k] : a.len > b.len;
          });
    }
    add_leaf(depth, begin, end, parent);
    return;
  }

  // Path compression: the range shares `depth` characters; it branches
  // (or ends) at the shortest effective length or the first character where
  // some suffix leaves the first one's path, whichever comes first.
  const Suffix& first = suffixes_[begin];
  const seq::Code* first_text = store.seq(first.seq).data() + first.pos;
  std::uint32_t branch = first.len;
  for (std::uint32_t i = begin + 1; i < end && branch > depth; ++i) {
    const Suffix& s = suffixes_[i];
    const std::uint32_t limit = std::min(branch, s.len);
    branch = depth + common_prefix(first_text + depth,
                                   store.seq(s.seq).data() + s.pos + depth,
                                   limit - depth);
  }
  depth = branch;

  // Count the branch characters.
  std::array<std::uint32_t, seq::kSigma> base_count{};
  std::uint32_t ended = 0;
  for (std::uint32_t i = begin; i < end; ++i) {
    const Suffix& s = suffixes_[i];
    if (s.len == depth) {
      ++ended;
    } else {
      ++base_count[store.seq(s.seq)[s.pos + depth]];
    }
  }
  // The range is not inert, so its node can emit a pair iff it lies at
  // depth >= ψ. Called just before the node is appended, so ids are
  // recorded in ascending order.
  const auto record_next = [&] {
    if (depth >= params_.min_match) {
      pair_nodes_.push_back(static_cast<std::uint32_t>(nodes_.size()));
    }
  };
  if (ended == end - begin) {
    // All suffixes are identical strings of length `depth`: one leaf.
    record_next();
    add_leaf(depth, begin, end, parent);
    return;
  }
  PGASM_DCHECK(
      ended > 0 || std::ranges::count(base_count, 0u) < seq::kSigma - 1,
      "path compression stopped short of a branching point");

  // Create the internal node for the branching point.
  record_next();
  const std::uint32_t u = add_node({.depth = depth}, parent);

  // Stable partition of [begin, end): ended first, then A, C, G, T.
  std::array<std::uint32_t, seq::kSigma + 1> group_begin{};
  group_begin[0] = begin;
  group_begin[1] = begin + ended;
  for (int c = 1; c < seq::kSigma; ++c)
    group_begin[c + 1] = group_begin[c] + base_count[c - 1];
  std::array<std::uint32_t, seq::kSigma + 1> cursor = group_begin;
  // The same pass ORs each group's lset classes (1 << cls) into its mask.
  std::array<std::uint32_t, seq::kSigma + 1> group_mask{};
  std::copy(suffixes_.begin() + begin, suffixes_.begin() + end,
            scratch_.begin() + begin);
  for (std::uint32_t i = begin; i < end; ++i) {
    const Suffix& s = scratch_[i];
    const int g =
        s.len == depth ? 0 : 1 + store.seq(s.seq)[s.pos + depth];
    group_mask[g] |= 1u << s.cls;
    suffixes_[cursor[g]++] = s;
  }

  // Ended group -> one leaf child at the same string-depth ("$" edge). Its
  // suffixes are identical, so range order is already the walk order.
  if (ended > 1 && !inert(group_mask[0])) record_next();
  if (ended > 0) add_leaf(depth, begin, begin + ended, u);
  // Base-character groups -> recurse (they share depth+1 characters).
  for (int c = 0; c < seq::kSigma; ++c) {
    const std::uint32_t gb = group_begin[c + 1];
    const std::uint32_t ge = gb + base_count[c];
    if (gb < ge) build_range(gb, ge, depth + 1, u, group_mask[c + 1]);
  }
}

std::vector<std::uint32_t> SuffixTree::pair_nodes_by_depth_desc() const {
  // Counting sort of the recorded ids by depth ascending (stable in id),
  // then reverse: yields depth descending with id descending inside equal
  // depths, which puts children (always created after, so larger id)
  // before their parents.
  std::uint32_t max_depth = 0;
  for (const std::uint32_t id : pair_nodes_)
    max_depth = std::max(max_depth, nodes_[id].depth);
  std::vector<std::uint32_t> count(max_depth + 2, 0);
  for (const std::uint32_t id : pair_nodes_) ++count[nodes_[id].depth + 1];
  for (std::size_t d = 1; d < count.size(); ++d) count[d] += count[d - 1];
  std::vector<std::uint32_t> out(pair_nodes_.size());
  for (const std::uint32_t id : pair_nodes_) {
    out[count[nodes_[id].depth]++] = id;
  }
  std::reverse(out.begin(), out.end());
  return out;
}

std::uint64_t SuffixTree::memory_bytes() const noexcept {
  return suffixes_.size() * sizeof(Suffix) + nodes_.size() * sizeof(Node) +
         pair_nodes_.size() * sizeof(std::uint32_t);
}

std::string SuffixTree::check_invariants() const {
  std::ostringstream err;
  const auto& store = *store_;
  const std::size_t nsuf = suffixes_.size();

  // 1. Leaves partition the suffix array.
  std::vector<std::uint8_t> covered(nsuf, 0);
  for (std::uint32_t id = 0; id < nodes_.size(); ++id) {
    const Node& nd = nodes_[id];
    if (!nd.is_leaf()) continue;
    if (nd.suffix_begin >= nd.suffix_end) {
      err << "leaf " << id << " has empty suffix range";
      return err.str();
    }
    for (std::uint32_t i = nd.suffix_begin; i < nd.suffix_end; ++i) {
      if (covered[i]) {
        err << "suffix index " << i << " covered by two leaves";
        return err.str();
      }
      covered[i] = 1;
    }
    // A leaf's suffixes share its first `depth` characters. Either they
    // are identical strings of length == depth, or they hold two or more
    // suffixes of one non-λ class (an inert leaf at its entry depth).
    const Suffix& first = suffixes_[nd.suffix_begin];
    bool identical = true;
    std::uint32_t mask = 0;
    for (std::uint32_t i = nd.suffix_begin; i < nd.suffix_end; ++i) {
      const Suffix& s = suffixes_[i];
      mask |= 1u << s.cls;
      identical = identical && s.len == nd.depth;
      if (s.len < nd.depth) {
        err << "leaf " << id << ": suffix len " << s.len << " < depth "
            << nd.depth;
        return err.str();
      }
      const auto ta = store.seq(first.seq);
      const auto tb = store.seq(s.seq);
      for (std::uint32_t k = 0; k < nd.depth; ++k) {
        if (ta[first.pos + k] != tb[s.pos + k]) {
          err << "leaf " << id << ": suffixes differ above its depth";
          return err.str();
        }
      }
    }
    if (!identical && (nd.num_suffixes() < 2 || !inert(mask))) {
      err << "leaf " << id << ": suffixes neither identical nor inert";
      return err.str();
    }
    // A recorded parent collects an inert leaf's suffixes in their order,
    // which must be that of the depth-first walk of the replaced subtree.
    if (!identical && nd.parent != kNilNode &&
        nodes_[nd.parent].depth >= params_.min_match) {
      for (std::uint32_t i = nd.suffix_begin + 1; i < nd.suffix_end; ++i) {
        const Suffix& a = suffixes_[i - 1];
        const Suffix& b = suffixes_[i];
        const auto ta = store.seq(a.seq).subspan(a.pos, a.len);
        const auto tb = store.seq(b.seq).subspan(b.pos, b.len);
        const auto [pa, pb] = std::ranges::mismatch(ta, tb);
        const bool descending = pb == tb.end() ||
                                (pa != ta.end() && *pa > *pb);
        if (!descending) {
          err << "inert leaf " << id << ": suffixes " << i - 1 << " and "
              << i << " out of walk order";
          return err.str();
        }
      }
    }
  }
  for (std::size_t i = 0; i < nsuf; ++i) {
    if (!covered[i]) {
      err << "suffix index " << i << " not covered by any leaf";
      return err.str();
    }
  }

  // 2. Parent/child structure and depths; branch character distinctness.
  for (std::uint32_t id = 0; id < nodes_.size(); ++id) {
    const Node& nd = nodes_[id];
    if (nd.is_leaf()) continue;
    // Representative suffix of a subtree: first leaf found by descent.
    auto representative = [&](std::uint32_t v) {
      while (!nodes_[v].is_leaf()) v = nodes_[v].first_child;
      return suffixes_[nodes_[v].suffix_begin];
    };
    std::array<bool, seq::kSigma> seen{};
    bool seen_end = false;
    int nchildren = 0;
    for (std::uint32_t c = nd.first_child; c != kNilNode;
         c = nodes_[c].next_sibling) {
      ++nchildren;
      if (nodes_[c].parent != id) {
        err << "child " << c << " parent link broken";
        return err.str();
      }
      if (nodes_[c].depth < nd.depth) {
        err << "child " << c << " shallower than parent " << id;
        return err.str();
      }
      const Suffix rep = representative(c);
      // Representative must carry the node's path label as a prefix; its
      // character at nd.depth is the branch character (or it ends here).
      if (rep.len < nd.depth) {
        err << "subtree suffix shorter than node depth at node " << id;
        return err.str();
      }
      if (rep.len == nd.depth) {
        if (seen_end) {
          err << "node " << id << " has two end-leaf children";
          return err.str();
        }
        seen_end = true;
        if (nodes_[c].depth != nd.depth || !nodes_[c].is_leaf()) {
          err << "end child of node " << id << " malformed";
          return err.str();
        }
      } else {
        const seq::Code ch = store.seq(rep.seq)[rep.pos + nd.depth];
        if (seen[ch]) {
          err << "node " << id << " has two children branching on char "
              << int(ch);
          return err.str();
        }
        seen[ch] = true;
        if (nodes_[c].depth <= nd.depth) {
          err << "base child of node " << id << " not deeper";
          return err.str();
        }
      }
    }
    if (nchildren < 2) {
      err << "internal node " << id << " has " << nchildren
          << " children (no path compression?)";
      return err.str();
    }
  }

  // An inert range is always one leaf, so no internal node is inert.
  // Children always have larger ids than their parent.
  std::vector<std::uint32_t> subtree_mask(nodes_.size(), 0);
  for (auto id = static_cast<std::uint32_t>(nodes_.size()); id-- > 0;) {
    const Node& nd = nodes_[id];
    if (nd.is_leaf()) {
      for (std::uint32_t i = nd.suffix_begin; i < nd.suffix_end; ++i)
        subtree_mask[id] |= 1u << suffixes_[i].cls;
    } else if (inert(subtree_mask[id])) {
      err << "internal node " << id << " roots an inert subtree";
      return err.str();
    }
    if (nd.parent != kNilNode) subtree_mask[nd.parent] |= subtree_mask[id];
  }

  // 3. Prefix property: every suffix under a node shares its path label.
  // Verified transitively: each leaf's suffixes share its label (checked
  // above) and each child-representative agrees with the parent's label up
  // to parent depth by construction of branching; do a direct spot check
  // for each internal node against its first child's representative chain.
  for (std::uint32_t id = 0; id < nodes_.size(); ++id) {
    const Node& nd = nodes_[id];
    if (nd.is_leaf() || nd.parent == kNilNode) continue;
    const Node& par = nodes_[nd.parent];
    // Compare representatives of nd and its parent on [0, par.depth).
    auto rep_of = [&](std::uint32_t v) {
      while (!nodes_[v].is_leaf()) v = nodes_[v].first_child;
      return suffixes_[nodes_[v].suffix_begin];
    };
    const Suffix a = rep_of(id);
    const Suffix b = rep_of(nd.parent);
    const auto ta = store.seq(a.seq);
    const auto tb = store.seq(b.seq);
    for (std::uint32_t k = 0; k < par.depth; ++k) {
      if (ta[a.pos + k] != tb[b.pos + k]) {
        err << "prefix property violated between node " << id
            << " and parent";
        return err.str();
      }
    }
  }

  return {};
}

}  // namespace pgasm::gst
