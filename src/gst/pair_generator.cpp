#include "gst/pair_generator.hpp"

#include <utility>

#include "util/contract.hpp"

namespace pgasm::gst {

namespace {

struct Combo {
  std::uint8_t x, y;
};

// Leaf combos: classes within one node's own lists. Right-maximality is
// automatic (all suffixes end at the leaf); left-maximality needs different
// preceding characters, or both λ (condition C4).
constexpr Combo kLeafCombos[] = {
    {0, 0}, {0, 1}, {0, 2}, {0, 3}, {0, 4}, {1, 2},
    {1, 3}, {1, 4}, {2, 3}, {2, 4}, {3, 4},
};
constexpr std::size_t kNumLeafCombos = std::size(kLeafCombos);

// Internal combos: classes across two *different* children (condition C3
// gives right-maximality). All ordered (x, y) except same-base (x==y>0):
// the two elements come from distinct child slots, so both orders are
// distinct cross-products and none is generated twice.
constexpr Combo kInternalCombos[] = {
    {0, 0}, {0, 1}, {0, 2}, {0, 3}, {0, 4}, {1, 0}, {1, 2},
    {1, 3}, {1, 4}, {2, 0}, {2, 1}, {2, 3}, {2, 4}, {3, 0},
    {3, 1}, {3, 2}, {3, 4}, {4, 0}, {4, 1}, {4, 2}, {4, 3},
};
constexpr std::size_t kNumInternalCombos = std::size(kInternalCombos);

}  // namespace

PairGenerator::PairGenerator(const SuffixTree& tree, PairGenParams params)
    : tree_(&tree),
      params_(params),
      order_(tree.pair_nodes_by_depth_desc()),
      arena_(tree.num_suffixes()),
      lset_ref_(tree.num_nodes(), kNilNode),
      seen_(tree.store().size(), 0) {}

void PairGenerator::enter_node(std::uint32_t u) {
  u_ = u;
  const Node& nd = tree_->node(u);
  leaf_ = nd.is_leaf();
  combo_ = 0;
  cursors_fresh_ = true;
  if (leaf_) {
    leaf_ref_ = pool_.alloc();
    collect_leaf(u, pool_[leaf_ref_]);
  } else {
    children_.clear();
    for (std::uint32_t c = nd.first_child; c != kNilNode;
         c = tree_->node(c).next_sibling) {
      if (lset_ref_[c] == kNilNode) {
        // A one-suffix or inert leaf emits nothing and is not in order_;
        // its lset is built only now that the parent needs it.
        PGASM_DCHECK(tree_->node(c).is_leaf(),
                     "an unvisited child of a visited node must be a leaf");
        lset_ref_[c] = pool_.alloc();
        collect_leaf(c, pool_[lset_ref_[c]]);
      }
      children_.push_back(c);
    }
    if (params_.dup_elim) dedup_children();
    ci_ = 0;
    cj_ = 1;
  }
}

void PairGenerator::collect_leaf(std::uint32_t leaf, NodeLsets& L) {
  const Node& nd = tree_->node(leaf);
  for (std::uint32_t i = nd.suffix_begin; i < nd.suffix_end; ++i) {
    arena_.push_back(L.cls[tree_->suffix(i).cls], i);
  }
}

void PairGenerator::dedup_children() {
  // Keep one arbitrary occurrence of each sequence across all (child,
  // class) slots under the current node; remove the rest (paper Section 5,
  // duplicate elimination). The boolean array is reset afterwards by
  // re-walking the retained entries, keeping the cost proportional to the
  // lset sizes, not to |sequences|.
  for (std::uint32_t child : children_) {
    NodeLsets& L = pool_[lset_ref_[child]];
    for (auto& lset : L.cls) {
      std::uint32_t prev = kNilEntry;
      std::uint32_t e = lset.head;
      while (e != kNilEntry) {
        const std::uint32_t s = tree_->suffix(e).seq;
        if (seen_[s]) {
          arena_.unlink_after(lset, prev);
          e = prev == kNilEntry ? lset.head : arena_.next(prev);
        } else {
          seen_[s] = 1;
          prev = e;
          e = arena_.next(e);
        }
      }
    }
  }
  for (std::uint32_t child : children_) {
    NodeLsets& L = pool_[lset_ref_[child]];
    for (auto& lset : L.cls) {
      for (std::uint32_t e = lset.head; e != kNilEntry; e = arena_.next(e)) {
        seen_[tree_->suffix(e).seq] = 0;
      }
    }
  }
}

void PairGenerator::finish_node(std::uint32_t u) {
  const Node& nd = tree_->node(u);
  const bool parent_needs =
      nd.parent != kNilNode &&
      tree_->node(nd.parent).depth >= tree_->params().min_match;
  if (leaf_) {
    if (parent_needs) {
      lset_ref_[u] = leaf_ref_;
    } else {
      pool_.release(leaf_ref_);
    }
    leaf_ref_ = kNilNode;
    return;
  }
  if (parent_needs) {
    const std::uint32_t ref = pool_.alloc();
    for (std::uint32_t child : children_) {
      for (int x = 0; x < kNumClasses; ++x) {
        arena_.concat(pool_[ref].cls[x], pool_[lset_ref_[child]].cls[x]);
      }
    }
    lset_ref_[u] = ref;
  }
  for (std::uint32_t child : children_) {
    pool_.release(lset_ref_[child]);
    lset_ref_[child] = kNilNode;
  }
}

bool PairGenerator::produce(PromisingPair& out) {
  const std::uint32_t depth = tree_->node(u_).depth;
  if (leaf_) {
    while (combo_ < kNumLeafCombos) {
      const Combo cb = kLeafCombos[combo_];
      const Lset& lx = pool_[leaf_ref_].cls[cb.x];
      const Lset& ly = pool_[leaf_ref_].cls[cb.y];
      if (cursors_fresh_) {
        p_ = lx.head;
        q_ = (cb.x == cb.y)
                 ? (p_ == kNilEntry ? kNilEntry : arena_.next(p_))
                 : ly.head;
        cursors_fresh_ = false;
      }
      while (p_ != kNilEntry) {
        if (q_ != kNilEntry) {
          const std::uint32_t a = p_, b = q_;
          q_ = arena_.next(q_);
          if (emit(a, b, depth, out)) return true;
          continue;
        }
        p_ = arena_.next(p_);
        q_ = (cb.x == cb.y)
                 ? (p_ == kNilEntry ? kNilEntry : arena_.next(p_))
                 : ly.head;
      }
      ++combo_;
      cursors_fresh_ = true;
    }
    return false;
  }

  const std::size_t m = children_.size();
  while (ci_ + 1 < m) {
    while (cj_ < m) {
      while (combo_ < kNumInternalCombos) {
        const Combo cb = kInternalCombos[combo_];
        const Lset& lx = pool_[lset_ref_[children_[ci_]]].cls[cb.x];
        const Lset& ly = pool_[lset_ref_[children_[cj_]]].cls[cb.y];
        if (lx.empty() || ly.empty()) {
          ++combo_;
          cursors_fresh_ = true;
          continue;
        }
        if (cursors_fresh_) {
          p_ = lx.head;
          q_ = ly.head;
          cursors_fresh_ = false;
        }
        while (p_ != kNilEntry) {
          if (q_ != kNilEntry) {
            const std::uint32_t a = p_, b = q_;
            q_ = arena_.next(q_);
            if (emit(a, b, depth, out)) return true;
            continue;
          }
          p_ = arena_.next(p_);
          q_ = ly.head;
        }
        ++combo_;
        cursors_fresh_ = true;
      }
      ++cj_;
      combo_ = 0;
    }
    ++ci_;
    cj_ = ci_ + 1;
  }
  return false;
}

bool PairGenerator::emit(std::uint32_t sfx_a, std::uint32_t sfx_b,
                         std::uint32_t len, PromisingPair& out) {
  const Suffix& sa = tree_->suffix(sfx_a);
  const Suffix& sb = tree_->suffix(sfx_b);
  if (sa.seq == sb.seq) {
    ++filtered_self_;
    return false;
  }
  // Translate to the enclosing store's ids before any strand logic: local
  // ids on a rank's tree do not preserve forward/RC adjacency.
  const std::uint32_t ida =
      params_.global_ids ? (*params_.global_ids)[sa.seq] : sa.seq;
  const std::uint32_t idb =
      params_.global_ids ? (*params_.global_ids)[sb.seq] : sb.seq;
  std::uint32_t first_id = ida, second_id = idb;
  std::uint32_t first_pos = sa.pos, second_pos = sb.pos;
  if (params_.doubled_input) {
    const std::uint32_t ga = ida >> 1, gb = idb >> 1;
    if (ga == gb) {
      ++filtered_self_;  // fragment paired with its own reverse complement
      return false;
    }
    if (ga > gb) {
      std::swap(first_id, second_id);
      std::swap(first_pos, second_pos);
    }
    if ((first_id & 1u) != 0) {
      ++filtered_mirror_;  // the strand-mirror image; its twin is emitted
      return false;
    }
  } else {
    if (ida > idb) {
      std::swap(first_id, second_id);
      std::swap(first_pos, second_pos);
    }
  }
  out.seq_a = first_id;
  out.pos_a = first_pos;
  out.seq_b = second_id;
  out.pos_b = second_pos;
  out.match_len = len;
  return true;
}

bool PairGenerator::next(PromisingPair& out) {
  while (!done_) {
    if (!in_node_) {
      if (oi_ >= order_.size()) {
        done_ = true;
        return false;
      }
      enter_node(order_[oi_++]);
      in_node_ = true;
    }
    if (produce(out)) {
      ++emitted_;
      return true;
    }
    finish_node(u_);
    in_node_ = false;
  }
  return false;
}

std::size_t PairGenerator::fill(std::vector<PromisingPair>& out,
                                std::size_t max) {
  std::size_t got = 0;
  PromisingPair p;
  while (got < max && next(p)) {
    out.push_back(p);
    ++got;
  }
  return got;
}

std::uint64_t PairGenerator::memory_bytes() const noexcept {
  return arena_.memory_bytes() + pool_.memory_bytes() +
         order_.size() * sizeof(std::uint32_t) +
         lset_ref_.size() * sizeof(std::uint32_t) + seen_.size();
}

std::vector<PromisingPair> PairGenerator::generate_all(const SuffixTree& tree,
                                                       PairGenParams params) {
  PairGenerator gen(tree, params);
  std::vector<PromisingPair> out;
  PromisingPair p;
  while (gen.next(p)) out.push_back(p);
  return out;
}

}  // namespace pgasm::gst
