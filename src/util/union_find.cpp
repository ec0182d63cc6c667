#include "util/union_find.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "util/contract.hpp"

namespace pgasm::util {

void UnionFind::reset(std::size_t n) {
  parent_.resize(n);
  std::iota(parent_.begin(), parent_.end(), Id{0});
  size_.assign(n, 1);
  num_sets_ = n;
}

UnionFind::Id UnionFind::find(Id x) noexcept {
  PGASM_DCHECK(x < parent_.size(), "union-find id out of range");
  while (parent_[x] != x) {
    parent_[x] = parent_[parent_[x]];  // path halving
    x = parent_[x];
  }
  return x;
}

UnionFind::Id UnionFind::find_const(Id x) const noexcept {
  PGASM_DCHECK(x < parent_.size(), "union-find id out of range");
  while (parent_[x] != x) x = parent_[x];
  return x;
}

bool UnionFind::unite(Id a, Id b) noexcept {
  PGASM_DCHECK(a < parent_.size() && b < parent_.size(),
               "union-find id out of range");
  Id ra = find(a);
  Id rb = find(b);
  if (ra == rb) return false;
  if (size_[ra] < size_[rb]) std::swap(ra, rb);
  parent_[rb] = ra;
  size_[ra] += size_[rb];
  --num_sets_;
  return true;
}

std::uint32_t UnionFind::max_set_size() const noexcept {
  std::uint32_t best = 0;
  for (Id x = 0; x < parent_.size(); ++x) {
    if (parent_[x] == x) best = std::max(best, size_[x]);
  }
  return best;
}

std::vector<std::vector<UnionFind::Id>> UnionFind::extract_sets() const {
  const std::size_t n = parent_.size();
  // Map representative -> dense cluster index, in increasing rep order.
  std::vector<Id> rep_index(n, 0);
  Id next = 0;
  for (Id x = 0; x < n; ++x) {
    if (parent_[x] == x) rep_index[x] = next++;
  }
  std::vector<std::vector<Id>> sets(next);
  for (Id x = 0; x < n; ++x) {
    Id r = find_const(x);
    sets[rep_index[r]].push_back(x);
  }
  return sets;
}

std::vector<UnionFind::Id> UnionFind::labels() const {
  const std::size_t n = parent_.size();
  std::vector<Id> rep_index(n, 0);
  Id next = 0;
  for (Id x = 0; x < n; ++x) {
    if (parent_[x] == x) rep_index[x] = next++;
  }
  std::vector<Id> out(n);
  for (Id x = 0; x < n; ++x) out[x] = rep_index[find_const(x)];
  return out;
}

UnionFind UnionFind::from_labels(std::span<const Id> labels) {
  // Unite each element with the first element seen carrying its label.
  UnionFind uf(labels.size());
  std::vector<Id> first(labels.size(), std::numeric_limits<Id>::max());
  for (Id i = 0; i < labels.size(); ++i) {
    const Id l = labels[i];
    if (l >= first.size())
      throw std::invalid_argument("union-find label out of range");
    if (first[l] == std::numeric_limits<Id>::max()) {
      first[l] = i;
    } else {
      uf.unite(first[l], i);
    }
  }
  return uf;
}

}  // namespace pgasm::util
