// Union-Find (disjoint set union) used by the clustering framework.
//
// The paper (Section 7) keeps the cluster set on the master processor as a
// Union-Find structure over fragment ids: find/union run in amortized
// inverse-Ackermann time, and the array representation costs 4 bytes per
// fragment, which is what bounds master memory at O(n).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace pgasm::util {

class UnionFind {
 public:
  using Id = std::uint32_t;

  UnionFind() = default;
  explicit UnionFind(std::size_t n) { reset(n); }

  /// Re-initialize to n singleton sets.
  void reset(std::size_t n);

  std::size_t size() const noexcept { return parent_.size(); }

  /// Number of disjoint sets currently alive.
  std::size_t num_sets() const noexcept { return num_sets_; }

  /// Representative of x's set, with path halving.
  Id find(Id x) noexcept;

  /// const find: no path compression (usable from observers).
  Id find_const(Id x) const noexcept;

  bool same(Id a, Id b) noexcept { return find(a) == find(b); }

  /// Merge the sets containing a and b. Returns true if a merge happened
  /// (they were previously distinct), false if already in the same set.
  bool unite(Id a, Id b) noexcept;

  /// Size of the set containing x.
  std::uint32_t set_size(Id x) noexcept { return size_[find(x)]; }

  /// Size of the largest set.
  std::uint32_t max_set_size() const noexcept;

  /// Materialize the clustering: result[i] lists the members of cluster i.
  /// Order of clusters and of members within a cluster is deterministic
  /// (increasing representative id / member id).
  std::vector<std::vector<Id>> extract_sets() const;

  /// Dense labeling: label[x] in [0, num_sets), equal labels iff same set.
  std::vector<Id> labels() const;

  /// The partition whose sets are the equal-label classes of `labels`
  /// (the inverse of labels()). Throws std::invalid_argument on a label
  /// >= labels.size().
  static UnionFind from_labels(std::span<const Id> labels);

 private:
  std::vector<Id> parent_;
  std::vector<std::uint32_t> size_;  // valid at representatives only
  std::size_t num_sets_ = 0;
};

}  // namespace pgasm::util
