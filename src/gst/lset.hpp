// lsets (Definition 2 in the paper): per-node partitions of the suffixes in
// a node's subtree, keyed by the character *preceding* each suffix (λ for
// suffixes that start their fragment or follow a masked position).
//
// Representation: one singly-linked arena whose entry ids are suffix indices
// — a suffix lives in exactly one lset at any time, and lists are dissolved
// into their parent by O(1) concatenation, which is what gives the paper its
// O(1)-per-pair generation cost and O(N) space (Lemma 2).
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <vector>

#include "gst/suffix.hpp"
#include "util/contract.hpp"

namespace pgasm::gst {

inline constexpr std::uint32_t kNilEntry =
    std::numeric_limits<std::uint32_t>::max();

/// One linked list within the arena.
struct Lset {
  std::uint32_t head = kNilEntry;
  std::uint32_t tail = kNilEntry;
  std::uint32_t count = 0;

  bool empty() const noexcept { return head == kNilEntry; }
  void clear() noexcept {
    head = tail = kNilEntry;
    count = 0;
  }
};

/// Arena of `next` links, one slot per suffix index.
class LsetArena {
 public:
  explicit LsetArena(std::size_t capacity) : next_(capacity, kNilEntry) {}

  std::uint32_t next(std::uint32_t e) const noexcept { return next_[e]; }

  /// Append entry e (a suffix index not currently in any list) to l.
  void push_back(Lset& l, std::uint32_t e) noexcept {
    PGASM_DCHECK(e < next_.size(), "lset entry outside arena");
    next_[e] = kNilEntry;
    if (l.empty()) {
      l.head = l.tail = e;
    } else {
      next_[l.tail] = e;
      l.tail = e;
    }
    ++l.count;
  }

  /// Concatenate b onto a in O(1); b becomes empty.
  void concat(Lset& a, Lset& b) noexcept {
    if (b.empty()) return;
    if (a.empty()) {
      a = b;
    } else {
      next_[a.tail] = b.head;
      a.tail = b.tail;
      a.count += b.count;
    }
    b.clear();
  }

  /// Unlink the entry *after* prev (or the head when prev == kNilEntry).
  /// Returns the id of the removed entry.
  std::uint32_t unlink_after(Lset& l, std::uint32_t prev) noexcept {
    PGASM_DCHECK(!l.empty(), "unlink from empty lset");
    std::uint32_t victim;
    if (prev == kNilEntry) {
      victim = l.head;
      l.head = next_[victim];
      if (l.head == kNilEntry) l.tail = kNilEntry;
    } else {
      victim = next_[prev];
      next_[prev] = next_[victim];
      if (l.tail == victim) l.tail = prev;
    }
    --l.count;
    return victim;
  }

  std::uint64_t memory_bytes() const noexcept {
    return next_.size() * sizeof(std::uint32_t);
  }

 private:
  std::vector<std::uint32_t> next_;
};

/// The five lsets of one live node.
struct NodeLsets {
  std::array<Lset, kNumClasses> cls{};

  void clear() noexcept {
    for (auto& l : cls) l.clear();
  }
  std::uint32_t total() const noexcept {
    std::uint32_t t = 0;
    for (const auto& l : cls) t += l.count;
    return t;
  }
};

/// Pool of NodeLsets with a free list: only the internal frontier (internal
/// nodes and multi-suffix leaves processed but their parent not yet) holds
/// live lsets between node visits, so the pool stays small. One-suffix
/// leaves and inert subtrees take an entry only while their parent is
/// being processed.
class LsetPool {
 public:
  std::uint32_t alloc() {
    if (!free_.empty()) {
      const std::uint32_t r = free_.back();
      free_.pop_back();
      pool_[r].clear();
      return r;
    }
    pool_.emplace_back();
    return static_cast<std::uint32_t>(pool_.size() - 1);
  }

  void release(std::uint32_t r) { free_.push_back(r); }

  NodeLsets& operator[](std::uint32_t r) noexcept { return pool_[r]; }
  const NodeLsets& operator[](std::uint32_t r) const noexcept {
    return pool_[r];
  }

  std::size_t live() const noexcept { return pool_.size() - free_.size(); }
  std::uint64_t memory_bytes() const noexcept {
    return pool_.size() * sizeof(NodeLsets) +
           free_.size() * sizeof(std::uint32_t);
  }

 private:
  std::vector<NodeLsets> pool_;
  std::vector<std::uint32_t> free_;
};

}  // namespace pgasm::gst
