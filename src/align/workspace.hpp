// Reusable scratch memory for the alignment kernels.
//
// Clustering and assembly call the banded suffix–prefix kernel once per
// promising pair — millions of times per run — and an allocating kernel
// would pay a heap allocation per call for its score cells and traceback
// matrix. A Workspace owns those buffers, plus the rolling rows and code
// scratch of the linear-space kernels, with grow-only semantics: each
// kernel call requests the sizes it needs, the workspace grows capacity the
// first few calls, and every later call of similar shape is served without
// touching the allocator.
//
// Buffers are returned DIRTY: a kernel taking a Workspace& must write every
// cell it will later read (see DESIGN.md section 9, "Memory discipline on
// the hot path"). banded_overlap_align_reference and the allocating
// hirschberg_align overload are fresh-memory variants kept precisely so
// tests can validate dirty-buffer reuse against them.
//
// The workspace counts its own allocator traffic (allocations performed vs
// avoided, bytes reserved/in use) so "zero allocations per pair after
// warmup" is a measurable claim, not an assumption; core::OverlapEngine
// publishes these counters into the obs registry.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "seq/alphabet.hpp"
#include "util/contract.hpp"

namespace pgasm::align {

class Workspace {
 public:
  /// DP score cells (layout is the kernel's choice). The banded kernel
  /// uses them as raw bytes, through std::memcpy, for its 16- or 32-bit
  /// anti-diagonal lanes and its padded sequence copies.
  int* score_cells(std::size_t n) { return grow(score_, n); }
  /// Traceback codes with the same geometry as the score cells.
  std::uint8_t* tb_cells(std::size_t n) { return grow(tb_, n); }
  /// Rolling DP rows (kernels may hold up to three at once).
  int* row(std::size_t which, std::size_t n) {
    PGASM_DCHECK(which < kRows, "workspace row index out of range");
    return grow(rows_[which], n);
  }
  /// Sequence scratch (reversed copies for Hirschberg's right halves).
  seq::Code* codes(std::size_t which, std::size_t n) {
    PGASM_DCHECK(which < kCodeBufs, "workspace code buffer out of range");
    return grow(codes_[which], n);
  }

  static constexpr std::size_t kRows = 3;
  static constexpr std::size_t kCodeBufs = 2;

  // --- instrumentation ----------------------------------------------------

  /// Heap allocations this workspace performed (buffer capacity growths).
  std::uint64_t allocations() const noexcept { return allocations_; }
  /// Buffer requests served from existing capacity — each one is an
  /// allocation the equivalent fresh-buffer kernel would have paid.
  std::uint64_t allocations_avoided() const noexcept {
    return allocations_avoided_;
  }
  /// Total bytes of capacity currently held.
  std::uint64_t bytes_reserved() const noexcept {
    std::uint64_t b = cap_bytes(score_) + cap_bytes(tb_);
    for (const auto& r : rows_) b += cap_bytes(r);
    for (const auto& c : codes_) b += cap_bytes(c);
    return b;
  }
  /// Bytes of the largest extent actually requested so far.
  std::uint64_t bytes_in_use() const noexcept {
    std::uint64_t b = use_bytes(score_) + use_bytes(tb_);
    for (const auto& r : rows_) b += use_bytes(r);
    for (const auto& c : codes_) b += use_bytes(c);
    return b;
  }
  void reset_stats() noexcept { allocations_ = allocations_avoided_ = 0; }

 private:
  template <typename T>
  T* grow(std::vector<T>& v, std::size_t n) {
    if (n > v.capacity()) {
      ++allocations_;
      v.reserve(n);
    } else if (n > 0) {
      ++allocations_avoided_;
    }
    // resize only ever value-initializes newly grown tail cells; the reused
    // prefix keeps whatever the previous call left there (dirty by design).
    if (n > v.size()) v.resize(n);
    return v.data();
  }

  template <typename T>
  static std::uint64_t cap_bytes(const std::vector<T>& v) noexcept {
    return static_cast<std::uint64_t>(v.capacity()) * sizeof(T);
  }
  template <typename T>
  static std::uint64_t use_bytes(const std::vector<T>& v) noexcept {
    return static_cast<std::uint64_t>(v.size()) * sizeof(T);
  }

  std::vector<int> score_;
  std::vector<std::uint8_t> tb_;
  std::vector<int> rows_[kRows];
  std::vector<seq::Code> codes_[kCodeBufs];
  std::uint64_t allocations_ = 0;
  std::uint64_t allocations_avoided_ = 0;
};

}  // namespace pgasm::align
