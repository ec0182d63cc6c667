#include "align/linear_space.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "align/workspace.hpp"

namespace pgasm::align {

namespace {

/// Last row of the global DP (linear gaps) for a vs b, written into `out`
/// (b.size()+1 entries); `scratch` is the rolling second row. Both buffers
/// arrive dirty and are fully overwritten.
void nw_score_row(Seq a, Seq b, const Scoring& sc, int* out, int* scratch) {
  int* prev = out;
  int* cur = scratch;
  for (std::size_t j = 0; j <= b.size(); ++j)
    prev[j] = static_cast<int>(j) * sc.gap;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    cur[0] = static_cast<int>(i) * sc.gap;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const int diag = prev[j - 1] + sc.substitution(a[i - 1], b[j - 1]);
      const int up = prev[j] + sc.gap;
      const int left = cur[j - 1] + sc.gap;
      cur[j] = std::max({diag, up, left});
    }
    std::swap(prev, cur);
  }
  if (prev != out) std::copy_n(prev, b.size() + 1, out);
}

/// Base case: `x` is the only symbol of one side and `s` the whole other
/// side; `skip_x` / `skip_s` are the ops that gap a symbol of each. Pairing
/// x with s[j] scores substitution + (|s|-1) gaps; gapping x scores
/// (|s|+1) gaps, so pairing wins when its substitution beats two gaps.
void align_one(seq::Code x, Seq s, const Scoring& sc, Op skip_x, Op skip_s,
               std::vector<Op>& out) {
  std::size_t best_j = s.size();
  int best = 2 * sc.gap;
  for (std::size_t j = 0; j < s.size(); ++j) {
    const int v = sc.substitution(x, s[j]);
    if (v > best) {
      best = v;
      best_j = j;
    }
  }
  if (best_j == s.size()) {
    out.push_back(skip_x);
    out.insert(out.end(), s.size(), skip_s);
    return;
  }
  out.insert(out.end(), best_j, skip_s);
  out.push_back(seq::is_base(x) && x == s[best_j] ? Op::kMatch
                                                  : Op::kMismatch);
  out.insert(out.end(), s.size() - best_j - 1, skip_s);
}

// Workspace buffer use per recursion level: rows 0/1 hold score_left /
// score_right, row 2 is the rolling scratch; code buffers 0/1 hold the
// reversed right halves. All are dead before either recursive call, so one
// workspace serves the whole recursion.
void hirschberg_ops(Seq a, Seq b, const Scoring& sc, Workspace& ws,
                    std::vector<Op>& out) {
  if (a.empty()) {
    out.insert(out.end(), b.size(), Op::kInsertB);
    return;
  }
  if (b.empty()) {
    out.insert(out.end(), a.size(), Op::kInsertA);
    return;
  }
  if (a.size() == 1) {
    align_one(a[0], b, sc, Op::kInsertA, Op::kInsertB, out);
    return;
  }
  if (b.size() == 1) {
    align_one(b[0], a, sc, Op::kInsertB, Op::kInsertA, out);
    return;
  }
  const std::size_t mid = a.size() / 2;
  const Seq a_left(a.data(), mid);
  const Seq a_right(a.data() + mid, a.size() - mid);
  const std::size_t row_n = b.size() + 1;

  int* score_left = ws.row(0, row_n);
  nw_score_row(a_left, b, sc, score_left, ws.row(2, row_n));

  // Reversed halves for the right side.
  seq::Code* ar = ws.codes(0, a_right.size());
  std::reverse_copy(a_right.begin(), a_right.end(), ar);
  seq::Code* br = ws.codes(1, b.size());
  std::reverse_copy(b.begin(), b.end(), br);
  int* score_right = ws.row(1, row_n);
  nw_score_row(Seq(ar, a_right.size()), Seq(br, b.size()), sc, score_right,
               ws.row(2, row_n));

  std::size_t best_j = 0;
  int best = std::numeric_limits<int>::min();
  for (std::size_t j = 0; j <= b.size(); ++j) {
    const int v = score_left[j] + score_right[b.size() - j];
    if (v > best) {
      best = v;
      best_j = j;
    }
  }
  hirschberg_ops(a_left, Seq(b.data(), best_j), sc, ws, out);
  hirschberg_ops(a_right, Seq(b.data() + best_j, b.size() - best_j), sc, ws,
                 out);
}

}  // namespace

AlignResult hirschberg_align(Seq a, Seq b, const Scoring& sc) {
  Workspace ws;  // allocating path: fresh buffers every call
  return hirschberg_align(a, b, sc, ws);
}

AlignResult hirschberg_align(Seq a, Seq b, const Scoring& sc, Workspace& ws) {
  AlignResult r;
  hirschberg_ops(a, b, sc, ws, r.ops);
  // Derive score/counts from the op string.
  std::size_t i = 0, j = 0;
  for (const Op op : r.ops) {
    switch (op) {
      case Op::kMatch:
      case Op::kMismatch: {
        const bool eq = seq::is_base(a[i]) && a[i] == b[j];
        r.matches += eq;
        r.score += sc.substitution(a[i], b[j]);
        ++i;
        ++j;
        break;
      }
      case Op::kInsertA:
        r.score += sc.gap;
        ++i;
        break;
      case Op::kInsertB:
        r.score += sc.gap;
        ++j;
        break;
    }
    ++r.columns;
  }
  r.a_end = static_cast<std::uint32_t>(a.size());
  r.b_end = static_cast<std::uint32_t>(b.size());
  return r;
}

namespace {

/// Blocked Myers/Hyyrö bit-parallel core. Returns the edit distance, or
/// stops early returning k+1 when `bound` is set and exceeded.
std::uint32_t myers_core(Seq a, Seq b, std::optional<std::uint32_t> bound) {
  const std::size_t m = a.size();
  const std::size_t n = b.size();
  if (m == 0) return static_cast<std::uint32_t>(n);
  if (n == 0) return static_cast<std::uint32_t>(m);

  const std::size_t blocks = (m + 63) / 64;
  // Peq[block][code]: bit i set iff a[block*64 + i] == code. Masked pattern
  // characters set no bits (mismatch everything).
  std::vector<std::uint64_t> peq(blocks * seq::kSigma, 0);
  for (std::size_t i = 0; i < m; ++i) {
    if (seq::is_base(a[i])) {
      peq[(i / 64) * seq::kSigma + a[i]] |= 1ull << (i % 64);
    }
  }
  std::vector<std::uint64_t> pv(blocks, ~0ull), mv(blocks, 0);
  const std::uint64_t last_bit = 1ull << ((m - 1) % 64);
  std::uint32_t score = static_cast<std::uint32_t>(m);

  for (std::size_t j = 0; j < n; ++j) {
    const seq::Code c = b[j];
    // The DP boundary row D(0, j) = j increases by one every column: that
    // is a horizontal +1 entering the first block.
    int hin = 1;
    for (std::size_t blk = 0; blk < blocks; ++blk) {
      std::uint64_t eq =
          seq::is_base(c) ? peq[blk * seq::kSigma + c] : 0ull;
      const std::uint64_t pv_b = pv[blk];
      const std::uint64_t mv_b = mv[blk];
      const std::uint64_t xv = eq | mv_b;
      if (hin < 0) eq |= 1ull;
      const std::uint64_t xh = (((eq & pv_b) + pv_b) ^ pv_b) | eq;
      std::uint64_t ph = mv_b | ~(xh | pv_b);
      std::uint64_t mh = pv_b & xh;

      const std::uint64_t top =
          (blk + 1 == blocks) ? last_bit : (1ull << 63);
      int hout = 0;
      if (ph & top) hout = 1;
      else if (mh & top) hout = -1;

      ph <<= 1;
      mh <<= 1;
      if (hin < 0) mh |= 1ull;
      if (hin > 0) ph |= 1ull;

      pv[blk] = mh | ~(xv | ph);
      mv[blk] = ph & xv;
      hin = hout;
    }
    score = static_cast<std::uint32_t>(static_cast<int>(score) + hin);
    if (bound) {
      const std::size_t remaining = n - 1 - j;
      if (score > *bound + remaining) return *bound + 1;
    }
  }
  return score;
}

}  // namespace

std::uint32_t myers_edit_distance(Seq a, Seq b) {
  return myers_core(a, b, std::nullopt);
}

std::uint32_t myers_edit_distance_bounded(Seq a, Seq b, std::uint32_t k) {
  const std::uint32_t d = myers_core(a, b, k);
  return std::min(d, k + 1);
}

}  // namespace pgasm::align
