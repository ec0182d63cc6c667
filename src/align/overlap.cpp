#include "align/overlap.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "align/workspace.hpp"

namespace pgasm::align {

namespace {

constexpr int kNegInf = std::numeric_limits<int>::min() / 4;
enum Tb : std::uint8_t { kStop = 0, kDiag = 1, kUp = 2, kLeft = 3 };

OverlapType classify(std::uint32_t la, std::uint32_t lb,
                     const AlignResult& r) {
  const bool a_full = r.a_begin == 0 && r.a_end == la;
  const bool b_full = r.b_begin == 0 && r.b_end == lb;
  if (a_full && b_full) {
    return la >= lb ? OverlapType::kContainsB : OverlapType::kContainedInB;
  }
  if (b_full) return OverlapType::kContainsB;
  if (a_full) return OverlapType::kContainedInB;
  if (r.a_end == la && r.b_begin == 0) return OverlapType::kDovetailAB;
  if (r.b_end == lb && r.a_begin == 0) return OverlapType::kDovetailBA;
  return OverlapType::kNone;
}

/// Walks the traceback from end cell (i, j) to its kStop start cell and
/// fills the aligned region, matches, columns and, with keep_ops, the op
/// string. `cell(i, j)` maps a matrix cell to its index in `tb`.
template <typename CellIndex>
void trace_back(Seq a, Seq b, const std::uint8_t* tb, CellIndex cell,
                std::int64_t i, std::int64_t j, const AlignOptions& opts,
                AlignResult& r) {
  r.a_end = static_cast<std::uint32_t>(i);
  r.b_end = static_cast<std::uint32_t>(j);
  // A path from (i, j) has at most i + j columns: one allocation.
  if (opts.keep_ops) r.ops.reserve(static_cast<std::size_t>(i + j));
  std::uint32_t matches = 0, columns = 0;
  for (std::uint8_t dir; (dir = tb[cell(i, j)]) != kStop; ++columns) {
    Op op{};
    switch (dir) {
      case kDiag:
        --i;
        --j;
        op = seq::is_base(a[i]) && a[i] == b[j] ? Op::kMatch : Op::kMismatch;
        matches += op == Op::kMatch;
        break;
      case kUp:
        --i;
        op = Op::kInsertA;
        break;
      case kLeft:
        --j;
        op = Op::kInsertB;
        break;
      default:
        throw std::logic_error("bad traceback");
    }
    if (opts.keep_ops) r.ops.push_back(op);
  }
  std::reverse(r.ops.begin(), r.ops.end());
  r.a_begin = static_cast<std::uint32_t>(i);
  r.b_begin = static_cast<std::uint32_t>(j);
  r.matches = matches;
  r.columns = columns;
}

/// trace_back's cell index for the banded sweep: anti-diagonal k = i + j
/// from kmin, `width` direction bytes each, lane (j − i − dl + 1) / 2.
/// Defined here, outside the AVX2 pragma, so trace_back can inline it in
/// either build.
struct BandCell {
  std::int64_t kmin, dl, width;
  std::size_t operator()(std::int64_t i, std::int64_t j) const {
    return static_cast<std::size_t>((i + j - kmin) * width +
                                    ((j - i - dl + 1) >> 1));
  }
};

/// Score of every off-matrix and out-of-band lane of the banded sweep,
/// rewritten after each anti-diagonal so it never drifts.
template <typename T>
constexpr T kPoison = static_cast<T>(std::numeric_limits<T>::min() +
                                     std::numeric_limits<T>::max() / 8 + 1);

/// Can T lanes hold the banded sweep of sequences of total length `len`
/// with weights of magnitude at most `w`? A real cell on anti-diagonal k
/// scores within ±w·k, so every real candidate lies within ±w·(len + 1);
/// a poison candidate is at most kPoison + w, below every real one, and
/// at least kPoison − w, above T's minimum. Nothing can overflow.
template <typename T>
bool lanes_fit(std::int64_t len, std::int64_t w) {
  return w <= std::numeric_limits<T>::max() / 8 + 1 &&
         w * (len + 2) <= -std::int64_t{kPoison<T>};
}

// The sweep's two builds (align/band_sweep.inc). The AVX2 one exists only
// where the compiler can target it; banded_overlap_align picks it once per
// process when the CPU has AVX2.
namespace vec16 {
constexpr std::size_t kVecBytes = 16;
#include "align/band_sweep.inc"
}  // namespace vec16

#if defined(__x86_64__) || defined(__i386__)
#define PGASM_AVX2_SWEEP 1
#if defined(__clang__)
#pragma clang attribute push(__attribute__((target("avx2"))), \
                             apply_to = function)
#else
#pragma GCC push_options
#pragma GCC target("avx2")
#endif
namespace avx2 {
constexpr std::size_t kVecBytes = 32;
#include "align/band_sweep.inc"
}  // namespace avx2
#if defined(__clang__)
#pragma clang attribute pop
#else
#pragma GCC pop_options
#endif
#endif

template <typename T>
OverlapResult band_sweep_on(detail::Sweep build, Seq a, Seq b,
                            const Scoring& sc, std::int32_t shift,
                            std::uint32_t band, Workspace& ws,
                            const AlignOptions& opts) {
#ifdef PGASM_AVX2_SWEEP
  if (build == detail::Sweep::kAvx2) {
    return avx2::band_sweep<T>(a, b, sc, shift, band, ws, opts);
  }
#else
  (void)build;
#endif
  return vec16::band_sweep<T>(a, b, sc, shift, band, ws, opts);
}

}  // namespace

OverlapResult overlap_align(Seq a, Seq b, const Scoring& sc, Workspace& ws,
                            const AlignOptions& opts) {
  const std::size_t la = a.size(), lb = b.size();
  const std::size_t stride = lb + 1;
  int* score = ws.score_cells((la + 1) * stride);
  std::uint8_t* tb = ws.tb_cells((la + 1) * stride);

  // Row 0 and column 0 are score 0 / kStop: free leading gaps. Buffers are
  // dirty, so write the edges explicitly; the loop writes everything else.
  for (std::size_t j = 0; j <= lb; ++j) {
    score[j] = 0;
    tb[j] = kStop;
  }
  for (std::size_t i = 1; i <= la; ++i) {
    score[i * stride] = 0;
    tb[i * stride] = kStop;
  }

  for (std::size_t i = 1; i <= la; ++i) {
    const int* prev = score + (i - 1) * stride;
    int* cur = score + i * stride;
    std::uint8_t* tcur = tb + i * stride;
    for (std::size_t j = 1; j <= lb; ++j) {
      const int diag = prev[j - 1] + sc.substitution(a[i - 1], b[j - 1]);
      const int up = prev[j] + sc.gap;
      const int left = cur[j - 1] + sc.gap;
      int best = diag;
      std::uint8_t dir = kDiag;
      if (up > best) {
        best = up;
        dir = kUp;
      }
      if (left > best) {
        best = left;
        dir = kLeft;
      }
      cur[j] = best;
      tcur[j] = dir;
    }
  }

  // Best end on the last row or last column (free trailing gaps). Visit
  // order — last column ascending, then last row ascending — matches the
  // banded kernels' end scan so ties resolve identically and a covering
  // band reproduces this kernel bit for bit.
  int best = kNegInf;
  std::size_t bi = la, bj = lb;
  for (std::size_t i = 0; i < la; ++i) {
    if (score[i * stride + lb] > best) {
      best = score[i * stride + lb];
      bi = i;
      bj = lb;
    }
  }
  for (std::size_t j = 0; j <= lb; ++j) {
    if (score[la * stride + j] > best) {
      best = score[la * stride + j];
      bi = la;
      bj = j;
    }
  }

  OverlapResult r;
  r.aln.score = best;
  trace_back(
      a, b, tb,
      [stride](std::int64_t i, std::int64_t j) {
        return static_cast<std::size_t>(i) * stride +
               static_cast<std::size_t>(j);
      },
      static_cast<std::int64_t>(bi), static_cast<std::int64_t>(bj), opts,
      r.aln);
  r.type = classify(static_cast<std::uint32_t>(la),
                    static_cast<std::uint32_t>(lb), r.aln);
  return r;
}

OverlapResult overlap_align(Seq a, Seq b, const Scoring& sc,
                            const AlignOptions& opts) {
  Workspace ws;  // allocating path: fresh buffers every call
  return overlap_align(a, b, sc, ws, opts);
}

namespace detail {

Sweep selected_sweep() noexcept {
#ifdef PGASM_AVX2_SWEEP
  static const Sweep build =
      __builtin_cpu_supports("avx2") ? Sweep::kAvx2 : Sweep::kVec16;
  return build;
#else
  return Sweep::kVec16;
#endif
}

const char* sweep_name(Sweep build) noexcept {
  return build == Sweep::kAvx2 ? "avx2" : "vec16";
}

OverlapResult banded_overlap_align(Sweep build, Seq a, Seq b,
                                   const Scoring& sc, std::int32_t shift,
                                   std::uint32_t band, Workspace& ws,
                                   const AlignOptions& opts) {
  if (build == Sweep::kAvx2 && selected_sweep() != Sweep::kAvx2) {
    throw std::invalid_argument(
        "banded_overlap_align: this CPU cannot run the AVX2 sweep");
  }
  const std::int64_t len = static_cast<std::int64_t>(a.size() + b.size());
  const std::int64_t w = std::max({std::abs(std::int64_t{sc.match}),
                                   std::abs(std::int64_t{sc.mismatch}),
                                   std::abs(std::int64_t{sc.gap})});
  if (lanes_fit<std::int16_t>(len, w)) {
    return band_sweep_on<std::int16_t>(build, a, b, sc, shift, band, ws,
                                       opts);
  }
  if (lanes_fit<std::int32_t>(len, w)) {
    return band_sweep_on<std::int32_t>(build, a, b, sc, shift, band, ws,
                                       opts);
  }
  throw std::invalid_argument(
      "banded_overlap_align: |weight| x (|a| + |b|) overflows 32-bit scores");
}

}  // namespace detail

OverlapResult banded_overlap_align(Seq a, Seq b, const Scoring& sc,
                                   std::int32_t shift, std::uint32_t band,
                                   Workspace& ws, const AlignOptions& opts) {
  return detail::banded_overlap_align(detail::selected_sweep(), a, b, sc,
                                      shift, band, ws, opts);
}

int banded_overlap_score_bound(std::uint32_t la, std::uint32_t lb,
                               std::int32_t shift, std::uint32_t band,
                               const Scoring& sc) noexcept {
  constexpr int kNoBound = std::numeric_limits<int>::max();
  if (sc.match <= 0 || sc.gap > 0 || sc.mismatch > sc.match) return kNoBound;
  const std::int64_t a = la, b = lb;
  // Start diagonals: in band and on the matrix (d in [-la, lb]).
  const std::int64_t lo = std::max<std::int64_t>(shift - std::int64_t{band}, -a);
  const std::int64_t hi = std::min<std::int64_t>(shift + std::int64_t{band}, b);
  std::int64_t best = 0;
  for (const std::int64_t d : {lo, hi, std::int64_t{0}, b - a}) {
    if (d < lo || d > hi) continue;
    best = std::max(best, std::min({a, b, b - d, a + d}));
  }
  return static_cast<int>(
      std::min<std::int64_t>(best * sc.match, kNoBound));
}

OverlapResult banded_overlap_align_reference(Seq a, Seq b, const Scoring& sc,
                                             std::int32_t shift,
                                             std::uint32_t band,
                                             const AlignOptions& opts) {
  const std::int64_t la = static_cast<std::int64_t>(a.size());
  const std::int64_t lb = static_cast<std::int64_t>(b.size());
  const std::int64_t B = static_cast<std::int64_t>(band);
  const std::size_t width = 2 * band + 1;

  // Fresh, zero-cleared buffers every call — the pre-refactor cost model.
  std::vector<int> score(static_cast<std::size_t>(la + 1) * width, kNegInf);
  std::vector<std::uint8_t> tb(static_cast<std::size_t>(la + 1) * width,
                               kStop);

  auto jlo = [&](std::int64_t i) {
    return std::max<std::int64_t>(0, i + shift - B);
  };
  auto jhi = [&](std::int64_t i) {
    return std::min<std::int64_t>(lb, i + shift + B);
  };
  auto cell = [&](std::int64_t i, std::int64_t j) -> std::size_t {
    return static_cast<std::size_t>(i) * width +
           static_cast<std::size_t>(j - (i + shift - B));
  };

  int best = kNegInf;
  std::int64_t bi = -1, bj = -1;
  auto consider_end = [&](std::int64_t i, std::int64_t j, int v) {
    if ((i == la || j == lb) && v > best) {
      best = v;
      bi = i;
      bj = j;
    }
  };

  for (std::int64_t i = 0; i <= la; ++i) {
    const std::int64_t lo = jlo(i), hi = jhi(i);
    if (lo > hi) continue;
    for (std::int64_t j = lo; j <= hi; ++j) {
      const std::size_t c = cell(i, j);
      if (i == 0 || j == 0) {
        score[c] = 0;  // free leading gaps on both edges
        tb[c] = kStop;
        consider_end(i, j, 0);
        continue;
      }
      int v = kNegInf;
      std::uint8_t dir = kStop;
      if (j - 1 >= jlo(i - 1) && j - 1 <= jhi(i - 1)) {
        const int s = score[cell(i - 1, j - 1)];
        if (s > kNegInf) {
          const int cand = s + sc.substitution(a[i - 1], b[j - 1]);
          if (cand > v) {
            v = cand;
            dir = kDiag;
          }
        }
      }
      if (j >= jlo(i - 1) && j <= jhi(i - 1)) {
        const int s = score[cell(i - 1, j)];
        if (s > kNegInf) {
          const int cand = s + sc.gap;
          if (cand > v) {
            v = cand;
            dir = kUp;
          }
        }
      }
      if (j - 1 >= lo) {
        const int s = score[cell(i, j - 1)];
        if (s > kNegInf) {
          const int cand = s + sc.gap;
          if (cand > v) {
            v = cand;
            dir = kLeft;
          }
        }
      }
      if (dir == kStop) continue;  // unreachable within band
      score[c] = v;
      tb[c] = dir;
      consider_end(i, j, v);
    }
  }

  OverlapResult r;
  if (bi < 0) {
    r.aln.score = kNegInf;
    return r;
  }
  r.aln.score = best;
  std::int64_t i = bi, j = bj;
  r.aln.a_end = static_cast<std::uint32_t>(i);
  r.aln.b_end = static_cast<std::uint32_t>(j);
  std::vector<Op> rev;
  std::uint32_t matches = 0, columns = 0;
  while (tb[cell(i, j)] != kStop) {
    switch (tb[cell(i, j)]) {
      case kDiag: {
        --i;
        --j;
        const bool eq = seq::is_base(a[i]) && a[i] == b[j];
        rev.push_back(eq ? Op::kMatch : Op::kMismatch);
        matches += eq;
        ++columns;
        break;
      }
      case kUp:
        --i;
        rev.push_back(Op::kInsertA);
        ++columns;
        break;
      case kLeft:
        --j;
        rev.push_back(Op::kInsertB);
        ++columns;
        break;
      default:
        throw std::logic_error("bad traceback");
    }
  }
  r.aln.a_begin = static_cast<std::uint32_t>(i);
  r.aln.b_begin = static_cast<std::uint32_t>(j);
  r.aln.matches = matches;
  r.aln.columns = columns;
  if (opts.keep_ops) r.aln.ops.assign(rev.rbegin(), rev.rend());
  r.type = classify(static_cast<std::uint32_t>(la),
                    static_cast<std::uint32_t>(lb), r.aln);
  return r;
}

bool accept_overlap(const OverlapResult& r, const OverlapParams& p) noexcept {
  if (r.type == OverlapType::kNone) return false;
  if (r.overlap_len() < p.min_overlap) return false;
  return r.aln.identity() >= p.min_identity;
}

void validate_overlap_params(const OverlapParams& p, std::uint32_t psi) {
  if (p.band == 0) {
    throw std::invalid_argument(
        "overlap params: band must be > 0 (a zero-width band explores only "
        "one diagonal and rejects every gapped overlap)");
  }
  if (!(p.min_identity > 0.0) || p.min_identity > 1.0) {
    throw std::invalid_argument(
        "overlap params: min_identity must be in (0, 1], got " +
        std::to_string(p.min_identity));
  }
  if (p.min_overlap < psi) {
    throw std::invalid_argument(
        "overlap params: min_overlap (" + std::to_string(p.min_overlap) +
        ") must be >= psi (" + std::to_string(psi) +
        "); pairs are only generated from exact matches of length >= psi, "
        "so shorter overlaps can never be found and clusters would silently "
        "stay singletons");
  }
}

}  // namespace pgasm::align
