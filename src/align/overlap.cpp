#include "align/overlap.hpp"

#include <algorithm>
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

}  // namespace

const char* overlap_type_name(OverlapType t) noexcept {
  switch (t) {
    case OverlapType::kNone: return "none";
    case OverlapType::kDovetailAB: return "dovetail(a->b)";
    case OverlapType::kDovetailBA: return "dovetail(b->a)";
    case OverlapType::kContainsB: return "contains(b)";
    case OverlapType::kContainedInB: return "contained-in(b)";
  }
  return "?";
}

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
  // banded kernels' row-major end scan so ties resolve identically and a
  // covering band reproduces this kernel bit for bit.
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
  r.aln.a_end = static_cast<std::uint32_t>(bi);
  r.aln.b_end = static_cast<std::uint32_t>(bj);
  std::size_t i = bi, j = bj;
  std::uint32_t matches = 0, columns = 0;
  while (tb[i * stride + j] != kStop) {
    switch (tb[i * stride + j]) {
      case kDiag:
        --i;
        --j;
        matches += seq::is_base(a[i]) && a[i] == b[j];
        break;
      case kUp:
        --i;
        break;
      case kLeft:
        --j;
        break;
      default:
        throw std::logic_error("bad traceback");
    }
    ++columns;
  }
  r.aln.a_begin = static_cast<std::uint32_t>(i);
  r.aln.b_begin = static_cast<std::uint32_t>(j);
  r.aln.matches = matches;
  r.aln.columns = columns;
  if (opts.keep_ops) {
    r.aln.ops.resize(columns);
    std::size_t at = columns;
    i = bi;
    j = bj;
    while (tb[i * stride + j] != kStop) {
      switch (tb[i * stride + j]) {
        case kDiag:
          --i;
          --j;
          r.aln.ops[--at] = seq::is_base(a[i]) && a[i] == b[j]
                                ? Op::kMatch
                                : Op::kMismatch;
          break;
        case kUp:
          --i;
          r.aln.ops[--at] = Op::kInsertA;
          break;
        default:
          --j;
          r.aln.ops[--at] = Op::kInsertB;
          break;
      }
    }
  }
  r.type = classify(static_cast<std::uint32_t>(la),
                    static_cast<std::uint32_t>(lb), r.aln);
  return r;
}

OverlapResult overlap_align(Seq a, Seq b, const Scoring& sc,
                            const AlignOptions& opts) {
  Workspace ws;  // allocating path: fresh buffers every call
  return overlap_align(a, b, sc, ws, opts);
}

OverlapResult banded_overlap_align(Seq a, Seq b, const Scoring& sc,
                                   std::int32_t shift, std::uint32_t band,
                                   Workspace& ws, const AlignOptions& opts) {
  const std::int64_t la = static_cast<std::int64_t>(a.size());
  const std::int64_t lb = static_cast<std::int64_t>(b.size());
  const std::int64_t B = static_cast<std::int64_t>(band);
  const std::size_t width = 2 * static_cast<std::size_t>(band) + 1;

  // Band storage: row i holds columns j in [i+shift-B, i+shift+B] clipped
  // to [0, lb]; band index c = j - (i + shift - B). Diag neighbor keeps c in
  // the previous row; up neighbor is c+1 there; left neighbor is c-1 in the
  // same row. Every clipped-range cell is written below (reachable or not),
  // so the workspace buffers can be reused dirty with no per-call clear.
  int* score = ws.score_cells(static_cast<std::size_t>(la + 1) * width);
  std::uint8_t* tb = ws.tb_cells(static_cast<std::size_t>(la + 1) * width);

  auto jlo = [&](std::int64_t i) {
    return std::max<std::int64_t>(0, i + shift - B);
  };
  auto jhi = [&](std::int64_t i) {
    return std::min<std::int64_t>(lb, i + shift + B);
  };

  // Unreachable in-band cells carry "poison" — values that drift from
  // kNegInf by at most one score weight per step — instead of exact kNegInf
  // plus per-neighbor reachability branches. Real scores are bounded by a
  // few units per column, so for any practical sequence length (well below
  // ~10^8) poison stays under kEndFloor and can never be selected as an end
  // cell; real cells compute exactly the same value and direction as the
  // guarded reference kernel, because a poison candidate always loses the
  // strict max against a real one. Traceback only ever starts from a real
  // end cell and real cells only point at real neighbors, so the garbage
  // directions stored in poison cells are never followed.
  constexpr int kEndFloor = kNegInf / 2;
  const int gap = sc.gap;

  int best = kEndFloor;
  std::int64_t bi = -1, bj = -1;
  auto consider_end = [&](std::int64_t i, std::int64_t j, int v) {
    if (v > best) {
      best = v;
      bi = i;
      bj = j;
    }
  };

  {  // Row 0: every in-band cell is a free-leading-gap boundary.
    const std::int64_t lo = jlo(0), hi = jhi(0);
    const std::int64_t base = shift - B;
    for (std::int64_t j = lo; j <= hi; ++j) {
      score[static_cast<std::size_t>(j - base)] = 0;
      tb[static_cast<std::size_t>(j - base)] = kStop;
    }
    if (la == 0) {  // degenerate: row 0 is also the last row
      for (std::int64_t j = lo; j <= hi; ++j) consider_end(0, j, 0);
    } else if (lo <= hi && hi == lb) {
      consider_end(0, lb, 0);
    }
  }

  for (std::int64_t i = 1; i <= la; ++i) {
    const std::int64_t lo = jlo(i), hi = jhi(i);
    if (lo > hi) continue;
    const std::int64_t base = i + shift - B;  // column of band index 0
    int* cur = score + static_cast<std::size_t>(i) * width;
    std::uint8_t* tcur = tb + static_cast<std::size_t>(i) * width;
    const int* prev = cur - width;  // row i-1
    const seq::Code ai = a[i - 1];
    std::int64_t j = lo;
    if (j == 0) {  // boundary column: free leading gap
      cur[static_cast<std::size_t>(-base)] = 0;
      tcur[static_cast<std::size_t>(-base)] = kStop;
      ++j;
    }
    if (j <= hi) {
      std::size_t c = static_cast<std::size_t>(j - base);
      if (j == lo) {  // row start: no in-band left neighbor
        // diag (i-1, j-1) is band index c in the previous row, and is
        // always inside that row's clipped range when i >= 1 and j >= 1.
        int v = prev[c] + sc.substitution(ai, b[j - 1]);
        std::uint8_t dir = kDiag;
        if (c + 1 < width) {
          const int cand = prev[c + 1] + gap;
          if (cand > v) {
            v = cand;
            dir = kUp;
          }
        }
        cur[c] = v;
        tcur[c] = dir;
        ++j;
        ++c;
      }
      // Steady state: diag, up, and left neighbors are all in band, so the
      // hot loop runs guard-free. When hi is the unclipped band edge the
      // final cell has no up neighbor and is peeled off below.
      const std::int64_t last = hi == i + shift + B ? hi - 1 : hi;
      for (; j <= last; ++j, ++c) {
        int v = prev[c] + sc.substitution(ai, b[j - 1]);
        std::uint8_t dir = kDiag;
        int cand = prev[c + 1] + gap;
        if (cand > v) {
          v = cand;
          dir = kUp;
        }
        cand = cur[c - 1] + gap;
        if (cand > v) {
          v = cand;
          dir = kLeft;
        }
        cur[c] = v;
        tcur[c] = dir;
      }
      if (j <= hi) {  // band-edge cell: no up neighbor
        int v = prev[c] + sc.substitution(ai, b[j - 1]);
        std::uint8_t dir = kDiag;
        const int cand = cur[c - 1] + gap;
        if (cand > v) {
          v = cand;
          dir = kLeft;
        }
        cur[c] = v;
        tcur[c] = dir;
      }
    }
    // Free trailing gaps: end candidates in the reference kernel's
    // row-major order — (i, lb) while i < la, then the whole last row
    // ascending. Poison cells sit below kEndFloor and never win.
    if (i < la) {
      if (hi == lb) {
        consider_end(i, lb, cur[static_cast<std::size_t>(lb - base)]);
      }
    } else {
      for (std::int64_t jj = lo; jj <= hi; ++jj) {
        consider_end(la, jj, cur[static_cast<std::size_t>(jj - base)]);
      }
    }
  }

  OverlapResult r;
  if (bi < 0) {
    r.aln.score = kNegInf;
    return r;  // band never touched an end edge
  }
  r.aln.score = best;
  r.aln.a_end = static_cast<std::uint32_t>(bi);
  r.aln.b_end = static_cast<std::uint32_t>(bj);
  auto cell = [&](std::int64_t i2, std::int64_t j2) -> std::size_t {
    return static_cast<std::size_t>(i2) * width +
           static_cast<std::size_t>(j2 - (i2 + shift - B));
  };
  std::int64_t i = bi, j = bj;
  std::uint32_t matches = 0, columns = 0;
  while (tb[cell(i, j)] != kStop) {
    switch (tb[cell(i, j)]) {
      case kDiag:
        --i;
        --j;
        matches += seq::is_base(a[i]) && a[i] == b[j];
        break;
      case kUp:
        --i;
        break;
      case kLeft:
        --j;
        break;
      default:
        throw std::logic_error("bad traceback");
    }
    ++columns;
  }
  r.aln.a_begin = static_cast<std::uint32_t>(i);
  r.aln.b_begin = static_cast<std::uint32_t>(j);
  r.aln.matches = matches;
  r.aln.columns = columns;
  if (opts.keep_ops) {
    r.aln.ops.resize(columns);
    std::size_t at = columns;
    i = bi;
    j = bj;
    while (tb[cell(i, j)] != kStop) {
      switch (tb[cell(i, j)]) {
        case kDiag:
          --i;
          --j;
          r.aln.ops[--at] = seq::is_base(a[i]) && a[i] == b[j]
                                ? Op::kMatch
                                : Op::kMismatch;
          break;
        case kUp:
          --i;
          r.aln.ops[--at] = Op::kInsertA;
          break;
        default:
          --j;
          r.aln.ops[--at] = Op::kInsertB;
          break;
      }
    }
  }
  r.type = classify(static_cast<std::uint32_t>(la),
                    static_cast<std::uint32_t>(lb), r.aln);
  return r;
}

OverlapResult banded_overlap_align(Seq a, Seq b, const Scoring& sc,
                                   std::int32_t shift, std::uint32_t band,
                                   const AlignOptions& opts) {
  thread_local Workspace ws;  // convenience path for low-volume callers
  return banded_overlap_align(a, b, sc, shift, band, ws, opts);
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
