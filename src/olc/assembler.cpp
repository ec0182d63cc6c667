#include "olc/assembler.hpp"

#include <algorithm>
#include <array>
#include <queue>
#include <tuple>

#include "align/workspace.hpp"
#include "gst/pair_generator.hpp"
#include "gst/suffix_tree.hpp"
#include "util/stats.hpp"

namespace pgasm::olc {

namespace {

/// Vote weight of one base: its quality value when available (CAP3 weighs
/// consensus votes by quality), a flat default otherwise.
std::uint32_t base_weight(std::span<const std::uint8_t> qual, std::size_t k) {
  if (qual.empty()) return 10;
  return std::clamp<std::uint32_t>(qual[k], 1, 60);
}

struct Overlap {
  std::uint32_t frag_a, frag_b;  // underlying fragment ids
  bool rc_a, rc_b;               // orientations the alignment used
  std::int32_t delta;            // start of b's oriented seq rel. to a's
};

/// A promising pair reduced to what its alignment depends on.
struct Candidate {
  std::uint32_t seq_a, seq_b;  // doubled-store ids
  std::int32_t shift;
  std::uint32_t gen;  // generation index of its first copy
};

/// Drain the generator and sort by (seq_a, seq_b, shift, generation
/// index); keep the first of each exact duplicate. Two maximal matches on
/// one diagonal (split by a sequencing error) yield the same (seq_a, seq_b,
/// shift): the copy aligns identically and, folded after the original,
/// could only ever be a no-op.
std::vector<Candidate> distinct_candidates(gst::PairGenerator& gen) {
  std::vector<Candidate> out;
  gst::PromisingPair pr;
  for (std::uint32_t g = 0; gen.next(pr); ++g) {
    out.push_back({pr.seq_a, pr.seq_b, pr.shift(), g});
  }
  auto alignment = [](const Candidate& c) {
    return std::tuple(c.seq_a, c.seq_b, c.shift);
  };
  std::ranges::sort(out, {}, [](const Candidate& c) {
    return std::tuple(c.seq_a, c.seq_b, c.shift, c.gen);
  });
  const auto dups = std::ranges::unique(out, {}, alignment);
  out.erase(dups.begin(), dups.end());
  return out;
}

/// One banded DP over the hull of a run: the candidates of one oriented
/// pair whose neighbouring shifts lie at most 2·band + 1 apart, so their
/// bands tile the hull's diagonals [lo − band, hi + band]. A member whose
/// own band contains the hull's traced path would align to exactly this
/// result (DESIGN.md §5), so it takes it instead of running its own DP.
struct Hull {
  std::int32_t lo = 0, hi = 0;  // the run's lowest and highest shift
  bool aligned = false;
  align::OverlapResult r;  // ops dropped
  std::int64_t path_lo = 0, path_hi = 0;  // diagonals the path visits
};

/// Groups the sorted candidates into runs; hull_of[i] is candidate i's.
std::vector<Hull> hull_runs(const std::vector<Candidate>& cands,
                            std::uint32_t band,
                            std::vector<std::uint32_t>& hull_of) {
  std::vector<Hull> hulls;
  hull_of.resize(cands.size());
  for (std::size_t i = 0; i < cands.size(); ++i) {
    const Candidate& c = cands[i];
    const bool joins = i > 0 && cands[i - 1].seq_a == c.seq_a &&
                       cands[i - 1].seq_b == c.seq_b &&
                       std::int64_t{c.shift} - cands[i - 1].shift <=
                           2 * std::int64_t{band} + 1;
    if (!joins) {
      hulls.emplace_back();
      hulls.back().lo = c.shift;
    }
    hulls.back().hi = c.shift;
    hull_of[i] = static_cast<std::uint32_t>(hulls.size() - 1);
  }
  return hulls;
}

/// A read as the polish passes see it: oriented once per contig, plus the
/// last alignment computed for it and the inputs it was computed from.
struct PolishRead {
  std::vector<seq::Code> seq;
  std::vector<std::uint8_t> qual;
  std::vector<seq::Code> window;  // draft window of `aln`; empty: none yet
  std::int64_t diag = 0;          // band center of `aln` in that window
  align::AlignResult aln;
};

/// Polish window padding on each side of a read's placement, in draft
/// columns; the realignment band is kPolishBand + 8.
constexpr std::uint32_t kPolishBand = 48;

/// One polish round: banded-realign each placed fragment to the draft and
/// re-vote per draft column (bases + gap). Columns where gaps win are
/// dropped; placements' offsets are remapped. Returns true if changed.
bool polish_round(Contig& contig, std::vector<PolishRead>& reads,
                  align::Workspace& ws) {
  const auto& draft = contig.consensus;
  if (draft.empty()) return false;
  constexpr int kGap = seq::kSigma;  // vote index for "delete this column"
  std::vector<std::array<std::uint32_t, seq::kSigma + 1>> votes(
      draft.size(), std::array<std::uint32_t, seq::kSigma + 1>{});
  // Insertion votes: bases the reads carry *between* draft columns p-1 and
  // p (the draft skeleton inherits its root read's deletions; these columns
  // can only be recovered by insertion voting).
  std::vector<std::array<std::uint32_t, seq::kSigma>> ins(
      draft.size() + 1, std::array<std::uint32_t, seq::kSigma>{});
  const std::int64_t pad = kPolishBand;
  const align::Scoring scoring{};

  for (std::size_t k = 0; k < contig.layout.size(); ++k) {
    const Placement& pl = contig.layout[k];
    PolishRead& rd = reads[k];
    const auto& read = rd.seq;
    const auto& qual = rd.qual;
    const std::int64_t dlen = static_cast<std::int64_t>(draft.size());
    const std::int64_t rlen = static_cast<std::int64_t>(read.size());
    const std::int64_t win_lo = std::max<std::int64_t>(0, pl.offset - pad);
    const std::int64_t win_hi = std::min(dlen, pl.offset + rlen + pad);
    if (win_lo >= win_hi) continue;
    const align::Seq window(draft.data() + win_lo,
                            static_cast<std::size_t>(win_hi - win_lo));
    // Expected diagonal: read position i sits at draft pos offset + i,
    // i.e. window pos (offset - win_lo) + i. End-free alignment: the
    // window's pad margins are absorbed for free, so they receive no
    // spurious gap votes; only the genuinely aligned region votes.
    // The kernel is deterministic, so when the window bytes and diagonal
    // equal the previous pass's, that pass's alignment is this one.
    const std::int64_t diag = pl.offset - win_lo;
    if (diag != rd.diag || !std::ranges::equal(window, rd.window)) {
      rd.aln = align::banded_overlap_align(
                   read, window, scoring, static_cast<std::int32_t>(diag),
                   kPolishBand + 8, ws, {.keep_ops = true})
                   .aln;
      rd.window.assign(window.begin(), window.end());
      rd.diag = diag;
    }
    const auto& r = rd.aln;
    if (r.ops.empty()) continue;  // band missed; this read abstains
    std::size_t i = r.a_begin;
    std::int64_t p = win_lo + r.b_begin;
    for (const align::Op op : r.ops) {
      switch (op) {
        case align::Op::kMatch:
        case align::Op::kMismatch:
          if (seq::is_base(read[i])) {
            votes[p][read[i]] += base_weight(qual, i);
          }
          ++i;
          ++p;
          break;
        case align::Op::kInsertA:  // read base absent from the draft
          if (seq::is_base(read[i])) ins[p][read[i]] += base_weight(qual, i);
          ++i;
          break;
        case align::Op::kInsertB: {
          // Deletion quality: the smaller of the flanking base qualities.
          const std::uint32_t wl = i > 0 ? base_weight(qual, i - 1) : 10;
          const std::uint32_t wr =
              i < read.size() ? base_weight(qual, i) : 10;
          votes[p][kGap] += std::min(wl, wr);
          ++p;
          break;
        }
      }
    }
  }

  // Rebuild the consensus; keep a draft->new index map for the offsets.
  std::vector<seq::Code> polished;
  polished.reserve(draft.size());
  std::vector<std::int64_t> remap(draft.size() + 1, 0);
  bool changed = false;
  auto column_coverage = [&](std::size_t p) {
    std::uint32_t cov = 0;
    if (p < votes.size()) {
      for (int c = 0; c <= kGap; ++c) cov += votes[p][c];
    }
    return cov;
  };
  auto maybe_insert = [&](std::size_t p) {
    int best = 0;
    for (int c = 1; c < seq::kSigma; ++c) {
      if (ins[p][c] > ins[p][best]) best = c;
    }
    // Insert when a majority of the reads spanning this junction carry the
    // base (junction coverage approximated by the flanking columns).
    const std::uint32_t cov =
        std::max(p > 0 ? column_coverage(p - 1) : 0u, column_coverage(p));
    if (ins[p][best] * 2 > cov && ins[p][best] >= 12) {
      polished.push_back(static_cast<seq::Code>(best));
      changed = true;
    }
  };
  for (std::size_t p = 0; p < draft.size(); ++p) {
    maybe_insert(p);
    remap[p] = static_cast<std::int64_t>(polished.size());
    int best = 0;
    std::uint32_t best_votes = votes[p][0];
    for (int c = 1; c < seq::kSigma; ++c) {
      if (votes[p][c] > best_votes) {
        best = c;
        best_votes = votes[p][c];
      }
    }
    if (votes[p][kGap] > best_votes) {
      changed = true;  // column deleted
      continue;
    }
    seq::Code out = best_votes > 0 ? static_cast<seq::Code>(best) : draft[p];
    changed |= (out != draft[p]);
    polished.push_back(out);
  }
  maybe_insert(draft.size());
  remap[draft.size()] = static_cast<std::int64_t>(polished.size());
  if (!changed) return false;
  for (Placement& pl : contig.layout) {
    const std::int64_t clamped = std::clamp<std::int64_t>(
        pl.offset, 0, static_cast<std::int64_t>(draft.size()));
    pl.offset = remap[clamped];
  }
  contig.consensus = std::move(polished);
  return true;
}

/// Realign-and-revote until stable, at most params.polish_passes rounds.
void polish(Contig& contig, const seq::FragmentStore& fragments,
            const AssemblyParams& params, align::Workspace& ws) {
  std::vector<PolishRead> reads(contig.layout.size());
  for (std::size_t k = 0; k < reads.size(); ++k) {
    const Placement& pl = contig.layout[k];
    const auto text = fragments.seq(pl.fragment);
    const auto qual = fragments.quality(pl.fragment);
    reads[k].seq.assign(text.begin(), text.end());
    reads[k].qual.assign(qual.begin(), qual.end());
    if (pl.flip) {
      reads[k].seq = seq::reverse_complement(reads[k].seq);
      std::reverse(reads[k].qual.begin(), reads[k].qual.end());
    }
  }
  for (int pass = 0; pass < params.polish_passes; ++pass) {
    if (!polish_round(contig, reads, ws)) break;
  }
}

}  // namespace

std::size_t AssemblyResult::num_multi_contigs() const noexcept {
  std::size_t n = 0;
  for (const auto& c : contigs) n += !c.is_singleton();
  return n;
}

std::size_t AssemblyResult::num_singletons() const noexcept {
  return contigs.size() - num_multi_contigs();
}

std::uint64_t AssemblyResult::n50() const {
  std::vector<std::uint64_t> lens;
  lens.reserve(contigs.size());
  for (const auto& c : contigs) lens.push_back(c.length());
  return util::n50(std::move(lens));
}

AssemblyResult assemble(const seq::FragmentStore& fragments,
                        const AssemblyParams& params) {
  AssemblyResult result;
  const std::size_t n = fragments.size();
  if (n == 0) return result;

  // --- Overlap + layout: one best-first walk ------------------------------
  // Accepted overlaps fold into the layout best score first, ties in
  // generation order. The queue holds each candidate under an upper bound
  // on its score until it is aligned, then under its exact score, so
  // exact entries leave in that fold order. A candidate that leaves on its
  // bound while its fragments already share a component is dropped
  // unaligned (the paper's Fig. 3 skip rule): components only grow, so
  // when its exact score came up, unite could only answer consistent or
  // conflict, and neither changes the layout.
  const seq::FragmentStore doubled = seq::make_doubled_store(fragments);
  gst::SuffixTree tree(doubled, gst::GstParams{.min_match = params.psi});
  gst::PairGenerator gen(tree, {.dup_elim = true, .doubled_input = true});
  const std::vector<Candidate> cands = distinct_candidates(gen);
  const std::uint32_t band = params.overlap.band;
  std::vector<std::uint32_t> hull_of;
  std::vector<Hull> hulls = hull_runs(cands, band, hull_of);

  struct Entry {
    std::int32_t key;  // score bound, or exact score once aligned
    std::uint32_t gen;  // generation index: the tie-break
    std::uint32_t idx;  // index into cands
    bool exact;
  };
  auto after = [](const Entry& x, const Entry& y) {
    return x.key != y.key ? x.key < y.key : x.gen > y.gen;
  };
  std::vector<Entry> entries;
  entries.reserve(cands.size());
  for (std::uint32_t i = 0; i < cands.size(); ++i) {
    const Candidate& c = cands[i];
    entries.push_back(
        {align::banded_overlap_score_bound(
             static_cast<std::uint32_t>(doubled.length(c.seq_a)),
             static_cast<std::uint32_t>(doubled.length(c.seq_b)), c.shift,
             band, params.overlap.scoring),
         c.gen, i, false});
  }
  std::priority_queue<Entry, std::vector<Entry>, decltype(after)> queue(
      after, std::move(entries));

  std::vector<Overlap> overlaps(cands.size());
  LayoutUF layout(n);
  align::Workspace ws;
  auto align_at = [&](const Candidate& c, std::int64_t shift,
                      std::uint32_t half_width, bool keep_ops) {
    ++result.stats.overlaps_considered;
    return align::banded_overlap_align(
        doubled.seq(c.seq_a), doubled.seq(c.seq_b), params.overlap.scoring,
        static_cast<std::int32_t>(shift), half_width, ws,
        {.keep_ops = keep_ops});
  };
  while (!queue.empty()) {
    const Entry e = queue.top();
    queue.pop();
    if (e.exact) {
      const Overlap& ov = overlaps[e.idx];
      const Transform t_ba = overlap_transform(
          ov.rc_a, ov.rc_b, ov.delta, fragments.length(ov.frag_a),
          fragments.length(ov.frag_b));
      const auto outcome = layout.unite(ov.frag_a, ov.frag_b, t_ba,
                                        params.placement_tolerance);
      if (outcome == LayoutUF::UniteOutcome::kConflict) {
        ++result.stats.layout_conflicts;
      }
      continue;
    }
    const Candidate& c = cands[e.idx];
    if (layout.find(c.seq_a >> 1).first == layout.find(c.seq_b >> 1).first) {
      continue;
    }
    Hull& h = hulls[hull_of[e.idx]];
    if (!h.aligned) {
      // The hull's diagonals, widened by one when hi − lo is odd.
      const std::int64_t mid = h.lo + (std::int64_t{h.hi} - h.lo) / 2;
      h.r = align_at(c, mid,
                     static_cast<std::uint32_t>(h.hi - mid) + band,
                     h.lo != h.hi);
      std::int64_t d = std::int64_t{h.r.aln.b_begin} - h.r.aln.a_begin;
      h.path_lo = h.path_hi = d;
      for (const align::Op op : h.r.aln.ops) {
        d += op == align::Op::kInsertB ? 1 : op == align::Op::kInsertA ? -1 : 0;
        h.path_lo = std::min(h.path_lo, d);
        h.path_hi = std::max(h.path_hi, d);
      }
      h.r.aln.ops = {};
      h.aligned = true;
    }
    // A one-member run's hull is the member's own band.
    const bool from_hull = h.lo == h.hi ||
                           (h.path_lo >= std::int64_t{c.shift} - band &&
                            h.path_hi <= std::int64_t{c.shift} + band);
    const align::OverlapResult r =
        from_hull ? h.r : align_at(c, c.shift, band, false);
    if (!align::accept_overlap(r, params.overlap)) continue;
    ++result.stats.overlaps_accepted;
    Overlap& ov = overlaps[e.idx];
    ov.frag_a = c.seq_a >> 1;
    ov.frag_b = c.seq_b >> 1;
    ov.rc_a = (c.seq_a & 1u) != 0;
    ov.rc_b = (c.seq_b & 1u) != 0;
    ov.delta = static_cast<std::int32_t>(r.aln.a_begin) -
               static_cast<std::int32_t>(r.aln.b_begin);
    queue.push({r.aln.score, e.gen, e.idx, true});
  }

  // --- Consensus phase ------------------------------------------------------
  for (auto& comp : layout.components()) {
    // Member placements in root frame: fragment x spans
    //   flip ? [T(len-1), T(0)] : [T(0), T(len-1)]  (inclusive).
    std::int64_t lo = INT64_MAX, hi = INT64_MIN;
    for (const auto& [x, t] : comp) {
      const std::int64_t len = fragments.length(x);
      const std::int64_t s = t.flip ? t(len - 1) : t(0);
      const std::int64_t e = t.flip ? t(0) : t(len - 1);
      lo = std::min(lo, s);
      hi = std::max(hi, e);
    }
    const std::size_t span = static_cast<std::size_t>(hi - lo + 1);
    std::vector<std::array<std::uint32_t, seq::kSigma>> votes(
        span, std::array<std::uint32_t, seq::kSigma>{});
    for (const auto& [x, t] : comp) {
      const auto text = fragments.seq(x);
      const auto qual = fragments.quality(x);
      for (std::int64_t k = 0; k < static_cast<std::int64_t>(text.size());
           ++k) {
        const seq::Code c = text[k];
        if (!seq::is_base(c)) continue;
        const std::int64_t pos = t(k) - lo;
        const seq::Code vote = t.flip ? seq::complement(c) : c;
        votes[pos][vote] += base_weight(qual, static_cast<std::size_t>(k));
      }
    }
    // Emit contigs, splitting at columns below the coverage floor.
    auto flush = [&](std::size_t begin, std::size_t end,
                     std::vector<Placement> members) {
      if (begin >= end) return;
      Contig contig;
      contig.consensus.reserve(end - begin);
      for (std::size_t p = begin; p < end; ++p) {
        int best = 0;
        for (int c = 1; c < seq::kSigma; ++c) {
          if (votes[p][c] > votes[p][best]) best = c;
        }
        contig.consensus.push_back(static_cast<seq::Code>(best));
      }
      contig.layout = std::move(members);
      result.contigs.push_back(std::move(contig));
    };

    // Column coverage (weighted) for split detection: any vote counts.
    std::vector<std::uint32_t> coverage(span, 0);
    for (std::size_t p = 0; p < span; ++p) {
      std::uint32_t cov = 0;
      for (int c = 0; c < seq::kSigma; ++c) cov += votes[p][c];
      coverage[p] = cov;
    }
    std::size_t seg_begin = 0;
    std::vector<std::pair<std::size_t, std::size_t>> segments;
    bool in_seg = false;
    for (std::size_t p = 0; p <= span; ++p) {
      const bool covered = p < span && coverage[p] != 0;
      if (covered && !in_seg) {
        seg_begin = p;
        in_seg = true;
      } else if (!covered && in_seg) {
        segments.push_back({seg_begin, p});
        in_seg = false;
      }
    }
    // Assign each fragment to the segment containing its start column.
    std::vector<std::vector<Placement>> seg_members(segments.size());
    for (const auto& [x, t] : comp) {
      const std::int64_t len = fragments.length(x);
      const std::int64_t start = (t.flip ? t(len - 1) : t(0)) - lo;
      std::size_t si = 0;
      for (; si < segments.size(); ++si) {
        if (start >= static_cast<std::int64_t>(segments[si].first) &&
            start < static_cast<std::int64_t>(segments[si].second))
          break;
      }
      if (si == segments.size()) si = segments.empty() ? 0 : segments.size() - 1;
      if (seg_members.empty()) continue;  // degenerate: no covered columns
      Placement pl;
      pl.fragment = x;
      pl.flip = t.flip;
      pl.offset = start - static_cast<std::int64_t>(segments[si].first);
      pl.length = fragments.length(x);
      seg_members[si].push_back(pl);
    }
    for (std::size_t si = 0; si < segments.size(); ++si) {
      flush(segments[si].first, segments[si].second,
            std::move(seg_members[si]));
    }
  }

  // --- Polish phase: realign-and-revote until stable -----------------------
  for (Contig& contig : result.contigs) {
    if (!contig.is_singleton()) polish(contig, fragments, params, ws);
  }
  return result;
}

}  // namespace pgasm::olc
