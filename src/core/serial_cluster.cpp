#include "core/serial_cluster.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>

#include "align/workspace.hpp"
#include "core/overlap_engine.hpp"
#include "gst/pair_generator.hpp"
#include "gst/suffix_tree.hpp"
#include "util/prng.hpp"
#include "util/timer.hpp"

namespace pgasm::core {

align::OverlapResult pair_overlap_details(const seq::FragmentStore& doubled,
                                           std::uint32_t seq_a,
                                           std::uint32_t pos_a,
                                           std::uint32_t seq_b,
                                           std::uint32_t pos_b,
                                           const align::OverlapParams& p,
                                           align::Workspace& ws) {
  const auto a = doubled.seq(seq_a);
  const auto b = doubled.seq(seq_b);
  const std::int32_t shift =
      static_cast<std::int32_t>(pos_b) - static_cast<std::int32_t>(pos_a);
  return align::banded_overlap_align(a, b, p.scoring, shift, p.band, ws);
}

align::OverlapResult pair_overlap_details(const seq::FragmentStore& doubled,
                                           std::uint32_t seq_a,
                                           std::uint32_t pos_a,
                                           std::uint32_t seq_b,
                                           std::uint32_t pos_b,
                                           const align::OverlapParams& p) {
  thread_local align::Workspace ws;
  return pair_overlap_details(doubled, seq_a, pos_a, seq_b, pos_b, p, ws);
}

void validate_cluster_params(const ClusterParams& params) {
  align::validate_overlap_params(params.overlap, params.psi);
  // The parallel GST buckets suffixes by their first prefix_w characters:
  // every kept suffix must have that many (prefix_w <= ψ), and every rank
  // holds a 4^prefix_w bucket histogram and owner table (4^12 = 16M).
  if (params.prefix_w == 0 || params.prefix_w > std::min(params.psi, 12u)) {
    throw std::invalid_argument(
        "cluster params: prefix_w must be in [1, min(psi, 12)], got " +
        std::to_string(params.prefix_w));
  }
  if (params.placement_tolerance < 0) {
    throw std::invalid_argument(
        "cluster params: placement_tolerance must be >= 0, got " +
        std::to_string(params.placement_tolerance));
  }
  // A zero batch dispatches nothing and never finishes; a batch above
  // New_Pairs_Buf cannot be refilled by one report.
  if (params.batch_size == 0 || params.batch_size > kNewPairsBuf) {
    throw std::invalid_argument(
        "cluster params: batch_size must be in [1, " +
        std::to_string(kNewPairsBuf) + "], got " +
        std::to_string(params.batch_size));
  }
}

ClusterFold::ClusterFold(const seq::FragmentStore& doubled,
                         const ClusterParams& params) {
  uf.reset(doubled.size() / 2);
  // Inconsistent-overlap resolution extension (paper §10 future work).
  if (params.resolve_inconsistent) {
    resolver_ = std::make_unique<ConsistencyResolver>(
        doubled, params.overlap, params.placement_tolerance);
  }
}

bool ClusterFold::admit(const PairMsg& pm) {
  ++generated;
  if (uf.same(pm.seq_a >> 1, pm.seq_b >> 1)) return false;
  ++selected;
  return true;
}

void ClusterFold::fold(const ResultMsg& r) {
  ++aligned;
  if (!r.accepted) return;
  ++accepted;
  // A result folded after its pair's admission may find the fragments
  // already joined; only a merge still to happen is checked.
  if (resolver_ && !uf.same(r.frag_a, r.frag_b) &&
      !resolver_->admit(r.frag_a, r.frag_b, r.rc_a != 0, r.rc_b != 0,
                        r.delta)) {
    ++rejected_inconsistent;
    return;
  }
  if (uf.unite(r.frag_a, r.frag_b)) ++merges;
}

void ClusterFold::write_stats(ClusterStats& stats) const {
  stats.pairs_generated = generated;
  stats.pairs_aligned = aligned;
  stats.pairs_accepted = accepted;
  stats.merges = merges;
  stats.merges_rejected_inconsistent = rejected_inconsistent;
}

ClusterResult cluster_serial(const seq::FragmentStore& fragments,
                             const ClusterParams& params) {
  validate_cluster_params(params);
  ClusterResult result;
  ClusterStats& stats = result.stats;

  util::WallTimer gst_timer;
  const seq::FragmentStore doubled = seq::make_doubled_store(fragments);
  gst::SuffixTree tree(doubled, gst::GstParams{.min_match = params.psi});
  stats.gst_seconds = gst_timer.elapsed();

  util::WallTimer cluster_timer;
  gst::PairGenerator gen(
      tree, {.dup_elim = params.dup_elim, .doubled_input = true});
  ClusterFold fold(doubled, params);
  // Same allocation-free compute path the parallel workers run.
  OverlapEngine engine(doubled, params.overlap);
  auto process = [&](const gst::PromisingPair& pr) {
    const PairMsg pm{pr.seq_a, pr.pos_a, pr.seq_b, pr.pos_b, pr.match_len};
    if (fold.admit(pm)) fold.fold(engine.align_pair(pm));
  };

  gst::PromisingPair pr;
  if (params.ordered) {
    while (gen.next(pr)) process(pr);
  } else {
    // Ablation: materialize and shuffle the stream, destroying the
    // decreasing-match-length order (costs the O(K) memory the on-demand
    // scheme avoids — which is part of what the ablation demonstrates).
    std::vector<gst::PromisingPair> all;
    while (gen.next(pr)) all.push_back(pr);
    util::Prng rng(0x5eedu);
    for (std::size_t i = all.size(); i > 1; --i) {
      std::swap(all[i - 1], all[rng.below(i)]);
    }
    for (const auto& q : all) process(q);
  }
  stats.cluster_seconds = cluster_timer.elapsed();
  fold.write_stats(stats);
  result.clusters = std::move(fold.uf);
  return result;
}

}  // namespace pgasm::core
