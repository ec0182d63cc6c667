#include "core/serial_cluster.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>

#include "align/workspace.hpp"
#include "core/consistency.hpp"
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

bool pair_overlaps(const seq::FragmentStore& doubled, std::uint32_t seq_a,
                   std::uint32_t pos_a, std::uint32_t seq_b,
                   std::uint32_t pos_b, const align::OverlapParams& p,
                   align::Workspace& ws) {
  return align::accept_overlap(
      pair_overlap_details(doubled, seq_a, pos_a, seq_b, pos_b, p, ws), p);
}

void validate_cluster_params(const ClusterParams& params) {
  align::validate_overlap_params(params.overlap, params.psi);
  // The parallel GST buckets suffixes by their first prefix_w characters:
  // every kept suffix must have that many (prefix_w <= ψ), and a recorded
  // GST checkpoint holds at most 4^12 bucket owners.
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
}

ClusterResult cluster_serial(const seq::FragmentStore& fragments,
                             const ClusterParams& params) {
  validate_cluster_params(params);
  ClusterResult result;
  result.clusters.reset(fragments.size());
  ClusterStats& stats = result.stats;

  util::WallTimer gst_timer;
  const seq::FragmentStore doubled = seq::make_doubled_store(fragments);
  gst::SuffixTree tree(
      doubled, gst::GstParams{.min_match = params.psi, .prefix_w = 0});
  stats.gst_seconds = gst_timer.elapsed();

  util::WallTimer cluster_timer;
  gst::PairGenerator gen(
      tree, {.dup_elim = params.dup_elim, .doubled_input = true});

  // Inconsistent-overlap resolution extension (paper §10 future work).
  std::unique_ptr<ConsistencyResolver> resolver;
  if (params.resolve_inconsistent) {
    resolver = std::make_unique<ConsistencyResolver>(
        doubled, params.overlap, params.placement_tolerance);
  }

  // Same allocation-free compute path the parallel workers run.
  OverlapEngine engine(doubled, params.overlap);

  auto process = [&](const gst::PromisingPair& pr) {
    ++stats.pairs_generated;
    const std::uint32_t fa = pr.seq_a >> 1;
    const std::uint32_t fb = pr.seq_b >> 1;
    if (result.clusters.same(fa, fb)) return;
    ++stats.pairs_aligned;
    const auto r = engine.details(pr.seq_a, pr.pos_a, pr.seq_b, pr.pos_b);
    if (!align::accept_overlap(r, params.overlap)) return;
    ++stats.pairs_accepted;
    if (resolver) {
      const std::int32_t delta =
          static_cast<std::int32_t>(r.aln.a_begin) -
          static_cast<std::int32_t>(r.aln.b_begin);
      if (!resolver->admit(fa, fb, (pr.seq_a & 1u) != 0,
                           (pr.seq_b & 1u) != 0, delta)) {
        ++stats.merges_rejected_inconsistent;
        return;
      }
    }
    if (result.clusters.unite(fa, fb)) ++stats.merges;
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
  return result;
}

}  // namespace pgasm::core
