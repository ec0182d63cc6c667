#include "core/overlap_engine.hpp"

#include "core/serial_cluster.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/timer.hpp"

namespace pgasm::core {

namespace {

void bind_instruments(int rank, obs::Counter*& pairs,
                      obs::Histogram*& batch_us, obs::Gauge*& ws_bytes,
                      obs::Counter*& allocs, obs::Counter*& avoided) {
  if (!obs::tracer().enabled()) return;
  auto& reg = obs::registry();
  pairs = &reg.counter("engine.pairs", rank);
  batch_us = &reg.histogram("engine.batch_us", rank);
  ws_bytes = &reg.gauge("align.workspace_bytes", rank);
  allocs = &reg.counter("align.allocations", rank);
  avoided = &reg.counter("align.allocs_avoided", rank);
}

}  // namespace

OverlapEngine::OverlapEngine(const seq::FragmentStore& doubled,
                             const align::OverlapParams& params, int rank)
    : doubled_(doubled), params_(params) {
  bind_instruments(rank, obs_pairs_, obs_batch_us_, obs_ws_bytes_,
                   obs_allocs_, obs_allocs_avoided_);
}

ResultMsg OverlapEngine::align_pair(const PairMsg& pm) {
  ResultMsg res;
  res.frag_a = pm.seq_a >> 1;
  res.frag_b = pm.seq_b >> 1;
  res.rc_a = static_cast<std::uint8_t>(pm.seq_a & 1u);
  res.rc_b = static_cast<std::uint8_t>(pm.seq_b & 1u);
  const auto od = pair_overlap_details(doubled_, pm.seq_a, pm.pos_a,
                                       pm.seq_b, pm.pos_b, params_, ws_);
  res.accepted = align::accept_overlap(od, params_) ? 1 : 0;
  res.delta = static_cast<std::int32_t>(od.aln.a_begin) -
              static_cast<std::int32_t>(od.aln.b_begin);
  ++pairs_;
  return res;
}

void OverlapEngine::run(std::span<const PairMsg> batch,
                        std::vector<ResultMsg>& out) {
  if (batch.empty()) return;
  util::WallTimer t;
  out.reserve(out.size() + batch.size());
  for (const PairMsg& pm : batch) out.push_back(align_pair(pm));
  note_batch(batch.size(), t.elapsed());
}

std::vector<ResultMsg> OverlapEngine::run(std::span<const PairMsg> batch) {
  std::vector<ResultMsg> out;
  run(batch, out);
  return out;
}

void OverlapEngine::note_batch(std::size_t pairs, double seconds) {
  if (!obs_pairs_) return;
  obs_pairs_->inc(pairs);
  obs_batch_us_->observe(static_cast<std::uint64_t>(seconds * 1e6));
  obs_ws_bytes_->set(static_cast<double>(ws_.bytes_in_use()));
  // The workspace counts cumulatively; publish only the delta since the
  // last batch so the registry counter matches it exactly.
  const std::uint64_t allocs = ws_.allocations();
  const std::uint64_t avoided = ws_.allocations_avoided();
  obs_allocs_->inc(allocs - published_allocs_);
  obs_allocs_avoided_->inc(avoided - published_avoided_);
  published_allocs_ = allocs;
  published_avoided_ = avoided;
}

}  // namespace pgasm::core
