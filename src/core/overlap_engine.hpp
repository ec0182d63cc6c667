// The shared overlap-compute engine: one persistent align::Workspace plus
// the accept test, batch-oriented so serial clustering, the parallel
// workers and the lookup-filter baseline run the exact same
// allocation-free kernel.
//
// The paper's clustering phase spends essentially all of its time in the
// banded suffix–prefix alignment "anchored to the maximal matches"
// (Section 5); an engine instance owns the scratch memory that kernel
// needs, so after the first few calls a pair costs zero heap allocations.
// Engines are single-threaded by design — one per rank/worker thread, held
// for the duration of the phase. Construction is cheap; the workspace grows
// to the working-set high-water mark and stays there.
//
// When the obs tracer is enabled the engine publishes, per rank:
//   engine.pairs            counter    pairs aligned through run()/align_pair
//   engine.batch_us         histogram  run() batch latency, microseconds
//   align.workspace_bytes   gauge      workspace bytes in use (high water)
//   align.allocations       counter    workspace capacity growths
//   align.allocs_avoided    counter    buffer requests served with no alloc
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "align/overlap.hpp"
#include "align/workspace.hpp"
#include "core/wire.hpp"
#include "seq/fragment_store.hpp"

namespace pgasm::obs {
class Counter;
class Gauge;
class Histogram;
}  // namespace pgasm::obs

namespace pgasm::core {

class OverlapEngine {
 public:
  /// Engine over a doubled fragment store (clustering: PairMsg ids resolve
  /// through `doubled`). The store must outlive the engine.
  OverlapEngine(const seq::FragmentStore& doubled,
                const align::OverlapParams& params, int rank = 0);

  OverlapEngine(const OverlapEngine&) = delete;
  OverlapEngine& operator=(const OverlapEngine&) = delete;

  /// Full worker-side outcome for one pair, aligned by
  /// pair_overlap_details in the engine's workspace: fragment ids,
  /// orientation flags, accept bit, and the oriented placement delta.
  ResultMsg align_pair(const PairMsg& pm);

  /// Batch API: one ResultMsg per pair, in order, appended to `out`.
  void run(std::span<const PairMsg> batch, std::vector<ResultMsg>& out);
  std::vector<ResultMsg> run(std::span<const PairMsg> batch);

  const align::OverlapParams& params() const noexcept { return params_; }
  const align::Workspace& workspace() const noexcept { return ws_; }
  std::uint64_t pairs_aligned() const noexcept { return pairs_; }

 private:
  void note_batch(std::size_t pairs, double seconds);

  const seq::FragmentStore& doubled_;
  align::OverlapParams params_;
  align::Workspace ws_;
  std::uint64_t pairs_ = 0;
  // Cached instrument handles (null when the tracer is disabled at
  // construction); updates are single relaxed atomics.
  obs::Counter* obs_pairs_ = nullptr;
  obs::Histogram* obs_batch_us_ = nullptr;
  obs::Gauge* obs_ws_bytes_ = nullptr;
  obs::Counter* obs_allocs_ = nullptr;
  obs::Counter* obs_allocs_avoided_ = nullptr;
  std::uint64_t published_allocs_ = 0;
  std::uint64_t published_avoided_ = 0;
};

}  // namespace pgasm::core
