// Parallel master-worker clustering (paper Section 7, Figs. 6-8).
//
// Rank 0 is the master: it owns the Union-Find cluster set, the
// Pending_Work_Buf of selected-but-undispatched pairs, and the Idle_Workers
// queue; it selects pairs for alignment (only when the two fragments are
// still in different clusters), dispatches fixed-size batches, merges
// clusters from reported results, and regulates the pair-generation inflow
// with the request quantity r. Ranks 1..p-1 are workers: each builds its
// portion of the distributed GST, generates promising pairs from it in
// decreasing maximal-match order, and computes the alignments the master
// allocates — overlapping alignment computation with the wait for the
// master's reply, exactly as in Fig. 8. Passive workers (out of pairs) keep
// computing alignments until the master terminates them.
//
// Fault tolerance (see DESIGN.md "Fault model & recovery"): the master
// declares a worker dead only when the transport reports its rank failed
// (a slow worker is never written off); a dead worker's in-flight batches are
// requeued (union-find merges are idempotent, so replay is safe) and its
// pair-generation role is rebuilt and fast-forwarded on a survivor. The
// master periodically checkpoints its recoverable state; cluster_parallel
// accepts a checkpoint to resume a killed run without re-aligning
// already-merged pairs.
#pragma once

#include <cstdint>

#include "core/cluster_params.hpp"
#include "core/serial_cluster.hpp"
#include "core/wire.hpp"
#include "seq/fragment_store.hpp"
#include "vmpi/runtime.hpp"

namespace pgasm::core {

struct ParallelClusterResult {
  util::UnionFind clusters;  ///< over fragment ids [0, n)
  ClusterStats stats;
  vmpi::RunCost cost;  ///< per-rank ledgers of the whole run
};

/// Content hash of a fragment store (order- and boundary-sensitive), stored
/// in checkpoints so resume can refuse a file written for different input.
std::uint64_t cluster_input_hash(const seq::FragmentStore& fragments);

/// Hash of the partition-relevant clustering parameters (ψ, w, scoring,
/// batch/ordering knobs). Operational knobs — timeouts, checkpoint cadence,
/// the ssend ablation — are excluded: changing them across a resume is
/// legitimate.
std::uint64_t cluster_params_hash(const ClusterParams& params);

/// Why checkpoint `ck` does not belong to a run over `fragments` with
/// `params`: its fragment count or a nonzero input/params hash differs
/// (a zero hash is unknown and not checked). nullptr when it belongs.
const char* checkpoint_mismatch(const ClusterCheckpoint& ck,
                                const seq::FragmentStore& fragments,
                                const ClusterParams& params);

/// Run the full parallel clustering pipeline (distributed GST build +
/// master-worker overlap detection) on `num_ranks` virtual ranks.
/// Requires num_ranks >= 2 (one master + at least one worker).
///
/// `faults` is forwarded to the vmpi Runtime for fault injection. `resume`
/// (optional) restores master state from a previous run's checkpoint; the
/// generation fast-forward applies only when the rank count matches the
/// checkpoint's (pair streams are per-role), otherwise generation restarts
/// and the union-find filter discards the already-merged pairs. Throws
/// std::invalid_argument when checkpoint_mismatch finds one.
ParallelClusterResult cluster_parallel(const seq::FragmentStore& fragments,
                                       const ClusterParams& params,
                                       int num_ranks,
                                       vmpi::CostParams cost_params = {},
                                       const vmpi::FaultPlan& faults = {},
                                       const ClusterCheckpoint* resume = nullptr);

}  // namespace pgasm::core
