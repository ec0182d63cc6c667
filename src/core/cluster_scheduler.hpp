// Master-side scheduling policy and recoverable state for the parallel
// clustering loop (paper Section 7), split out of the coordinator. The
// scheduler owns the union-find, Pending_Work_Buf, Idle_Workers, the
// fault-tolerance bookkeeping (in-flight batches, generation roles,
// liveness flags) and every policy decision — batch sizing, the pair
// request quantity r, dispatch/park/terminate choices, death bookkeeping,
// checkpoint assembly. It never touches the communicator: the coordinator
// (parallel_cluster.cpp) moves messages via cluster_protocol.* and asks
// this class what to send.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "core/cluster_params.hpp"
#include "core/consistency.hpp"
#include "core/wire.hpp"
#include "seq/fragment_store.hpp"
#include "util/union_find.hpp"

namespace pgasm::core {

class MasterScheduler {
 public:
  /// `p` is the total rank count (master + p-1 workers).
  MasterScheduler(const seq::FragmentStore& doubled,
                  const ClusterParams& params, int p);

  /// Restore union-find labels, pending pairs, stats counters and (when the
  /// rank count matches) per-role generation positions from a checkpoint.
  /// Throws std::invalid_argument on a fragment-count mismatch.
  void restore(const ClusterCheckpoint& ck);

  /// Pair request quantity r: how many new pairs the worker should send
  /// with its next report (Section 7.1 flow regulation).
  std::uint32_t compute_r() const;

  /// Build the dispatch reply for `worker`: pops up to one batch from
  /// Pending_Work_Buf, hands over any orphaned generation roles, and does
  /// the owed/in-flight bookkeeping. The reply is unsequenced — the
  /// protocol layer stamps and sends it.
  MasterReply make_dispatch(int worker);

  /// Death bookkeeping for a worker whose rank has failed (liveness flags,
  /// batch requeue, role orphaning, idle-queue removal).
  void note_death(int worker);

  /// Fold a (first-time) report from a live worker: role progress claims,
  /// owed/in-flight retirement, exhaustion, alignment results into the
  /// union-find (via the consistency resolver when enabled), and new-pair
  /// admission filtered against the current clustering.
  void fold_report(int worker, const WorkerReport& report);

  /// Fold accepted results from a report a worker sent before it failed
  /// (its batches were requeued, so merges replay idempotently). Progress
  /// claims are ignored — its roles have new owners.
  void fold_zombie_results(const WorkerReport& report);

  /// Should this reporter be dispatched to (even an empty batch, to keep it
  /// cycling while it owes results or must keep generating), or parked?
  bool wants_dispatch(int worker) const {
    return !pending.empty() || !orphans.empty() || !exhausted[worker] ||
           owed[worker] > 0;
  }

  /// True while an idle worker and either pending pairs or orphaned roles
  /// exist (the coordinator pops and dispatches until this is false).
  bool can_feed() const {
    return !idle.empty() && (!pending.empty() || !orphans.empty());
  }
  int pop_idle() {
    const int w = idle.front();
    idle.pop_front();
    return w;
  }
  void park(int worker) { idle.push_back(worker); }

  /// Termination check: when all generators are done, nothing is pending or
  /// orphaned, and no results are owed, drains the idle queue and returns
  /// the workers to send terminates to (marking them terminated here).
  /// Returns an empty vector while the run must continue.
  std::vector<int> drain_idle_if_complete();

  /// Snapshot the recoverable state (in-flight batches folded back into the
  /// pending set) as checkpoint epoch ++ckpt_epoch.
  ClusterCheckpoint build_checkpoint();

  /// After the loop: is unfinished work left (open roles, pending or
  /// orphaned pairs)? True means too many workers were lost.
  bool work_remaining() const;

  // --- state (owned here, read/written by the coordinator) ---------------
  util::UnionFind uf;
  std::deque<PairMsg> pending;  // Pending_Work_Buf
  std::deque<int> idle;         // Idle_Workers
  // Alignment results dispatched but not yet reported. A worker aligns a
  // batch *after* sending its next report (Fig. 8 masks the reply wait with
  // alignment work), so results lag their dispatch by two reports; the
  // master must keep a worker cycling until its owed results have arrived
  // or merges would be lost at termination.
  std::vector<std::uint64_t> owed;
  std::vector<std::uint8_t> exhausted;  // worker generators done (passive)

  // --- fault tolerance ---------------------------------------------------
  std::vector<std::uint8_t> alive;       // not declared dead
  std::vector<std::uint8_t> terminated;  // terminate reply sent
  // Batches dispatched whose results have not arrived, oldest first. On
  // worker death these are requeued for survivors (replay is idempotent).
  std::vector<std::deque<std::vector<PairMsg>>> in_flight;
  // Generation roles: role r is rank r's GST portion. Owners migrate to
  // survivors on death; positions are absolute in the role's deterministic
  // pair stream, so a takeover fast-forwards to exactly where it stopped.
  std::vector<std::int32_t> role_owner;  // -1 = orphaned
  std::vector<std::uint8_t> role_done;
  std::vector<std::uint64_t> role_pos;
  std::vector<TakeoverOrder> orphans;  // roles awaiting a new owner

  // Checkpoint validity: hashes of the input store and the
  // partition-relevant params this run was started with.
  std::uint64_t input_hash = 0;
  std::uint64_t params_hash = 0;

  int active_workers = 0;  // workers that may still generate pairs
  int remaining = 0;       // workers neither terminated nor declared dead

  std::uint64_t generated = 0;  // NP pairs received
  std::uint64_t selected = 0;   // pairs admitted to Pending_Work_Buf
  std::uint64_t aligned = 0;    // results received
  std::uint64_t accepted = 0;
  std::uint64_t merges = 0;
  std::uint64_t rejected_inconsistent = 0;

  std::uint64_t workers_lost = 0;
  std::uint64_t batches_reassigned = 0;
  std::uint64_t pairs_reassigned = 0;
  std::uint64_t takeovers = 0;
  std::uint64_t timeouts_fired = 0;  // quiet liveness slices
  std::uint64_t checkpoints_written = 0;
  std::uint64_t reports_retransmitted = 0;
  std::uint64_t pairs_skipped_resume = 0;
  std::uint64_t resumed_from_epoch = 0;
  std::uint64_t ckpt_epoch = 0;
  std::uint64_t reports_since_ckpt = 0;

 private:
  const ClusterParams& params_;
  int p_;
  std::size_t n_fragments_;
  std::uint32_t batch_;  // per-dispatch granularity (Section 7.2 adaptive)
  // Inconsistent-overlap resolution extension (paper §10 future work). The
  // verification alignments run on the master; they are few (one to three
  // per attempted merge) and are charged to the master's compute ledger.
  std::unique_ptr<ConsistencyResolver> resolver_;
};

}  // namespace pgasm::core
