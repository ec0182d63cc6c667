#include "core/cluster_scheduler.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/trace.hpp"

namespace pgasm::core {

MasterScheduler::MasterScheduler(const seq::FragmentStore& doubled,
                                 const ClusterParams& params, int p)
    : fold(doubled, params),
      params_(params),
      p_(p),
      n_fragments_(doubled.size() / 2),
      // Section 7.2: keep the master's message arrival rate roughly constant
      // as workers are added by growing the per-dispatch granularity with p,
      // up to what one report can refill.
      batch_(params.adaptive_batch
                 ? std::min(params.batch_size *
                                static_cast<std::uint32_t>(
                                    std::max(1, (p - 1) / 4)),
                            kNewPairsBuf)
                 : params.batch_size) {
  owed.assign(p, 0);
  exhausted.assign(p, 0);
  alive.assign(p, 1);
  terminated.assign(p, 0);
  in_flight.assign(p, {});
  role_owner.assign(p, -1);
  role_done.assign(p, 0);
  role_pos.assign(p, 0);
  for (int w = 1; w < p; ++w) role_owner[w] = w;
  active_workers = p - 1;
  remaining = p - 1;
}

void MasterScheduler::restore(const ClusterCheckpoint& ck) {
  if (ck.n_fragments != n_fragments_)
    throw std::invalid_argument("resume checkpoint fragment count mismatch");
  if (ck.labels.size() != ck.n_fragments)
    throw std::invalid_argument("resume checkpoint label count mismatch");
  resumed_from_epoch = ck.epoch;
  ckpt_epoch = ck.epoch;
  // The wire decoder already validates label ranges for checkpoints read
  // from disk; from_labels re-checks because restore also accepts
  // hand-built checkpoints from callers and tests.
  fold.uf = util::UnionFind::from_labels(ck.labels);
  pending.assign(ck.pending.begin(), ck.pending.end());
  // Resume the stats counters where the checkpoint left them, so a resumed
  // run reports totals for the whole logical run (the counters stay
  // consistent: selected - aligned == |pending incl. in-flight|).
  fold.generated = ck.pairs_generated;
  fold.selected = ck.pairs_selected;
  fold.aligned = ck.pairs_aligned;
  fold.accepted = ck.pairs_accepted;
  fold.merges = ck.merges;
  fold.rejected_inconsistent = ck.merges_rejected_inconsistent;
  if (static_cast<int>(ck.num_ranks) == p_) {
    // Same topology: fast-forward each role's generator past the pairs the
    // master had already received. Workers read the same checkpoint.
    for (const RoleProgress& e : ck.progress) {
      if (e.role == 0 || static_cast<int>(e.role) >= p_) continue;
      role_pos[e.role] = e.emitted;
      role_done[e.role] = static_cast<std::uint8_t>(e.done != 0);
      if (!e.done) pairs_skipped_resume += e.emitted;
    }
    for (int w = 1; w < p_; ++w) {
      if (role_done[w]) {
        exhausted[w] = 1;
        --active_workers;
      }
    }
  }
}

std::uint32_t MasterScheduler::compute_r() const {
  // Request as many pairs as needed so that ~batch of them are expected to
  // be selected, without overflowing Pending_Work_Buf.
  const double rate =
      fold.generated == 0
          ? 1.0
          : std::max(0.02, static_cast<double>(fold.selected) /
                               static_cast<double>(fold.generated));
  const std::uint64_t want = static_cast<std::uint64_t>(batch_ / rate);
  const std::uint64_t room =
      pending.size() >= kPendingWorkBuf
          ? batch_  // keep a trickle flowing; master drops fast
          : (kPendingWorkBuf - pending.size()) / std::max(1, active_workers);
  return static_cast<std::uint32_t>(
      std::clamp<std::uint64_t>(std::min(want, room), batch_, kNewPairsBuf));
}

MasterReply MasterScheduler::make_dispatch(int worker) {
  MasterReply reply;
  const std::size_t take = std::min<std::size_t>(batch_, pending.size());
  reply.batch.assign(pending.begin(), pending.begin() + take);
  pending.erase(pending.begin(), pending.begin() + take);
  if (!orphans.empty()) {
    // Hand every orphaned generation role to this worker; it rebuilds the
    // dead rank's GST portion and fast-forwards to the recorded position.
    reply.takeovers = std::move(orphans);
    orphans.clear();
    for (const TakeoverOrder& t : reply.takeovers) {
      role_owner[t.role] = worker;
      ++takeovers;
    }
    if (exhausted[worker]) {
      exhausted[worker] = 0;
      ++active_workers;
    }
  }
  reply.request_r = exhausted[worker] ? 0 : compute_r();
  reply.terminate = 0;
  owed[worker] += reply.batch.size();
  if (!reply.batch.empty()) in_flight[worker].push_back(reply.batch);
  if (!reply.takeovers.empty()) {
    obs::instant(0, "takeover_assigned", "cluster", "worker",
                 static_cast<std::uint64_t>(worker), "roles",
                 reply.takeovers.size());
  }
  obs::instant(0, "dispatch", "cluster", "worker",
               static_cast<std::uint64_t>(worker), "pairs",
               reply.batch.size());
  return reply;
}

void MasterScheduler::note_death(int w) {
  alive[w] = 0;
  ++workers_lost;
  --remaining;
  obs::instant(0, "death_declared", "cluster", "worker",
               static_cast<std::uint64_t>(w));
  if (!exhausted[w]) {
    exhausted[w] = 1;
    --active_workers;
  }
  // Requeue everything in flight: the pairs were never folded, and even if
  // the worker did align some of them before dying, replaying a merge in
  // the union-find is idempotent.
  for (auto& b : in_flight[w]) {
    ++batches_reassigned;
    pairs_reassigned += b.size();
    for (const PairMsg& pm : b) pending.push_back(pm);
  }
  in_flight[w].clear();
  owed[w] = 0;
  for (int role = 1; role < p_; ++role) {
    if (role_owner[role] == w && !role_done[role]) {
      role_owner[role] = -1;
      orphans.push_back(
          TakeoverOrder{static_cast<std::uint32_t>(role), 0, role_pos[role]});
    }
  }
  idle.erase(std::remove(idle.begin(), idle.end(), w), idle.end());
  terminated[w] = 1;
}

void MasterScheduler::fold_report(int w, const WorkerReport& report) {
  for (const RoleProgress& e : report.progress) {
    if (e.role == 0 || static_cast<int>(e.role) >= p_) continue;
    if (role_owner[e.role] != w) continue;  // stale claim
    role_pos[e.role] = std::max(role_pos[e.role], e.emitted);
    if (e.done) role_done[e.role] = 1;
  }
  if (!report.results.empty()) {
    owed[w] -= std::min<std::uint64_t>(owed[w], report.results.size());
    if (!in_flight[w].empty()) in_flight[w].pop_front();
  }
  if (report.exhausted && !exhausted[w]) {
    exhausted[w] = 1;
    --active_workers;
  }

  for (const ResultMsg& r : report.results) fold.fold(r);
  // Pending_Work_Buf takes only pairs whose fragments are still apart.
  for (const PairMsg& pm : report.new_pairs) {
    if (fold.admit(pm)) pending.push_back(pm);
  }
}

std::vector<int> MasterScheduler::drain_idle_if_complete() {
  // Termination: all passive, nothing pending or orphaned, no results in
  // flight from live workers.
  if (active_workers != 0 || !pending.empty() || !orphans.empty()) return {};
  if (std::any_of(owed.begin(), owed.end(),
                  [](std::uint64_t o) { return o != 0; }))
    return {};
  std::vector<int> out(idle.begin(), idle.end());
  idle.clear();
  for (int w : out) {
    terminated[w] = 1;
    --remaining;
  }
  return out;
}

ClusterCheckpoint MasterScheduler::build_checkpoint() {
  ClusterCheckpoint ck;
  ck.epoch = ++ckpt_epoch;
  ck.num_ranks = static_cast<std::uint32_t>(p_);
  ck.n_fragments = static_cast<std::uint32_t>(n_fragments_);
  ck.input_hash = input_hash;
  ck.params_hash = params_hash;
  ck.labels = fold.uf.labels();
  ck.pending.assign(pending.begin(), pending.end());
  // In-flight batches are part of the recoverable pending set: their
  // results may never arrive if this run dies.
  for (int w = 1; w < p_; ++w)
    for (const auto& b : in_flight[w])
      ck.pending.insert(ck.pending.end(), b.begin(), b.end());
  for (int role = 1; role < p_; ++role)
    ck.progress.push_back(RoleProgress{static_cast<std::uint32_t>(role),
                                       role_done[role], role_pos[role]});
  ck.pairs_generated = fold.generated;
  ck.pairs_selected = fold.selected;
  ck.pairs_aligned = fold.aligned;
  ck.pairs_accepted = fold.accepted;
  ck.merges = fold.merges;
  ck.merges_rejected_inconsistent = fold.rejected_inconsistent;
  ++checkpoints_written;
  return ck;
}

bool MasterScheduler::work_remaining() const {
  const bool roles_open =
      std::any_of(role_done.begin() + 1, role_done.end(),
                  [](std::uint8_t d) { return d == 0; });
  return !pending.empty() || !orphans.empty() || roles_open;
}

}  // namespace pgasm::core
