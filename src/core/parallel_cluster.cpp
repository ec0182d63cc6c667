// Coordinator for the parallel master-worker clustering run. The three
// concerns the loop used to interleave live in their own translation units:
// message protocol (tags, report/reply retransmission) in
// cluster_protocol.*, master scheduling policy and recoverable state in
// cluster_scheduler.*, and the per-pair alignment compute in
// core::OverlapEngine. This file only wires them together: the master pump
// (probe -> fold -> dispatch/park -> checkpoint -> terminate) and the
// worker cycle (generate -> report -> align previous batch -> await reply).
// A worker is declared dead only when the transport reports its rank failed.
#include "core/parallel_cluster.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <thread>

#include "core/cluster_protocol.hpp"
#include "core/cluster_scheduler.hpp"
#include "core/overlap_engine.hpp"
#include "gst/pair_generator.hpp"
#include "gst/parallel_build.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/deterministic.hpp"
#include "util/prng.hpp"
#include "util/timer.hpp"

namespace pgasm::core {

namespace {

// Stash keys for per-rank phase-boundary results (Comm::stash_value).
// These ride the exit blob on the proc transport, so they must be
// trivially copyable values, not pointers into rank memory.
constexpr std::uint32_t kStashGstBusy = 0x6762;   // "gb": double, ledger busy
constexpr std::uint32_t kStashGstWall = 0x6777;   // "gw": double, wall secs

// The pump below implements the MasterState machine declared in
// cluster_protocol.hpp (kMasterTransitions); the [MasterState::k*] markers
// tie each region to its state so pgasm-model's reachability argument
// reads against the code. Everything here — scheduler, reply
// channel, checkpoint cadence — is thread-confined to the rank-0 thread:
// no locks by design, which is why none of it carries PGASM_GUARDED_BY.
void master_loop(vmpi::Comm& comm, const ClusterParams& params,
                 MasterScheduler& sched, const ClusterCheckpoint* resume) {
  const int p = comm.size();
  if (resume) sched.restore(*resume);
  ReplyChannel replies(p);

  auto send_terminate = [&](int w) {
    MasterReply bye;
    bye.terminate = 1;
    replies.send(comm, w, bye);
  };

  // The transport is the failure detector: a crashed worker (injected
  // crash, or a worker that gave up after its retransmission cap) reads
  // rank_failed. A slow worker does not, however long it stays silent. A
  // failed worker with a report still queued is reaped at a later sweep,
  // so its last results fold first.
  auto reap_failed = [&]() {
    for (int w = 1; w < p; ++w) {
      if (sched.alive[w] && !sched.terminated[w] && comm.rank_failed(w) &&
          !comm.iprobe(w, to_tag(MsgKind::kReport), nullptr))
        sched.note_death(w);
    }
  };

  auto dispatch = [&](int w) {
    MasterReply reply = sched.make_dispatch(w);
    replies.send(comm, w, reply);
  };

  auto feed_idle = [&]() {
    while (sched.can_feed()) dispatch(sched.pop_idle());
  };

  auto try_terminate = [&]() {
    for (int w : sched.drain_idle_if_complete()) send_terminate(w);
  };

  auto write_checkpoint = [&]() {
    obs::Span ck_span = obs::span(0, "checkpoint", "cluster");
    auto scope = comm.compute_scope();
    const ClusterCheckpoint ck = sched.build_checkpoint();
    const std::size_t bytes = save_checkpoint(params.checkpoint_path, ck);
    if (obs::tracer().enabled()) {
      obs::registry()
          .counter("recovery.checkpoint_bytes", 0, obs::current_phase())
          .inc(bytes);
    }
    ck_span.arg("epoch", ck.epoch);
    ck_span.arg("pending", ck.pending.size());
  };

  util::WallTimer since_reap;
  while (sched.remaining > 0) {
    // [MasterState::kProbe]
    // Sweep for failed ranks once per slice, even while reports keep
    // arriving: parked workers' keepalives alone can fill every slice.
    if (since_reap.elapsed() >= kLivenessSliceSeconds) {
      since_reap.restart();
      reap_failed();
      feed_idle();
      try_terminate();
      continue;
    }
    vmpi::Status ps;
    try {
      ps = comm.probe_timeout(vmpi::kAnySource, to_tag(MsgKind::kReport),
                              kLivenessSliceSeconds);
    } catch (const vmpi::TimeoutError&) {
      ++sched.timeouts_fired;  // a quiet slice; the sweep runs next
      continue;
    }
    // [MasterState::kFold]
    const int w = ps.source;
    obs::Span report_span = obs::span(0, "report", "cluster");
    report_span.arg("worker", static_cast<std::uint64_t>(w));
    auto decoded = recv_report(comm, w);
    if (!decoded) {
      // Undecodable report (already counted by the protocol layer): drop
      // it. The worker's reply timer will retransmit; a healthy retransmit
      // decodes fine, and a persistently corrupt worker exhausts its
      // retransmission cap and fails its rank.
      continue;
    }
    const WorkerReport report = std::move(decoded).value();

    if (!sched.alive[w]) {
      // A report a worker sent before it failed, probed after its reaping:
      // fold its results (idempotent; its batches were requeued, so at
      // worst pairs align twice). Its roles have new owners — ignore
      // progress. The rank is gone, so nothing is sent back.
      auto scope = comm.compute_scope();
      sched.fold_zombie_results(report);
      continue;
    }

    if (replies.is_duplicate(w, report.seq)) {
      // Retransmitted report: the reply we sent for it was lost or is
      // overdue. Do not fold the results again — re-send the cached reply
      // (dispatch, park, or terminate, whichever it was).
      ++sched.reports_retransmitted;
      replies.resend_cached(comm, w);
      continue;
    }
    replies.note_seq(w, report.seq);

    {
      auto scope = comm.compute_scope();
      sched.fold_report(w, report);
    }

    // [MasterState::kDispatch]
    // Feed idle workers first, then answer the reporter: dispatch while it
    // has work to do, results owed, or pairs left to generate; park it
    // otherwise (the explicit park acknowledges the report so the worker
    // stops retransmitting and waits quietly for a dispatch or terminate).
    feed_idle();
    if (sched.wants_dispatch(w)) {
      dispatch(w);
    } else {
      MasterReply parked;
      parked.park = 1;
      replies.send(comm, w, parked);
      sched.park(w);
    }

    // [MasterState::kCheckpoint]
    if (params.checkpoint_every_reports > 0 &&
        !params.checkpoint_path.empty() &&
        ++sched.reports_since_ckpt >= params.checkpoint_every_reports) {
      sched.reports_since_ckpt = 0;
      write_checkpoint();
    }

    try_terminate();
  }

  // [MasterState::kTerminate]
  // All workers terminated or dead. If work remains, too many failures.
  if (sched.work_remaining()) {
    throw vmpi::TimeoutError(
        "clustering failed: all workers lost with work remaining");
  }
  // The final checkpoint is the terminal state: nothing pending, every
  // role done. A rerun restores the finished partition from it, and a
  // plain resume from it terminates at once.
  if (!params.checkpoint_path.empty()) write_checkpoint();

  // Shutdown drain: until every worker has exited (free — the runtime joins
  // their threads right after this returns anyway), keep consuming
  // retransmitted reports that crossed a terminate in flight, answering
  // each with the terminate again in case it was lost. The receive
  // also matters for liveness under use_ssend: a terminated worker can be
  // parked inside a synchronous report send that only completes when the
  // message is consumed. Draining after the done-check is what makes the
  // final sweep complete — anything a worker sent is queued here by the time
  // rank_done() reads true — so a fault-free causal trace ends with zero
  // unmatched sends.
  for (;;) {
    bool all_done = true;
    for (int w = 1; w < p; ++w) {
      if (!comm.rank_done(w) && !comm.rank_failed(w)) all_done = false;
    }
    drain_worker_traffic(comm, replies, sched.alive);
    if (all_done) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

/// One pair-generation role held by a worker: its own GST portion, or a
/// dead rank's portion rebuilt locally after a takeover order.
struct RoleGen {
  int role = 0;
  std::unique_ptr<gst::DistributedGst> owned;  // set for takeovers
  const gst::DistributedGst* dist = nullptr;
  std::unique_ptr<gst::PairGenerator> gen;
};

// The worker pump. Its phases follow core::kWorkerTransitions — the
// `[WorkerState::k*]` markers below are machine-checked against that table
// by tools/verify/pgasm-model, which also exhaustively explores the
// composed master×worker×channel state space built from it.
void worker_loop(vmpi::Comm& comm, const ClusterParams& params,
                 const gst::ParallelGstParams& gp,
                 const seq::FragmentStore& doubled,
                 const gst::DistributedGst& dist,
                 const ClusterCheckpoint* resume) {
  std::vector<RoleGen> gens;
  OverlapEngine engine(doubled, params.overlap, comm.rank());

  auto add_role = [&](int role, std::uint64_t resume_at,
                      std::unique_ptr<gst::DistributedGst> owned) {
    RoleGen rg;
    rg.role = role;
    rg.owned = std::move(owned);
    rg.dist = rg.owned ? rg.owned.get() : &dist;
    {
      auto scope = comm.compute_scope();
      rg.gen = std::make_unique<gst::PairGenerator>(
          *rg.dist->tree,
          gst::PairGenParams{.dup_elim = params.dup_elim,
                             .doubled_input = true,
                             .global_ids = &rg.dist->local_to_global});
      // Fast-forward: the stream is deterministic, so skipping resume_at
      // pairs resumes exactly where the previous owner stopped.
      gst::PromisingPair q;
      for (std::uint64_t done = 0; done < resume_at && rg.gen->next(q);)
        ++done;
    }
    gens.push_back(std::move(rg));
  };

  // Own role, unless a resume checkpoint says it already finished.
  {
    bool my_done = false;
    std::uint64_t my_resume = 0;
    if (resume && static_cast<int>(resume->num_ranks) == comm.size()) {
      for (const RoleProgress& e : resume->progress) {
        if (static_cast<int>(e.role) == comm.rank()) {
          my_done = e.done != 0;
          my_resume = e.emitted;
        }
      }
    }
    if (!my_done) add_role(comm.rank(), my_resume, nullptr);
  }

  auto next_pair = [&](gst::PromisingPair& q) -> bool {
    for (RoleGen& rg : gens) {
      if (rg.gen->next(q)) return true;
    }
    return false;
  };

  std::vector<PairMsg> batch;      // AW: allocated by master last reply
  std::vector<ResultMsg> results;  // AR: results of the previous batch
  std::uint32_t r = params.batch_size;
  std::uint64_t report_seq = 0;

  for (;;) {
    // [WorkerState::kGenerate]
    // An unsolicited reply can already be queued: a stale duplicate of the
    // reply just consumed (retransmission crossfire), or a terminate.
    // Consuming a terminate *before* the synchronous report send closes the
    // deadlock window where the master stops listening while this worker
    // blocks in ssend; duplicates are simply discarded.
    if (consume_pending_terminate(comm)) break;
    WorkerReport report;
    report.seq = ++report_seq;
    report.results = std::move(results);
    results.clear();
    {
      obs::Span gen_span = obs::span(comm.rank(), "generate_pairs", "cluster");
      auto scope = comm.compute_scope();
      gst::PromisingPair q;
      const std::uint32_t want = std::min(r, kNewPairsBuf);
      while (report.new_pairs.size() < want && next_pair(q)) {
        // The generator already emits global doubled-store ids in
        // canonical orientation (global_ids translation).
        report.new_pairs.push_back(
            PairMsg{q.seq_a, q.pos_a, q.seq_b, q.pos_b, q.match_len});
      }
      bool all_done = true;
      for (const RoleGen& rg : gens) {
        report.progress.push_back(
            RoleProgress{static_cast<std::uint32_t>(rg.role),
                         rg.gen->done() ? 1u : 0u, rg.gen->pairs_emitted()});
        if (!rg.gen->done()) all_done = false;
      }
      report.exhausted = all_done ? 1 : 0;
      gen_span.arg("pairs", report.new_pairs.size());
    }
    // [WorkerState::kSendReport]
    send_report(comm, params, report);

    // [WorkerState::kAlign]
    // Mask the wait for the master's reply with the alignment work of the
    // batch allocated in the previous iteration (Fig. 8).
    if (!batch.empty()) {
      obs::Span align_span = obs::span(comm.rank(), "align_batch", "cluster");
      align_span.arg("pairs", batch.size());
      auto scope = comm.compute_scope();
      engine.run(batch, results);
      batch.clear();
    }

    // [WorkerState::kAwaitReply]
    const MasterReply reply = await_reply(comm, params, report_seq, report);
    if (reply.terminate) break;

    // [WorkerState::kApplyReply]
    batch = std::move(reply.batch);
    r = reply.request_r;
    for (const TakeoverOrder& order : reply.takeovers) {
      obs::instant(comm.rank(), "takeover", "cluster", "role",
                   static_cast<std::uint64_t>(order.role), "resume_at",
                   order.resume_at);
      std::unique_ptr<gst::DistributedGst> portion;
      {
        auto scope = comm.compute_scope();
        portion = std::make_unique<gst::DistributedGst>(
            gst::rebuild_rank_portion(doubled, dist.bucket_owner,
                                      static_cast<int>(order.role), gp));
      }
      add_role(static_cast<int>(order.role), order.resume_at,
               std::move(portion));
    }
  }
  // [WorkerState::kShutdown]
  drain_shutdown_messages(comm);
}

}  // namespace

std::uint64_t cluster_input_hash(const seq::FragmentStore& fragments) {
  // FNV-1a per fragment (codes + length), folded through splitmix64 so
  // fragment boundaries and order matter.
  std::uint64_t h = 0x50474153ULL ^
                    (fragments.size() * 0x9e3779b97f4a7c15ULL);
  for (seq::FragmentId id = 0; id < fragments.size(); ++id) {
    const auto s = fragments.seq(id);
    std::uint64_t f = 0xcbf29ce484222325ULL;
    for (const auto c : s) {
      f ^= static_cast<std::uint64_t>(c);
      f *= 0x100000001b3ULL;
    }
    std::uint64_t state = h ^ f ^ (s.size() + 1);
    h = util::splitmix64(state);
  }
  return h;
}

std::uint64_t cluster_params_hash(const ClusterParams& params) {
  // Only fields that influence the resulting partition or the pair streams
  // a checkpoint's generator positions refer to. Operational knobs
  // (timeouts, checkpoint cadence, ssend ablation) are deliberately left
  // out: changing them between a run and its resume is legitimate.
  std::uint64_t h = 0x636b70682d7632ULL;  // "ckph-v2"
  auto mix = [&h](std::uint64_t v) {
    std::uint64_t state = h ^ v;
    h = util::splitmix64(state);
  };
  auto mix_double = [&](double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    mix(bits);
  };
  mix(params.psi);
  mix(params.prefix_w);
  mix(static_cast<std::uint64_t>(params.overlap.scoring.match));
  mix(static_cast<std::uint64_t>(params.overlap.scoring.mismatch));
  mix(static_cast<std::uint64_t>(params.overlap.scoring.gap));
  // Former gap-open/extend defaults: checkpoints on disk stay resumable.
  mix(static_cast<std::uint64_t>(-5));
  mix(static_cast<std::uint64_t>(-2));
  mix(params.overlap.min_overlap);
  mix_double(params.overlap.min_identity);
  mix(params.overlap.band);
  mix(params.batch_size);
  mix(params.dup_elim ? 1 : 0);
  mix(params.ordered ? 1 : 0);
  mix(params.resolve_inconsistent ? 1 : 0);
  mix(static_cast<std::uint64_t>(params.placement_tolerance));
  mix(params.adaptive_batch ? 1 : 0);
  return h;
}

const char* checkpoint_mismatch(const ClusterCheckpoint& ck,
                                const seq::FragmentStore& fragments,
                                const ClusterParams& params) {
  if (ck.n_fragments != fragments.size())
    return "resume checkpoint fragment count mismatch";
  if (ck.input_hash != 0 && ck.input_hash != cluster_input_hash(fragments))
    return "resume checkpoint was written for a different input";
  if (ck.params_hash != 0 && ck.params_hash != cluster_params_hash(params))
    return "resume checkpoint was written with different clustering "
           "parameters";
  return nullptr;
}

ParallelClusterResult cluster_parallel(const seq::FragmentStore& fragments,
                                       const ClusterParams& params,
                                       int num_ranks,
                                       vmpi::CostParams cost_params,
                                       const vmpi::FaultPlan& faults,
                                       const ClusterCheckpoint* resume) {
  if (num_ranks < 2)
    throw std::invalid_argument("cluster_parallel needs >= 2 ranks");
  if (!params.ordered)
    throw std::invalid_argument(
        "the unordered ablation is serial-only (cluster_serial)");
  validate_cluster_params(params);

  ParallelClusterResult result;
  const seq::FragmentStore doubled = seq::make_doubled_store(fragments);

  MasterScheduler sched(doubled, params, num_ranks);
  sched.input_hash = cluster_input_hash(fragments);
  sched.params_hash = cluster_params_hash(params);
  if (resume) {
    if (const char* why = checkpoint_mismatch(*resume, fragments, params))
      throw std::invalid_argument(why);
  }

  util::WallTimer total_timer;
  vmpi::Runtime rt(num_ranks, params.transport, cost_params, faults);
  result.cost = rt.run([&](vmpi::Comm& comm) {
    util::WallTimer phase_timer;
    gst::ParallelGstParams gp;
    gp.gst = gst::GstParams{.min_match = params.psi,
                            .prefix_w = params.prefix_w};
    gp.fetch_batch_chars = params.fetch_batch_chars;
    gp.exclude_rank0 = true;
    auto dist = gst::build_distributed_gst(comm, doubled, gp);
    comm.barrier();
    // Phase-boundary results travel through the stash, not captured
    // vectors: on the proc transport each rank is a forked child whose
    // memory writes the driver never sees. A rank that dies mid-run
    // simply never stashes — the driver reads defaults for it.
    comm.stash_value(kStashGstBusy, comm.ledger().busy_seconds());
    comm.stash_value(kStashGstWall, phase_timer.elapsed());

    if (comm.rank() == 0) {
      master_loop(comm, params, sched, resume);
    } else {
      worker_loop(comm, params, gp, doubled, dist, resume);
    }
  });
  const double total_wall = total_timer.elapsed();

  result.clusters = std::move(sched.uf);
  ClusterStats& stats = result.stats;
  stats.pairs_generated = sched.generated;
  stats.pairs_aligned = sched.aligned;
  stats.pairs_accepted = sched.accepted;
  stats.merges = sched.merges;
  stats.merges_rejected_inconsistent = sched.rejected_inconsistent;
  stats.workers_lost = sched.workers_lost;
  stats.batches_reassigned = sched.batches_reassigned;
  stats.pairs_reassigned = sched.pairs_reassigned;
  stats.generator_takeovers = sched.takeovers;
  stats.timeouts_fired = sched.timeouts_fired;
  stats.reports_retransmitted = sched.reports_retransmitted;
  stats.checkpoints_written = sched.checkpoints_written;
  stats.pairs_skipped_resume = sched.pairs_skipped_resume;
  stats.resumed_from_epoch = sched.resumed_from_epoch;

  double gst_model = 0, total_model = 0;
  for (int rk = 0; rk < num_ranks; ++rk) {
    gst_model = std::max(
        gst_model,
        result.cost.stash_value<double>(rk, kStashGstBusy).value_or(0.0));
    total_model = std::max(total_model, result.cost.per_rank[rk].busy_seconds());
    stats.gst_seconds = std::max(
        stats.gst_seconds,
        result.cost.stash_value<double>(rk, kStashGstWall).value_or(0.0));
  }
  stats.gst_modeled_seconds = gst_model;
  stats.cluster_modeled_seconds = std::max(0.0, total_model - gst_model);
  stats.cluster_seconds = std::max(0.0, total_wall - stats.gst_seconds);

  // Publish the clustering counters into the metrics registry (rank 0 owns
  // the master state) so ClusterStats and the obs export agree.
  if (obs::tracer().enabled()) {
    auto& reg = obs::registry();
    const char* phase = obs::current_phase();
    const auto c = [&](const char* name, std::uint64_t v) {
      reg.counter(name, 0, phase).inc(v);
    };
    c("cluster.pairs_generated", sched.generated);
    c("cluster.pairs_selected", sched.selected);
    c("cluster.pairs_aligned", sched.aligned);
    c("cluster.pairs_accepted", sched.accepted);
    c("cluster.merges", sched.merges);
    c("cluster.merges_rejected_inconsistent", sched.rejected_inconsistent);
    c("cluster.workers_lost", sched.workers_lost);
    c("cluster.batches_reassigned", sched.batches_reassigned);
    c("cluster.pairs_reassigned", sched.pairs_reassigned);
    c("cluster.takeovers", sched.takeovers);
    c("cluster.probe_timeouts", sched.timeouts_fired);
    c("cluster.checkpoints_written", sched.checkpoints_written);
    c("cluster.reports_retransmitted", sched.reports_retransmitted);
    c("cluster.pairs_skipped_resume", sched.pairs_skipped_resume);
    reg.gauge("cluster.gst_seconds", 0, phase).set(stats.gst_seconds);
    reg.gauge("cluster.cluster_seconds", 0, phase).set(stats.cluster_seconds);
  }

  const double makespan = result.cost.modeled_parallel_seconds();
  if (makespan > 0) {
    stats.master_availability =
        1.0 - result.cost.per_rank[0].busy_seconds() / makespan;
    // Fixed-shape fold over the rank-ordered shares (W018): the summary
    // stat is reproducible bit for bit regardless of how a future
    // multi-node collector delivers the per-rank costs.
    std::vector<double> idle_shares;
    idle_shares.reserve(static_cast<std::size_t>(num_ranks));
    for (int rk = 1; rk < num_ranks; ++rk) {
      idle_shares.push_back(
          (makespan - result.cost.per_rank[rk].busy_seconds()) / makespan);
    }
    stats.worker_idle_fraction = util::ordered_reduce(std::move(idle_shares)) /
                                 std::max(1, num_ranks - 1);
  }
  return result;
}

}  // namespace pgasm::core
