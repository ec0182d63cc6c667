// Fault-injection and recovery tests (ctest label: faults).
//
// Covers the vmpi fault plan (crash-at-send-N, drops, delays), the
// timeout-carrying receive/probe APIs, master-worker worker-death recovery
// (batch reassignment + generator takeover), and checkpoint/resume. Every
// potentially-hanging scenario runs under a watchdog.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <future>
#include <map>
#include <thread>

#include "core/parallel_cluster.hpp"
#include "core/wire.hpp"
#include "test_helpers.hpp"
#include "util/backoff.hpp"
#include "util/timer.hpp"
#include "vmpi/runtime.hpp"

namespace pgasm {
namespace {

using core::ClusterParams;
using core::cluster_parallel;

/// Run `f` on another thread; fail (and abort: the stuck thread cannot be
/// recovered) if it has not finished within the deadline.
template <typename F>
auto run_with_watchdog(F&& f, int seconds = 120) {
  auto fut = std::async(std::launch::async, std::forward<F>(f));
  if (fut.wait_for(std::chrono::seconds(seconds)) !=
      std::future_status::ready) {
    ADD_FAILURE() << "watchdog expired: run deadlocked";
    std::abort();
  }
  return fut.get();
}

/// Build a read set sampled from a synthetic genome so real overlaps exist.
seq::FragmentStore sampled_reads(util::Prng& rng, std::size_t genome_len,
                                 std::size_t n_reads, std::size_t read_len,
                                 double err = 0.01) {
  const auto genome = test::random_dna(rng, genome_len);
  seq::FragmentStore store;
  for (std::size_t i = 0; i < n_reads; ++i) {
    const std::size_t start = rng.below(genome_len - read_len);
    std::vector<seq::Code> read(genome.begin() + start,
                                genome.begin() + start + read_len);
    for (auto& c : read) {
      if (rng.chance(err))
        c = static_cast<seq::Code>((c + 1 + rng.below(3)) % 4);
    }
    if (rng.chance(0.5)) read = seq::reverse_complement(read);
    store.add(read);
  }
  return store;
}

ClusterParams fault_params() {
  ClusterParams p;
  p.psi = 12;
  p.overlap.min_overlap = 30;
  p.overlap.min_identity = 0.9;
  p.overlap.band = 8;
  p.batch_size = 16;
  return p;
}

/// Compare two partitions of [0, n) for equality up to label renaming.
void expect_same_partition(const util::UnionFind& a, const util::UnionFind& b) {
  ASSERT_EQ(a.size(), b.size());
  const auto la = a.labels();
  const auto lb = b.labels();
  std::map<std::uint32_t, std::uint32_t> fwd, bwd;
  for (std::size_t i = 0; i < la.size(); ++i) {
    auto [itf, newf] = fwd.insert({la[i], lb[i]});
    EXPECT_EQ(itf->second, lb[i]) << "element " << i;
    auto [itb, newb] = bwd.insert({lb[i], la[i]});
    EXPECT_EQ(itb->second, la[i]) << "element " << i;
  }
}

// --- util ------------------------------------------------------------------

TEST(Backoff, GrowsAndCaps) {
  util::ExponentialBackoff b(0.1, 2.0, 0.5);
  EXPECT_DOUBLE_EQ(b.next(), 0.1);
  EXPECT_DOUBLE_EQ(b.next(), 0.2);
  EXPECT_DOUBLE_EQ(b.next(), 0.4);
  EXPECT_DOUBLE_EQ(b.next(), 0.5);  // capped
  EXPECT_DOUBLE_EQ(b.current(), 0.5);
  b.reset();
  EXPECT_DOUBLE_EQ(b.current(), 0.1);
}

// --- vmpi timeout APIs -----------------------------------------------------

TEST(FaultVmpi, RecvTimeoutFires) {
  vmpi::Runtime rt(2);
  std::atomic<int> timeouts{0};
  const auto cost = run_with_watchdog([&] {
    return rt.run([&](vmpi::Comm& comm) {
      if (comm.rank() == 0) {
        EXPECT_THROW(comm.recv_timeout(1, 7, 0.05), vmpi::TimeoutError);
        ++timeouts;
        EXPECT_THROW(comm.probe_timeout(1, 7, 0.05), vmpi::TimeoutError);
        ++timeouts;
      }
    });
  });
  EXPECT_EQ(timeouts.load(), 2);
  EXPECT_EQ(cost.faults.timeouts_fired, 2u);
}

TEST(FaultVmpi, RecvTimeoutDeliversWhenMessageArrives) {
  vmpi::Runtime rt(2);
  run_with_watchdog([&] {
    return rt.run([&](vmpi::Comm& comm) {
      if (comm.rank() == 1) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        comm.send_value(0, 7, 42);
      } else {
        EXPECT_EQ(comm.recv_value_timeout<int>(1, 7, 5.0), 42);
      }
    });
  });
}

TEST(FaultVmpi, InjectedDropLosesExactlyThatMessage) {
  vmpi::FaultPlan plan;
  plan.drops.push_back({.rank = 1, .at_send = 1});
  vmpi::Runtime rt(2, {}, plan);
  const auto cost = run_with_watchdog([&] {
    return rt.run([&](vmpi::Comm& comm) {
      if (comm.rank() == 1) {
        comm.send_value(0, 5, 111);  // dropped
        comm.send_value(0, 5, 222);  // delivered
      } else {
        EXPECT_EQ(comm.recv_value<int>(1, 5), 222);
        EXPECT_THROW(comm.recv_timeout(1, 5, 0.05), vmpi::TimeoutError);
      }
    });
  });
  EXPECT_EQ(cost.faults.messages_dropped, 1u);
  EXPECT_EQ(cost.faults.crashes_injected, 0u);
}

TEST(FaultVmpi, InjectedDelayHoldsDelivery) {
  vmpi::FaultPlan plan;
  plan.delays.push_back({.rank = 1, .at_send = 1, .seconds = 0.2});
  vmpi::Runtime rt(2, {}, plan);
  double elapsed = 0;
  const auto cost = run_with_watchdog([&] {
    return rt.run([&](vmpi::Comm& comm) {
      if (comm.rank() == 1) {
        comm.send_value(0, 5, 7);
      } else {
        util::WallTimer t;
        EXPECT_EQ(comm.recv_value<int>(1, 5), 7);
        elapsed = t.elapsed();
      }
    });
  });
  EXPECT_EQ(cost.faults.messages_delayed, 1u);
  EXPECT_GE(elapsed, 0.1);
}

TEST(FaultVmpi, CrashAtMessageNKillsOnlyThatRank) {
  vmpi::FaultPlan plan;
  plan.crashes.push_back({.rank = 1, .at_send = 3});
  vmpi::Runtime rt(3, {}, plan);
  const auto cost = run_with_watchdog([&] {
    return rt.run([&](vmpi::Comm& comm) {
      if (comm.rank() == 1) {
        for (int i = 0; i < 5; ++i) comm.send_value(2, 9, i);  // dies at i==2
      } else if (comm.rank() == 2) {
        EXPECT_EQ(comm.recv_value<int>(1, 9), 0);
        EXPECT_EQ(comm.recv_value<int>(1, 9), 1);
        // Third message never comes; the failed source turns the wait into
        // a prompt TimeoutError rather than a hang.
        EXPECT_THROW(comm.recv_timeout(1, 9, 5.0), vmpi::TimeoutError);
        EXPECT_TRUE(comm.rank_failed(1));
      }
    });
  });
  EXPECT_EQ(cost.faults.crashes_injected, 1u);
  EXPECT_EQ(cost.faults.ranks_failed, 1u);
}

TEST(FaultVmpi, SsendToDeadRankCompletes) {
  vmpi::FaultPlan plan;
  plan.crashes.push_back({.rank = 1, .at_send = 1});
  vmpi::Runtime rt(2, {}, plan);
  const auto cost = run_with_watchdog([&] {
    return rt.run([&](vmpi::Comm& comm) {
      if (comm.rank() == 1) {
        comm.send_value(0, 3, 1);  // dies here
      } else {
        while (!comm.rank_failed(1))
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        // A synchronous send to a dead rank must not block forever.
        const int v = 42;
        comm.ssend(1, 4, &v, sizeof(v));
      }
    });
  });
  EXPECT_EQ(cost.faults.crashes_injected, 1u);
  EXPECT_GE(cost.faults.sends_to_dead, 1u);
}

TEST(FaultVmpi, SsendToFinishedRankCompletes) {
  // A rank that returns normally (finished, not failed) must release
  // synchronous senders blocked on it and fail pending receives fast —
  // otherwise a worker that ssends one last report after the master exits
  // would hang the whole run at thread join.
  vmpi::Runtime rt(2);
  run_with_watchdog([&] {
    return rt.run([&](vmpi::Comm& comm) {
      if (comm.rank() == 1) {
        // Never receives; finishes while the peer is mid-rendezvous.
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      } else {
        const int v = 42;
        comm.ssend(1, 4, &v, sizeof(v));  // blocks until rank 1 finishes
        EXPECT_TRUE(comm.rank_done(1));
        EXPECT_FALSE(comm.rank_failed(1));
        // Nothing will ever arrive from a finished rank: prompt timeout,
        // not a 5-second wait.
        util::WallTimer t;
        EXPECT_THROW(comm.recv_timeout(1, 9, 5.0), vmpi::TimeoutError);
        EXPECT_LT(t.elapsed(), 1.0);
      }
    });
  });
}

TEST(FaultVmpi, SendToFinishedRankIsDiscarded) {
  vmpi::Runtime rt(2);
  run_with_watchdog([&] {
    return rt.run([&](vmpi::Comm& comm) {
      if (comm.rank() == 0) {
        while (!comm.rank_done(1))
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        comm.send_value(1, 5, 7);  // discarded, must not throw or block
        const int v = 9;
        comm.ssend(1, 5, &v, sizeof(v));  // completes immediately
      }
    });
  });
}

TEST(FaultVmpi, SeededDropsAreDeterministic) {
  auto count_drops = [&] {
    vmpi::FaultPlan plan;
    plan.seed = 1234;
    plan.drop_prob = 0.5;
    vmpi::Runtime rt(2, {}, plan);
    const auto cost = rt.run([&](vmpi::Comm& comm) {
      if (comm.rank() == 1) {
        for (int i = 0; i < 64; ++i) comm.send_value(0, 5, i);
        comm.barrier();
      } else {
        comm.barrier();  // internal traffic: never dropped
        vmpi::Status st;
        while (comm.iprobe(1, 5, &st)) (void)comm.recv_value<int>(1, 5);
      }
    });
    return cost.faults.messages_dropped;
  };
  const auto a = count_drops();
  const auto b = count_drops();
  EXPECT_EQ(a, b);
  EXPECT_GT(a, 8u);   // ~32 expected of 64
  EXPECT_LT(a, 56u);
}

// --- wire: checkpoint format ----------------------------------------------

TEST(Checkpoint, EncodeDecodeRoundTrip) {
  core::ClusterCheckpoint c;
  c.epoch = 9;
  c.num_ranks = 4;
  c.n_fragments = 3;
  c.labels = {0, 1, 0};
  c.pending = {{1, 2, 3, 4, 5}, {6, 7, 8, 9, 10}};
  c.progress = {{1, 0, 100}, {2, 1, 50}, {3, 0, 0}};
  c.input_hash = 0x1122334455667788ULL;
  c.params_hash = 0x99aabbccddeeff00ULL;
  c.pairs_generated = 1000;
  c.pairs_aligned = 400;
  c.merges = 7;
  const auto back = core::decode_checkpoint(core::encode_checkpoint(c));
  EXPECT_EQ(back.epoch, 9u);
  EXPECT_EQ(back.num_ranks, 4u);
  EXPECT_EQ(back.input_hash, 0x1122334455667788ULL);
  EXPECT_EQ(back.params_hash, 0x99aabbccddeeff00ULL);
  ASSERT_EQ(back.labels.size(), 3u);
  EXPECT_EQ(back.labels[2], 0u);
  ASSERT_EQ(back.pending.size(), 2u);
  EXPECT_EQ(back.pending[1].seq_a, 6u);
  ASSERT_EQ(back.progress.size(), 3u);
  EXPECT_EQ(back.progress[0].emitted, 100u);
  EXPECT_EQ(back.progress[1].done, 1u);
  EXPECT_EQ(back.pairs_generated, 1000u);
  EXPECT_EQ(back.merges, 7u);
}

TEST(Checkpoint, RejectsCorrupted) {
  core::ClusterCheckpoint c;
  c.n_fragments = 2;
  c.labels = {0, 1};
  auto bytes = core::encode_checkpoint(c);
  bytes[0] ^= 0xFF;  // break the magic
  EXPECT_THROW(core::decode_checkpoint(bytes), std::runtime_error);
  bytes = core::encode_checkpoint(c);
  bytes.resize(bytes.size() - 4);
  EXPECT_THROW(core::decode_checkpoint(bytes), std::runtime_error);
}

TEST(Checkpoint, SaveLoadRoundTrip) {
  const std::string path = testing::TempDir() + "pgasm_ckpt_test.bin";
  core::ClusterCheckpoint c;
  c.epoch = 3;
  c.num_ranks = 2;
  c.n_fragments = 2;
  c.labels = {0, 0};
  c.pending = {{1, 2, 3, 4, 5}};
  core::save_checkpoint(path, c);
  const auto back = core::load_checkpoint(path);
  EXPECT_EQ(back.epoch, 3u);
  ASSERT_EQ(back.pending.size(), 1u);
  std::remove(path.c_str());
  EXPECT_THROW(core::load_checkpoint(path), std::runtime_error);
}

TEST(Checkpoint, HashesTrackInputAndParams) {
  util::Prng rng(11);
  const auto store = sampled_reads(rng, 800, 24, 100, 0.01);
  util::Prng rng2(11);
  const auto same = sampled_reads(rng2, 800, 24, 100, 0.01);
  EXPECT_EQ(core::cluster_input_hash(store), core::cluster_input_hash(same));

  // Same read count, different content: content must drive the hash.
  util::Prng rng3(13);
  const auto other = sampled_reads(rng3, 800, 24, 100, 0.01);
  EXPECT_NE(core::cluster_input_hash(store), core::cluster_input_hash(other));

  const auto params = fault_params();
  auto partition_relevant = params;
  partition_relevant.psi += 2;
  EXPECT_NE(core::cluster_params_hash(params),
            core::cluster_params_hash(partition_relevant));
  // Operational knobs must NOT invalidate a checkpoint: retuning timeouts
  // or checkpoint cadence between a run and its resume is legitimate.
  auto operational = params;
  operational.reply_timeout *= 2;
  operational.checkpoint_every_reports = 7;
  operational.use_ssend = !operational.use_ssend;
  EXPECT_EQ(core::cluster_params_hash(params),
            core::cluster_params_hash(operational));
}

TEST(Checkpoint, DefaultParamsHashIsPinned) {
  // Checkpoints and run manifests on disk record this value; if it moves,
  // none of them can be resumed.
  EXPECT_EQ(core::cluster_params_hash(core::ClusterParams{}),
            5527793762861676892ULL);
}

TEST(Checkpoint, MismatchedResumeRefused) {
  util::Prng rng(12);
  const auto store = sampled_reads(rng, 800, 24, 100, 0.01);
  const auto params = fault_params();

  core::ClusterCheckpoint ck;
  ck.epoch = 1;
  ck.num_ranks = 3;
  ck.n_fragments = static_cast<std::uint32_t>(store.size());
  ck.labels.resize(store.size());
  for (std::uint32_t i = 0; i < ck.labels.size(); ++i) ck.labels[i] = i;

  // Wrong input content (same fragment count).
  ck.input_hash = core::cluster_input_hash(store) ^ 1;
  ck.params_hash = core::cluster_params_hash(params);
  EXPECT_THROW(cluster_parallel(store, params, 3, {}, {}, &ck),
               std::invalid_argument);

  // Wrong partition-relevant parameters.
  ck.input_hash = core::cluster_input_hash(store);
  auto other = params;
  other.psi += 2;
  EXPECT_THROW(cluster_parallel(store, other, 3, {}, {}, &ck),
               std::invalid_argument);

  // Wrong fragment count (checked even with unknown hashes).
  ck.input_hash = 0;
  ck.params_hash = 0;
  ck.n_fragments += 1;
  EXPECT_THROW(cluster_parallel(store, params, 3, {}, {}, &ck),
               std::invalid_argument);
}

// --- clustering under faults ----------------------------------------------

TEST(FaultCluster, WorkerCrashSamePartitionWithReassignment) {
  util::Prng rng(2026);
  const auto store = sampled_reads(rng, 2400, 64, 100, 0.01);
  const auto params = fault_params();

  const auto baseline =
      run_with_watchdog([&] { return cluster_parallel(store, params, 4); });
  ASSERT_EQ(baseline.stats.workers_lost, 0u);

  // Rank 2 dies in place of its third report, the first to carry results:
  // those of the batch the master allocated in reply to its first report.
  // Ranks 1 and 3 hold their first reports back for 0.5 s, so rank 2's
  // first report, unless rank 2 is stalled longer than that, is the first
  // the master folds: no merge has happened yet, so all its new pairs are
  // admitted, no worker is parked to take them, and that first batch is
  // non-empty. Without the hold, a rank 2 started late on a loaded host
  // could find every pair already merged and be handed only empty batches.
  vmpi::FaultPlan plan;
  plan.crashes.push_back({.rank = 2, .at_send = 3});
  plan.delays.push_back({.rank = 1, .at_send = 1, .seconds = 0.5});
  plan.delays.push_back({.rank = 3, .at_send = 1, .seconds = 0.5});
  const auto faulty = run_with_watchdog(
      [&] { return cluster_parallel(store, params, 4, {}, plan); });

  EXPECT_EQ(faulty.cost.faults.crashes_injected, 1u);
  // >= : a loaded machine may add false-positive death declarations on top
  // of the injected crash; those are safe and must not change the result.
  EXPECT_GE(faulty.stats.workers_lost, 1u);
  EXPECT_GE(faulty.stats.batches_reassigned, 1u);
  EXPECT_GE(faulty.stats.pairs_reassigned, 1u);
  EXPECT_GE(faulty.stats.generator_takeovers, 1u);
  expect_same_partition(baseline.clusters, faulty.clusters);
}

TEST(FaultCluster, CrashPlusDelaysStillSamePartition) {
  util::Prng rng(77);
  const auto store = sampled_reads(rng, 1600, 48, 100, 0.01);
  const auto params = fault_params();

  const auto baseline =
      run_with_watchdog([&] { return cluster_parallel(store, params, 4); });

  vmpi::FaultPlan plan;
  plan.crashes.push_back({.rank = 3, .at_send = 2});
  plan.seed = 99;
  plan.delay_prob = 0.1;
  plan.delay_seconds = 0.01;
  const auto faulty = run_with_watchdog(
      [&] { return cluster_parallel(store, params, 4, {}, plan); });
  const auto faulty2 = run_with_watchdog(
      [&] { return cluster_parallel(store, params, 4, {}, plan); });

  EXPECT_GE(faulty.stats.workers_lost, 1u);
  expect_same_partition(baseline.clusters, faulty.clusters);
  expect_same_partition(faulty.clusters, faulty2.clusters);
}

TEST(FaultCluster, DroppedReportRecovers) {
  util::Prng rng(404);
  const auto store = sampled_reads(rng, 1600, 48, 100, 0.01);
  auto params = fault_params();
  // Worker 1's user sends are all reports, so its send #1 is exactly its
  // first report.
  params.reply_timeout = 0.2;

  const auto baseline =
      run_with_watchdog([&] { return cluster_parallel(store, params, 3); });

  vmpi::FaultPlan plan;
  plan.drops.push_back({.rank = 1, .at_send = 1});  // first report lost
  const auto faulty = run_with_watchdog(
      [&] { return cluster_parallel(store, params, 3, {}, plan); });

  EXPECT_EQ(faulty.cost.faults.messages_dropped, 1u);
  // The master never saw the original, so the retransmission is folded as a
  // fresh report (not discarded as a duplicate) and no work is lost.
  EXPECT_EQ(faulty.stats.workers_lost, 0u);
  expect_same_partition(baseline.clusters, faulty.clusters);
}

TEST(FaultCluster, DroppedReplyRecoversViaRetransmit) {
  util::Prng rng(405);
  const auto store = sampled_reads(rng, 1600, 48, 100, 0.01);
  auto params = fault_params();
  params.reply_timeout = 0.2;  // the master's user sends are all replies

  const auto baseline =
      run_with_watchdog([&] { return cluster_parallel(store, params, 3); });

  vmpi::FaultPlan plan;
  plan.drops.push_back({.rank = 0, .at_send = 1});  // first reply lost
  const auto faulty = run_with_watchdog(
      [&] { return cluster_parallel(store, params, 3, {}, plan); });

  EXPECT_EQ(faulty.cost.faults.messages_dropped, 1u);
  // The worker retransmitted the unanswered report; the master discarded
  // the duplicate by sequence number and re-sent its cached reply.
  EXPECT_GE(faulty.stats.reports_retransmitted, 1u);
  EXPECT_EQ(faulty.stats.workers_lost, 0u);
  expect_same_partition(baseline.clusters, faulty.clusters);
}

TEST(FaultCluster, DelayedWorkerIsNotDeclaredDead) {
  // A slow worker is a live worker: only the transport may declare a rank
  // dead. Worker 1 stalls 0.6 s inside each of its first three report
  // sends — longer than any probe slice — and must still finish the run.
  util::Prng rng(77);
  const auto store = sampled_reads(rng, 2400, 64, 100, 0.01);
  const auto params = fault_params();
  vmpi::FaultPlan plan;
  for (std::uint64_t i = 1; i <= 3; ++i)
    plan.delays.push_back({.rank = 1, .at_send = i, .seconds = 0.6});

  for (const int p : {2, 3}) {
    SCOPED_TRACE("ranks=" + std::to_string(p));
    const auto baseline =
        run_with_watchdog([&] { return cluster_parallel(store, params, p); });
    const auto slow = run_with_watchdog(
        [&] { return cluster_parallel(store, params, p, {}, plan); });
    EXPECT_EQ(slow.cost.faults.messages_delayed, 3u);
    EXPECT_EQ(slow.stats.workers_lost, 0u);
    EXPECT_EQ(slow.stats.generator_takeovers, 0u);
    EXPECT_EQ(slow.stats.heartbeats_sent, 0u);
    expect_same_partition(baseline.clusters, slow.clusters);
  }
}

TEST(FaultCluster, RetransmitCapFailsTheRankNotTheRun) {
  util::Prng rng(404);
  const auto store = sampled_reads(rng, 1600, 48, 100, 0.01);
  auto params = fault_params();
  params.reply_timeout = 0.05;
  params.reply_max_retries = 2;

  const auto baseline =
      run_with_watchdog([&] { return cluster_parallel(store, params, 3); });

  // Worker 1's user sends are all reports: its first report and both
  // retransmissions are lost, so it exhausts its cap before the master
  // ever hears from it. (The fourth drop is never reached.)
  vmpi::FaultPlan plan;
  for (std::uint64_t i = 1; i <= params.reply_max_retries + 2; ++i)
    plan.drops.push_back({.rank = 1, .at_send = i});
  const auto faulty = run_with_watchdog(
      [&] { return cluster_parallel(store, params, 3, {}, plan); });

  EXPECT_EQ(faulty.cost.faults.messages_dropped, params.reply_max_retries + 1);
  EXPECT_EQ(faulty.cost.faults.crashes_injected, 0u);
  EXPECT_EQ(faulty.cost.faults.ranks_failed, 1u);
  EXPECT_EQ(faulty.stats.workers_lost, 1u);
  EXPECT_EQ(faulty.stats.generator_takeovers, 1u);
  expect_same_partition(baseline.clusters, faulty.clusters);
}

TEST(FaultCluster, CrashIsReapedWhileParkedWorkersKeepReporting) {
  // Worker 3 stalls 0.3 s in its first report send, so the other workers
  // run out of work and park waiting on its generator role; then it crashes
  // at its second send. At reply_timeout 0.05 the parked workers' keepalives
  // (two at P=4, four at P=6) leave the master almost no quiet 50 ms slice,
  // so the failure sweep must not wait for one.
  util::Prng rng(2026);
  const auto store = sampled_reads(rng, 2400, 64, 100, 0.01);
  auto params = fault_params();
  params.reply_timeout = 0.05;
  vmpi::FaultPlan plan;
  plan.delays.push_back({.rank = 3, .at_send = 1, .seconds = 0.3});
  plan.crashes.push_back({.rank = 3, .at_send = 2});

  for (const int p : {4, 6}) {
    SCOPED_TRACE("ranks=" + std::to_string(p));
    const auto baseline =
        run_with_watchdog([&] { return cluster_parallel(store, params, p); });
    const auto faulty = run_with_watchdog(
        [&] { return cluster_parallel(store, params, p, {}, plan); }, 30);
    EXPECT_EQ(faulty.cost.faults.crashes_injected, 1u);
    EXPECT_EQ(faulty.stats.workers_lost, 1u);
    EXPECT_EQ(faulty.stats.generator_takeovers, 1u);
    expect_same_partition(baseline.clusters, faulty.clusters);
  }
}

TEST(FaultCluster, RandomDropsStillSamePartition) {
  util::Prng rng(406);
  const auto store = sampled_reads(rng, 1600, 48, 100, 0.01);
  auto params = fault_params();
  params.reply_timeout = 0.2;

  const auto baseline =
      run_with_watchdog([&] { return cluster_parallel(store, params, 4); });

  vmpi::FaultPlan plan;
  plan.seed = 4242;
  plan.drop_prob = 0.03;  // reports and replies alike at risk
  const auto faulty = run_with_watchdog(
      [&] { return cluster_parallel(store, params, 4, {}, plan); });

  EXPECT_GT(faulty.cost.faults.messages_dropped, 0u);
  expect_same_partition(baseline.clusters, faulty.clusters);
}

TEST(FaultCluster, MasterCrashThenCheckpointResumeCompletes) {
  util::Prng rng(31415);
  const auto store = sampled_reads(rng, 2400, 64, 100, 0.01);
  auto params = fault_params();

  const auto baseline =
      run_with_watchdog([&] { return cluster_parallel(store, params, 3); });
  ASSERT_GT(baseline.stats.pairs_aligned, 0u);

  params.checkpoint_every_reports = 2;
  params.checkpoint_path = testing::TempDir() + "pgasm_resume_test.ckpt";
  std::remove(params.checkpoint_path.c_str());

  // Kill the master partway through: the run must fail (not hang), leaving
  // a checkpoint behind.
  vmpi::FaultPlan plan;
  plan.crashes.push_back({.rank = 0, .at_send = 16});
  EXPECT_THROW(run_with_watchdog([&] {
                 return cluster_parallel(store, params, 3, {}, plan);
               }),
               std::runtime_error);

  const auto ckpt = core::load_checkpoint(params.checkpoint_path);
  EXPECT_GE(ckpt.epoch, 1u);
  EXPECT_EQ(ckpt.n_fragments, store.size());
  EXPECT_GT(ckpt.merges + ckpt.pending.size() + ckpt.pairs_aligned, 0u);
  // The checkpoint carries the hashes resume validation checks against.
  EXPECT_EQ(ckpt.input_hash, core::cluster_input_hash(store));
  EXPECT_EQ(ckpt.params_hash, core::cluster_params_hash(params));

  // Resume fault-free: identical partition. Stats counters continue from
  // the checkpoint (whole-logical-run totals), so the resumed run's *new*
  // work — the delta over the checkpoint — must be strictly less than a
  // fresh run: completed merges are not re-aligned, and generation
  // fast-forwards past the checkpointed positions.
  const auto resumed = run_with_watchdog([&] {
    return cluster_parallel(store, params, 3, {}, {}, &ckpt);
  });
  expect_same_partition(baseline.clusters, resumed.clusters);
  EXPECT_EQ(resumed.stats.resumed_from_epoch, ckpt.epoch);
  EXPECT_GE(resumed.stats.pairs_aligned, ckpt.pairs_aligned);
  EXPECT_LT(resumed.stats.pairs_aligned - ckpt.pairs_aligned,
            baseline.stats.pairs_aligned);
  EXPECT_GE(resumed.stats.pairs_generated, ckpt.pairs_generated);
  EXPECT_LT(resumed.stats.pairs_generated - ckpt.pairs_generated,
            baseline.stats.pairs_generated);
  EXPECT_GT(resumed.stats.pairs_skipped_resume, 0u);
  std::remove(params.checkpoint_path.c_str());
}

// --- fault-tolerant GST construction through clustering --------------------

TEST(FaultClusterGst, FaultFreeFtGstMatchesDefaultPath) {
  util::Prng rng(606);
  const auto store = sampled_reads(rng, 1600, 48, 100, 0.01);
  const auto params = fault_params();

  const auto baseline =
      run_with_watchdog([&] { return cluster_parallel(store, params, 4); });

  auto ft = params;
  ft.fault_tolerant_gst = true;
  const auto result =
      run_with_watchdog([&] { return cluster_parallel(store, ft, 4); });
  expect_same_partition(baseline.clusters, result.clusters);
  EXPECT_EQ(result.stats.gst_ranks_recovered, 0u);
  EXPECT_EQ(result.stats.gst_buckets_reassigned, 0u);
  EXPECT_EQ(result.stats.gst_resumed, 0u);
}

TEST(FaultClusterGst, RankKilledMidGstRecoversSamePartition) {
  util::Prng rng(607);
  const auto store = sampled_reads(rng, 2000, 56, 100, 0.01);
  auto params = fault_params();
  params.fault_tolerant_gst = true;

  const auto baseline =
      run_with_watchdog([&] { return cluster_parallel(store, params, 4); });

  // Send #1 under the fault-tolerant GST protocol is the rank's histogram,
  // sends #2..#p its suffix contributions: at_send = 3 dies mid-
  // redistribution, after the coordinator has assigned it buckets. Before
  // this PR any death inside the GST phase aborted the whole run.
  vmpi::FaultPlan plan;
  plan.crashes.push_back({.rank = 2, .at_send = 3});
  const auto faulty = run_with_watchdog(
      [&] { return cluster_parallel(store, params, 4, {}, plan); });

  EXPECT_EQ(faulty.cost.faults.crashes_injected, 1u);
  EXPECT_GE(faulty.stats.gst_buckets_reassigned, 1u);
  // The dead rank never reaches the clustering phase either: the master
  // reaps it on its first quiet probe slice and a survivor rebuilds its
  // (empty, under the final table) generator role.
  EXPECT_GE(faulty.stats.workers_lost, 1u);
  expect_same_partition(baseline.clusters, faulty.clusters);
}

TEST(FaultClusterGst, GstCheckpointWrittenAndResumed) {
  util::Prng rng(608);
  const auto store = sampled_reads(rng, 1600, 48, 100, 0.01);
  auto params = fault_params();
  params.fault_tolerant_gst = true;
  params.gst_checkpoint_path = testing::TempDir() + "pgasm_gst_test.pgck";
  std::remove(params.gst_checkpoint_path.c_str());

  const auto first =
      run_with_watchdog([&] { return cluster_parallel(store, params, 4); });
  EXPECT_EQ(first.stats.gst_resumed, 0u);

  auto loaded = core::try_load_gst_checkpoint(params.gst_checkpoint_path);
  ASSERT_TRUE(loaded.has_value()) << core::wire_errc_name(loaded.error().code);
  EXPECT_EQ(loaded.value().num_ranks, 4u);
  EXPECT_EQ(loaded.value().prefix_w, params.prefix_w);

  // Second run resumes from the recorded table: every rank rebuilds its
  // portion locally and the GST phase moves zero construction traffic.
  const auto second =
      run_with_watchdog([&] { return cluster_parallel(store, params, 4); });
  EXPECT_EQ(second.stats.gst_resumed, 4u);
  expect_same_partition(first.clusters, second.clusters);
  std::remove(params.gst_checkpoint_path.c_str());
}

TEST(FaultClusterGst, ClusterResumeRequiresGstCheckpoint) {
  util::Prng rng(609);
  const auto store = sampled_reads(rng, 800, 24, 100, 0.01);
  auto params = fault_params();
  params.fault_tolerant_gst = true;
  params.gst_checkpoint_path = testing::TempDir() + "pgasm_gst_missing.pgck";
  std::remove(params.gst_checkpoint_path.c_str());

  // A valid cluster checkpoint whose generator positions are only
  // meaningful under the GST owner table it was written with: without that
  // table the resume must refuse rather than replay positions against a
  // differently-shaped portion.
  core::ClusterCheckpoint ck;
  ck.epoch = 1;
  ck.num_ranks = 3;
  ck.n_fragments = static_cast<std::uint32_t>(store.size());
  ck.labels.resize(store.size());
  for (std::uint32_t i = 0; i < ck.labels.size(); ++i) ck.labels[i] = i;
  ck.input_hash = core::cluster_input_hash(store);
  ck.params_hash = core::cluster_params_hash(params);
  EXPECT_THROW(cluster_parallel(store, params, 3, {}, {}, &ck),
               std::invalid_argument);
}

TEST(FaultCluster, FaultFreeRunReportsNoRecoveryActivity) {
  util::Prng rng(5);
  const auto store = sampled_reads(rng, 1200, 32, 100, 0.01);
  const auto result = run_with_watchdog(
      [&] { return cluster_parallel(store, fault_params(), 3); });
  EXPECT_EQ(result.stats.workers_lost, 0u);
  EXPECT_EQ(result.stats.batches_reassigned, 0u);
  EXPECT_EQ(result.stats.generator_takeovers, 0u);
  EXPECT_EQ(result.stats.reports_retransmitted, 0u);
  EXPECT_EQ(result.stats.checkpoints_written, 0u);
  EXPECT_EQ(result.cost.faults.crashes_injected, 0u);
  EXPECT_EQ(result.cost.faults.messages_dropped, 0u);
}

}  // namespace
}  // namespace pgasm
