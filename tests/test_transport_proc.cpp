// Tests for the multi-process vmpi transport: real forked rank processes
// over shared-memory rings must reproduce the thread transport's semantics
// (point-to-point, ssend rendezvous, collectives, liveness, faults) while
// adding the things only real processes exercise — ledger/obs merge from
// exit blobs, streaming messages bigger than a ring, and real SIGKILL crash
// injection.
#include <gtest/gtest.h>

#include <cstdlib>
#include <numeric>
#include <vector>

#include "core/parallel_cluster.hpp"
#include "core/serial_cluster.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "test_helpers.hpp"
#include "vmpi/runtime.hpp"

namespace pgasm {
namespace {

using vmpi::Comm;
using vmpi::Runtime;

TEST(TransportResolve, NamesAndEnvFallback) {
  EXPECT_EQ(vmpi::resolve_transport("thread"), vmpi::TransportKind::kThread);
  EXPECT_EQ(vmpi::resolve_transport("proc"), vmpi::TransportKind::kProc);
  EXPECT_THROW(vmpi::resolve_transport("carrier-pigeon"), std::runtime_error);

  ::unsetenv("PGASM_TRANSPORT");
  EXPECT_EQ(vmpi::resolve_transport(""), vmpi::TransportKind::kThread);
  ::setenv("PGASM_TRANSPORT", "proc", 1);
  EXPECT_EQ(vmpi::resolve_transport(""), vmpi::TransportKind::kProc);
  ::setenv("PGASM_TRANSPORT", "thread", 1);
  EXPECT_EQ(vmpi::resolve_transport(""), vmpi::TransportKind::kThread);
  ::unsetenv("PGASM_TRANSPORT");

  EXPECT_STREQ(vmpi::transport_name(vmpi::TransportKind::kThread), "thread");
  EXPECT_STREQ(vmpi::transport_name(vmpi::TransportKind::kProc), "proc");
}

TEST(ProcTransport, PointToPointRing) {
  const int p = 4;
  Runtime rt(p, "proc");
  EXPECT_EQ(rt.transport(), vmpi::TransportKind::kProc);
  rt.run([](Comm& c) {
    EXPECT_EQ(c.transport_kind(), vmpi::TransportKind::kProc);
    const int to = (c.rank() + 1) % c.size();
    const int from = (c.rank() - 1 + c.size()) % c.size();
    c.send_value(to, 1, c.rank() * 10);
    vmpi::Status st;
    const int v = c.recv_value<int>(from, 1, &st);
    EXPECT_EQ(v, from * 10);
    EXPECT_EQ(st.source, from);
    EXPECT_EQ(st.tag, 1);
  });
}

TEST(ProcTransport, RanksAreRealProcesses) {
  // Each rank sends its pid to rank 0, which runs in this process and so
  // can write the captured vector; with forked ranks all pids must be
  // distinct and only rank 0's equals the parent's.
  const int p = 4;
  const pid_t parent = ::getpid();
  Runtime rt(p, "proc");
  std::vector<std::int64_t> pids(p, 0);
  rt.run([&pids](Comm& c) {
    const auto pid = static_cast<std::int64_t>(::getpid());
    if (c.rank() != 0) {
      c.send_value(0, 1, pid);
      return;
    }
    pids[0] = pid;
    for (int r = 1; r < c.size(); ++r)
      pids[static_cast<std::size_t>(r)] = c.recv_value<std::int64_t>(r, 1);
  });
  EXPECT_EQ(pids[0], static_cast<std::int64_t>(parent));
  std::sort(pids.begin(), pids.end());
  EXPECT_EQ(std::unique(pids.begin(), pids.end()), pids.end());
  for (std::size_t r = 1; r < pids.size(); ++r) {
    EXPECT_NE(pids[r], static_cast<std::int64_t>(parent));
  }
}

TEST(ProcTransport, SsendRendezvousAndCollectives) {
  const int p = 4;
  Runtime rt(p, "proc");
  rt.run([](Comm& c) {
    // ssend both directions around the ring.
    const int to = (c.rank() + 1) % c.size();
    const int from = (c.rank() - 1 + c.size()) % c.size();
    if (c.rank() % 2 == 0) {
      c.ssend_vector<int>(to, 2, {c.rank(), c.rank() + 1});
      const auto got = c.recv_vector<int>(from, 2);
      ASSERT_EQ(got.size(), 2u);
      EXPECT_EQ(got[0], from);
    } else {
      const auto got = c.recv_vector<int>(from, 2);
      ASSERT_EQ(got.size(), 2u);
      EXPECT_EQ(got[0], from);
      c.ssend_vector<int>(to, 2, {c.rank(), c.rank() + 1});
    }
    c.barrier();
    EXPECT_EQ(c.allreduce_sum<int>(c.rank()),
              c.size() * (c.size() - 1) / 2);
    EXPECT_EQ(c.allreduce_max<int>(c.rank()), c.size() - 1);
    std::vector<std::uint32_t> slots(static_cast<std::size_t>(c.size()), 0);
    slots[static_cast<std::size_t>(c.rank())] =
        static_cast<std::uint32_t>(c.rank()) + 1;
    const auto all = c.allreduce_vector(
        std::move(slots),
        [](std::uint32_t a, std::uint32_t b) { return a + b; });
    for (int r = 0; r < c.size(); ++r) {
      EXPECT_EQ(all[static_cast<std::size_t>(r)],
                static_cast<std::uint32_t>(r) + 1);
    }
    // Personalized exchange, staged variant (the paper's Alltoallv).
    std::vector<std::vector<int>> out(static_cast<std::size_t>(c.size()));
    for (int d = 0; d < c.size(); ++d) {
      out[static_cast<std::size_t>(d)] = {c.rank() * 100 + d};
    }
    const auto in = c.staged_alltoallv(out);
    for (int s = 0; s < c.size(); ++s) {
      ASSERT_EQ(in[static_cast<std::size_t>(s)].size(), 1u);
      EXPECT_EQ(in[static_cast<std::size_t>(s)][0], s * 100 + c.rank());
    }
  });
}

TEST(ProcTransport, MessagesLargerThanRingStream) {
  const int p = 2;
  Runtime rt(p, "proc");
  const std::size_t n = 1 << 20;  // 1 MiB through the 256 KiB ring
  rt.run([n](Comm& c) {
    if (c.rank() == 0) {
      std::vector<std::uint8_t> big(n);
      for (std::size_t i = 0; i < n; ++i) {
        big[i] = static_cast<std::uint8_t>(i * 2654435761u >> 13);
      }
      c.send_vector(1, 5, big);
      const auto echoed = c.recv_vector<std::uint8_t>(1, 6);
      ASSERT_EQ(echoed.size(), n);
      EXPECT_EQ(echoed, big);
    } else {
      auto big = c.recv_vector<std::uint8_t>(0, 5);
      ASSERT_EQ(big.size(), n);
      c.send_vector(0, 6, big);
    }
  });
}

TEST(ProcTransport, LedgerMergedFromChildren) {
  const int p = 3;
  Runtime rt(p, "proc");
  const auto cost = rt.run([](Comm& c) {
    const int to = (c.rank() + 1) % c.size();
    c.send_value(to, 1, 7);
    (void)c.recv_value<int>(vmpi::kAnySource, 1);
  });
  ASSERT_EQ(cost.per_rank.size(), 3u);
  for (int r = 0; r < p; ++r) {
    EXPECT_EQ(cost.per_rank[static_cast<std::size_t>(r)].msgs_sent, 1u)
        << "rank " << r;
    EXPECT_EQ(cost.per_rank[static_cast<std::size_t>(r)].msgs_recv, 1u)
        << "rank " << r;
  }
  EXPECT_EQ(cost.total_msgs(), 3u);
}

TEST(ProcTransport, CrashIsARealSigkillAndSurvivorsContinue) {
  const int p = 4;
  vmpi::FaultPlan faults;
  faults.crashes.push_back({/*rank=*/2, /*at_send=*/1});
  Runtime rt(p, "proc", vmpi::CostParams{}, faults);
  const auto cost = rt.run([](Comm& c) {
    const int to = (c.rank() + 1) % c.size();
    c.send_value(to, 3, c.rank());
    if (c.rank() == 2) return;  // unreachable: the send above kills rank 2
    // Survivors: tolerate the dead peer via timeouts / failure oracle.
    for (;;) {
      try {
        (void)c.recv_value_timeout<int>(vmpi::kAnySource, 3, 0.2);
        break;
      } catch (const vmpi::TimeoutError&) {
        if (c.rank_failed(2) && c.rank() == 3) break;  // sender died
      }
    }
  });
  EXPECT_EQ(cost.faults.crashes_injected, 1u);
  EXPECT_EQ(cost.faults.ranks_failed, 1u);
  // The SIGKILLed rank shipped nothing back; a survivor's ledger arrived.
  EXPECT_EQ(cost.per_rank[2].msgs_sent, 0u);
  EXPECT_EQ(cost.per_rank[1].msgs_sent, 1u);
}

TEST(ProcTransport, RecvFromDeadRankFailsFast) {
  const int p = 3;
  vmpi::FaultPlan faults;
  faults.crashes.push_back({/*rank=*/1, /*at_send=*/1});
  Runtime rt(p, "proc", vmpi::CostParams{}, faults);
  rt.run([](Comm& c) {
    if (c.rank() == 1) {
      c.send_value(0, 1, 0);  // dies here (SIGKILL before the send lands)
      return;
    }
    if (c.rank() == 0) {
      // Wait out the failure detector, then a deadline-carrying recv from
      // the dead rank must throw instead of blocking forever.
      while (!c.rank_failed(1)) {
      }
      EXPECT_THROW((void)c.recv_value_timeout<int>(1, 99, 10.0),
                   vmpi::TimeoutError);
    }
  });
}

TEST(ProcTransport, ChildErrorPropagatesWithMessage) {
  const int p = 3;
  Runtime rt(p, "proc");
  try {
    rt.run([](Comm& c) {
      if (c.rank() == 2) throw std::runtime_error("rank 2 exploded");
      c.barrier();  // interrupted by the abort
    });
    FAIL() << "expected the child's exception to propagate";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_TRUE(msg == "rank 2 exploded" || msg == "vmpi run aborted") << msg;
  }
}

TEST(ProcTransport, ObsMergeStitchesChildEvents) {
  auto& tracer = obs::tracer();
  tracer.clear();
  tracer.set_enabled(true);
  const int p = 3;
  Runtime rt(p, "proc");
  rt.run([](Comm& c) {
    const int to = (c.rank() + 1) % c.size();
    c.send_value(to, 1, c.rank());
    (void)c.recv_value<int>(vmpi::kAnySource, 1);
  });
  // Every rank's ring must hold merged events — child ranks' came across
  // the process boundary in exit blobs. Each rank did one user send and one
  // user recv, so both instants/spans must be present with mseq args.
  const auto all = tracer.drain_all();
  for (int r = 0; r < p; ++r) {
    ASSERT_TRUE(all.count(r) != 0) << "no events for rank " << r;
    int sends = 0;
    int recvs = 0;
    for (const auto& ev : all.at(r)) {
      if (std::string(ev.name) == "send") ++sends;
      if (std::string(ev.name) == "recv") ++recvs;
    }
    EXPECT_EQ(sends, 1) << "rank " << r;
    EXPECT_EQ(recvs, 1) << "rank " << r;
  }
  tracer.set_enabled(false);
  tracer.clear();
}

TEST(ProcTransport, ContigLevelDeterminismVsThread) {
  // The same seeded SPMD computation must produce bit-identical results on
  // both transports: the transport moves bytes, it must not change them.
  const int p = 4;
  const auto compute = [](const std::string& transport) {
    Runtime rt(p, transport);
    std::vector<std::uint64_t> merged;
    auto cost = rt.run([&merged](Comm& c) {
      std::vector<std::uint64_t> local;
      for (int i = 0; i < 50; ++i) {
        local.push_back(static_cast<std::uint64_t>(c.rank()) * 1000003u +
                        static_cast<std::uint64_t>(i) * 17u);
      }
      std::vector<std::vector<std::uint64_t>> out(
          static_cast<std::size_t>(c.size()));
      out[0] = std::move(local);  // gather at rank 0
      auto rows = c.staged_alltoallv(out);
      if (c.rank() == 0) {
        std::vector<std::uint64_t> flat;
        for (auto& row : rows) {
          flat.insert(flat.end(), row.begin(), row.end());
        }
        std::sort(flat.begin(), flat.end());
        merged = flat;
      }
      c.barrier();
    });
    return merged;
  };
  const auto via_thread = compute("thread");
  const auto via_proc = compute("proc");
  ASSERT_EQ(via_thread.size(), 200u);
  EXPECT_EQ(via_thread, via_proc);
}

TEST(ProcTransport, GstPhaseCostsReachTheDriver) {
  // Ranks 1..p-1 are forked children under "proc", so their GST costs can
  // reach ClusterStats only by message: a reduce onto rank 0, which runs
  // in this process under both transports.
  util::Prng rng(1001);
  const auto genome = test::random_dna(rng, 1200);
  seq::FragmentStore store;
  for (int i = 0; i < 40; ++i) {
    const std::size_t start = rng.below(genome.size() - 110);
    store.add(std::vector<seq::Code>(genome.begin() + start,
                                     genome.begin() + start + 110));
  }
  core::ClusterParams params;
  params.psi = 12;
  params.overlap.min_overlap = 30;
  params.overlap.min_identity = 0.9;
  params.overlap.band = 8;
  params.batch_size = 16;
  // Label each fragment by the first fragment of its set, so equal vectors
  // mean equal partitions.
  const auto first_member = [](const util::UnionFind& uf) {
    const auto labels = uf.labels();
    std::vector<std::uint32_t> first(labels.size(), ~0u), out;
    for (std::uint32_t x = 0; x < labels.size(); ++x) {
      if (first[labels[x]] == ~0u) first[labels[x]] = x;
      out.push_back(first[labels[x]]);
    }
    return out;
  };
  const auto expected =
      first_member(core::cluster_serial(store, params).clusters);
  for (const char* transport : {"thread", "proc"}) {
    SCOPED_TRACE(transport);
    params.transport = transport;
    const auto r = core::cluster_parallel(store, params, 3);
    EXPECT_GT(r.stats.gst_seconds, 0.0);
    EXPECT_GT(r.stats.gst_modeled_seconds, 0.0);
    EXPECT_LE(r.stats.gst_modeled_seconds, r.cost.modeled_parallel_seconds());
    EXPECT_EQ(first_member(r.clusters), expected);
  }
}

}  // namespace
}  // namespace pgasm
