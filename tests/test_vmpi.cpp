// Tests for the virtual MPI runtime: point-to-point semantics, collectives
// against trivial references, the staged Alltoallv, cost accounting, abort.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <numeric>
#include <thread>

#include "vmpi/runtime.hpp"

namespace pgasm {
namespace {

using vmpi::Comm;
using vmpi::Runtime;

class VmpiSizes : public ::testing::TestWithParam<int> {};

TEST_P(VmpiSizes, PointToPointRing) {
  const int p = GetParam();
  Runtime rt(p);
  rt.run([&](Comm& c) {
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

TEST_P(VmpiSizes, Barrier) {
  const int p = GetParam();
  Runtime rt(p);
  std::atomic<int> phase1{0};
  std::atomic<bool> violated{false};
  rt.run([&](Comm& c) {
    phase1.fetch_add(1);
    c.barrier();
    if (phase1.load() != p) violated.store(true);
    c.barrier();
  });
  EXPECT_FALSE(violated.load());
}

TEST_P(VmpiSizes, BcastFromEveryRoot) {
  const int p = GetParam();
  Runtime rt(p);
  rt.run([&](Comm& c) {
    for (int root = 0; root < c.size(); ++root) {
      std::vector<std::uint64_t> v;
      if (c.rank() == root) {
        v = {static_cast<std::uint64_t>(root), 7, 9};
      }
      c.bcast_vector(v, root);
      ASSERT_EQ(v.size(), 3u);
      EXPECT_EQ(v[0], static_cast<std::uint64_t>(root));
      EXPECT_EQ(v[2], 9u);
    }
  });
}

TEST_P(VmpiSizes, AllreduceSumAndMax) {
  const int p = GetParam();
  Runtime rt(p);
  rt.run([&](Comm& c) {
    const auto sum = c.allreduce_sum<std::int64_t>(c.rank() + 1);
    EXPECT_EQ(sum, static_cast<std::int64_t>(p) * (p + 1) / 2);
    const auto mx = c.allreduce_max<int>(c.rank());
    EXPECT_EQ(mx, p - 1);
  });
}

TEST_P(VmpiSizes, AllreduceVectorElementwise) {
  const int p = GetParam();
  Runtime rt(p);
  rt.run([&](Comm& c) {
    std::vector<std::uint32_t> local(16);
    for (std::size_t i = 0; i < local.size(); ++i)
      local[i] = static_cast<std::uint32_t>(c.rank() + i);
    auto sum = c.allreduce_vector(std::move(local),
                                  [](std::uint32_t a, std::uint32_t b) {
                                    return a + b;
                                  });
    for (std::size_t i = 0; i < sum.size(); ++i) {
      EXPECT_EQ(sum[i], static_cast<std::uint32_t>(p * (p - 1) / 2 + p * i));
    }
  });
}

// The staged Alltoallv is vmpi's only all-to-all (the GST build's).
TEST_P(VmpiSizes, AlltoallvBothVariants) {
  const int p = GetParam();
  Runtime rt(p);
  rt.run([&](Comm& c) {
    std::vector<std::vector<std::uint32_t>> out(
        static_cast<std::size_t>(c.size()));
    for (int d = 0; d < c.size(); ++d) {
      // Rank r sends to d a block of (r + d) values r*100 + d.
      out[d].assign(static_cast<std::size_t>(c.rank() + d),
                    static_cast<std::uint32_t>(c.rank() * 100 + d));
    }
    const auto in = c.staged_alltoallv(out);
    ASSERT_EQ(in.size(), static_cast<std::size_t>(c.size()));
    for (int s = 0; s < c.size(); ++s) {
      ASSERT_EQ(in[s].size(), static_cast<std::size_t>(s + c.rank()));
      for (auto v : in[s]) {
        EXPECT_EQ(v, static_cast<std::uint32_t>(s * 100 + c.rank()));
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, VmpiSizes,
                         ::testing::Values(1, 2, 3, 4, 5, 8, 13));

TEST(Vmpi, WildcardReceiveAndProbe) {
  Runtime rt(3);
  rt.run([&](Comm& c) {
    if (c.rank() != 0) {
      c.send_value(0, c.rank(), c.rank() * 3);
    } else {
      int got = 0;
      while (got < 2) {
        vmpi::Status st = c.probe(vmpi::kAnySource, vmpi::kAnyTag);
        const int v = c.recv_value<int>(st.source, st.tag);
        EXPECT_EQ(v, st.source * 3);
        EXPECT_EQ(st.tag, st.source);
        ++got;
      }
      vmpi::Status st;
      EXPECT_FALSE(c.iprobe(vmpi::kAnySource, vmpi::kAnyTag, &st));
    }
  });
}

TEST(Vmpi, MessagesFromSameSenderArriveInOrder) {
  Runtime rt(2);
  rt.run([&](Comm& c) {
    if (c.rank() == 0) {
      for (int i = 0; i < 50; ++i) c.send_value(1, 9, i);
    } else {
      for (int i = 0; i < 50; ++i) {
        EXPECT_EQ(c.recv_value<int>(0, 9), i);
      }
    }
  });
}

TEST(Vmpi, SsendBlocksUntilConsumed) {
  Runtime rt(2);
  std::atomic<bool> consumed{false};
  std::atomic<bool> ssend_returned_before_consume{false};
  rt.run([&](Comm& c) {
    if (c.rank() == 0) {
      const int v = 5;
      c.ssend(1, 1, &v, sizeof v);
      if (!consumed.load()) ssend_returned_before_consume.store(true);
    } else {
      // Give the sender a chance to (incorrectly) run ahead.
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      consumed.store(true);
      EXPECT_EQ(c.recv_value<int>(0, 1), 5);
    }
  });
  EXPECT_FALSE(ssend_returned_before_consume.load());
}

TEST(Vmpi, AbortPropagatesToAllRanks) {
  Runtime rt(4);
  EXPECT_THROW(rt.run([&](Comm& c) {
                 if (c.rank() == 2) throw std::runtime_error("boom");
                 // Other ranks block forever; abort must wake them.
                 (void)c.recv(vmpi::kAnySource, vmpi::kAnyTag);
               }),
               std::runtime_error);
}

TEST(Vmpi, CostLedgerCountsTraffic) {
  Runtime rt(2);
  auto cost = rt.run([&](Comm& c) {
    if (c.rank() == 0) {
      std::vector<std::uint8_t> payload(1000, 7);
      c.send_vector(1, 1, payload);
    } else {
      (void)c.recv_vector<std::uint8_t>(0, 1);
    }
  });
  EXPECT_EQ(cost.per_rank[0].msgs_sent, 1u);
  EXPECT_EQ(cost.per_rank[0].bytes_sent, 1000u);
  EXPECT_EQ(cost.per_rank[1].msgs_recv, 1u);
  EXPECT_EQ(cost.per_rank[1].bytes_recv, 1000u);
  EXPECT_GT(cost.per_rank[0].comm_seconds, 0.0);
  EXPECT_GT(cost.modeled_parallel_seconds(), 0.0);
}

TEST(Vmpi, ComputeScopeChargesTime) {
  Runtime rt(1);
  auto cost = rt.run([&](Comm& c) {
    auto scope = c.compute_scope();
    volatile double x = 1.0;
    for (int i = 0; i < 2000000; ++i) x = x * 1.0000001;
  });
  EXPECT_GT(cost.per_rank[0].compute_seconds, 0.0);
}

TEST(Vmpi, IdleFractionReflectsImbalance) {
  Runtime rt(4);
  auto cost = rt.run([&](Comm& c) {
    // Rank 0 does all the (charged) work.
    if (c.rank() == 0) c.charge_compute(1.0);
  });
  // The makespan is rank 0's charged second; the other three sit idle.
  EXPECT_NEAR(cost.modeled_parallel_seconds(), 1.0, 0.05);
}

TEST(Vmpi, RuntimeReusableAcrossRuns) {
  Runtime rt(3);
  for (int iter = 0; iter < 3; ++iter) {
    rt.run([&](Comm& c) {
      const auto s = c.allreduce_sum<int>(1);
      EXPECT_EQ(s, 3);
    });
  }
}

TEST(Vmpi, CollectivesChargeCommunication) {
  Runtime rt(4);
  auto cost = rt.run([&](Comm& c) {
    c.barrier();
    std::vector<std::uint32_t> v(256, c.rank());
    c.bcast_vector(v, 2);
    (void)c.allreduce_sum<std::uint64_t>(1);
  });
  // Every rank participated in message traffic.
  for (const auto& ledger : cost.per_rank) {
    EXPECT_GT(ledger.msgs_sent + ledger.msgs_recv, 0u);
    EXPECT_GT(ledger.comm_seconds, 0.0);
  }
  // Total sent == total received (no message lost).
  std::uint64_t sent = 0, recv = 0;
  for (const auto& ledger : cost.per_rank) {
    sent += ledger.msgs_sent;
    recv += ledger.msgs_recv;
  }
  EXPECT_EQ(sent, recv);
}

TEST(Vmpi, CostParamsScaleModeledComm) {
  vmpi::CostParams slow;
  slow.alpha = 1e-3;  // very high latency
  vmpi::CostParams fast;
  fast.alpha = 1e-9;
  auto run_with = [&](const vmpi::CostParams& cp) {
    Runtime rt(2, cp);
    auto cost = rt.run([&](Comm& c) {
      if (c.rank() == 0) {
        for (int i = 0; i < 10; ++i) c.send_value(1, 1, i);
      } else {
        for (int i = 0; i < 10; ++i) (void)c.recv_value<int>(0, 1);
      }
    });
    return cost.per_rank[0].comm_seconds;
  };
  EXPECT_GT(run_with(slow), run_with(fast) * 100);
}

TEST(Vmpi, EmptyMessages) {
  Runtime rt(2);
  rt.run([&](Comm& c) {
    if (c.rank() == 0) {
      c.send(1, 3, nullptr, 0);
    } else {
      vmpi::Status st;
      const auto bytes = c.recv(0, 3, &st);
      EXPECT_TRUE(bytes.empty());
      EXPECT_EQ(st.bytes, 0u);
    }
  });
}

TEST(Vmpi, TagSelectiveReceiveOutOfOrder) {
  // Receive by specific tag even when another tag arrived first.
  Runtime rt(2);
  rt.run([&](Comm& c) {
    if (c.rank() == 0) {
      c.send_value(1, /*tag=*/5, 55);
      c.send_value(1, /*tag=*/6, 66);
    } else {
      EXPECT_EQ(c.recv_value<int>(0, 6), 66);  // skip over tag-5 message
      EXPECT_EQ(c.recv_value<int>(0, 5), 55);
    }
  });
}

TEST(Vmpi, CollectivesAbortInsteadOfDeadlockWhenRankDies) {
  // One rank throws partway through a sequence of collectives. Every
  // surviving rank must come out of its blocked collective with AbortError —
  // not hang on a message that will never arrive. A watchdog bounds the
  // whole run so a regression fails instead of deadlocking the suite.
  struct Case {
    const char* name;
    void (*op)(Comm&);
  };
  const Case cases[] = {
      {"barrier", [](Comm& c) { c.barrier(); }},
      {"staged_alltoallv",
       [](Comm& c) {
         std::vector<std::vector<std::uint32_t>> out(c.size());
         for (int d = 0; d < c.size(); ++d) out[d].assign(4, 7);
         (void)c.staged_alltoallv(out);
       }},
  };
  for (const auto& cs : cases) {
    SCOPED_TRACE(cs.name);
    Runtime rt(4);
    std::atomic<int> aborted_survivors{0};
    auto fut = std::async(std::launch::async, [&] {
      return rt.run([&](Comm& c) {
        try {
          cs.op(c);  // round 1: everyone participates
          if (c.rank() == 2) throw std::runtime_error("rank 2 dies");
          for (int i = 0; i < 8; ++i) cs.op(c);  // rank 2 never joins
        } catch (const vmpi::AbortError&) {
          ++aborted_survivors;  // rank 2's own exception is not an abort
          throw;
        }
      });
    });
    ASSERT_EQ(fut.wait_for(std::chrono::seconds(30)),
              std::future_status::ready)
        << "collective deadlocked after a rank died";
    EXPECT_THROW(fut.get(), std::runtime_error);
    EXPECT_EQ(aborted_survivors.load(), 3);
  }
}

TEST(Vmpi, StagedAlltoallvEmptyBlocks) {
  Runtime rt(5);
  rt.run([&](Comm& c) {
    // Only send to rank 0; everything else empty.
    std::vector<std::vector<std::uint8_t>> out;
    out.emplace_back(17, static_cast<std::uint8_t>(c.rank()));
    out.resize(c.size());
    const auto in = c.staged_alltoallv(out);
    ASSERT_EQ(in.size(), static_cast<std::size_t>(c.size()));
    for (std::size_t s = 0; s < in.size(); ++s) {
      if (c.rank() == 0) {
        EXPECT_EQ(in[s].size(), 17u);
      } else if (s != static_cast<std::size_t>(c.rank())) {
        EXPECT_TRUE(in[s].empty());
      }
    }
  });
}

}  // namespace
}  // namespace pgasm
