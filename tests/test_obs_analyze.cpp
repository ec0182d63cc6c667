// Causal trace analysis (obs/analyze.hpp): edge stitching under reordered
// delivery and drops, blocked-time ledgers, critical-path extraction on
// hand-built traces with known answers, and an end-to-end vmpi run whose
// trace must stitch completely.
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/analyze.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "vmpi/runtime.hpp"

using namespace pgasm;
using obs::Analysis;
using obs::CriticalStep;
using obs::TraceEvent;

namespace {

// Hand-built traces talk the exact event dialect the vmpi runtime records:
// cat "vmpi", send/ssend instants with (peer, bytes, mseq), wait spans named
// recv/probe/barrier/ssend_wait/join. Phases are stamped explicitly since
// these events never pass through RankRing::record.

TraceEvent send_ev(int rank, int peer, std::uint64_t mseq, std::uint64_t ts,
                   std::uint64_t bytes = 16, const char* phase = "cluster") {
  TraceEvent ev;
  ev.name = "send";
  ev.cat = "vmpi";
  ev.kind = TraceEvent::Kind::kInstant;
  ev.rank = rank;
  ev.ts_us = ts;
  ev.arg0_name = "peer";
  ev.arg0 = static_cast<std::uint64_t>(peer);
  ev.arg1_name = "bytes";
  ev.arg1 = bytes;
  ev.arg2_name = "mseq";
  ev.arg2 = mseq;
  ev.phase = phase;
  return ev;
}

TraceEvent wait_ev(int rank, const char* name, std::uint64_t ts,
                   std::uint64_t end, const char* phase = "cluster") {
  TraceEvent ev;
  ev.name = name;
  ev.cat = "vmpi";
  ev.kind = TraceEvent::Kind::kSpan;
  ev.rank = rank;
  ev.ts_us = ts;
  ev.dur_us = end - ts;
  ev.phase = phase;
  return ev;
}

TraceEvent recv_ev(int rank, int peer, std::uint64_t mseq, std::uint64_t ts,
                   std::uint64_t end, const char* phase = "cluster") {
  TraceEvent ev = wait_ev(rank, "recv", ts, end, phase);
  ev.arg0_name = "peer";
  ev.arg0 = static_cast<std::uint64_t>(peer);
  ev.arg1_name = "bytes";
  ev.arg1 = 16;
  ev.arg2_name = "mseq";
  ev.arg2 = mseq;
  return ev;
}

TraceEvent compute_ev(int rank, const char* name, std::uint64_t ts,
                      std::uint64_t end, const char* phase = "cluster") {
  TraceEvent ev;
  ev.name = name;
  ev.cat = "cluster";
  ev.kind = TraceEvent::Kind::kSpan;
  ev.rank = rank;
  ev.ts_us = ts;
  ev.dur_us = end - ts;
  ev.phase = phase;
  return ev;
}

}  // namespace

// ---------------------------------------------------------------- stitch --

TEST(Analyze, ReorderedDeliveryStitchesBothEdges) {
  // Rank 0 sends mseq 1 then 2; rank 1 consumes them in the opposite order
  // (tag-selective recv). Matching is keyed, not positional, so both edges
  // must stitch.
  std::map<int, std::vector<TraceEvent>> by_rank;
  by_rank[0] = {send_ev(0, 1, 1, 10), send_ev(0, 1, 2, 20)};
  by_rank[1] = {recv_ev(1, 0, 2, 0, 40), recv_ev(1, 0, 1, 40, 60)};

  const Analysis a = obs::analyze(by_rank);
  EXPECT_EQ(a.sends_total, 2u);
  EXPECT_EQ(a.sends_matched, 2u);
  EXPECT_DOUBLE_EQ(a.stitch_coverage, 1.0);
  EXPECT_FALSE(a.coverage_lower_bound);
  EXPECT_TRUE(a.unmatched_sends.empty());
  EXPECT_TRUE(a.unmatched_recvs.empty());
  EXPECT_TRUE(a.warnings.empty());

  ASSERT_EQ(a.edges.size(), 2u);
  for (const auto& e : a.edges) {
    EXPECT_EQ(e.src_rank, 0);
    EXPECT_EQ(e.dst_rank, 1);
    if (e.mseq == 1) {
      EXPECT_EQ(e.send_ts_us, 10u);
      EXPECT_EQ(e.recv_end_us, 60u);
    } else {
      EXPECT_EQ(e.mseq, 2u);
      EXPECT_EQ(e.send_ts_us, 20u);
      EXPECT_EQ(e.recv_end_us, 40u);
    }
  }
}

TEST(Analyze, SamePhaseKeysDoNotCollideAcrossPhases) {
  // mseq restarts from 1 in every pipeline phase (fresh Comms); the stitch
  // key includes the phase so the two mseq=1 messages stay distinct.
  std::map<int, std::vector<TraceEvent>> by_rank;
  by_rank[0] = {send_ev(0, 1, 1, 10, 16, "cluster"),
                send_ev(0, 1, 1, 500, 16, "assembly")};
  by_rank[1] = {recv_ev(1, 0, 1, 0, 30, "cluster"),
                recv_ev(1, 0, 1, 490, 530, "assembly")};

  const Analysis a = obs::analyze(by_rank);
  EXPECT_EQ(a.sends_matched, 2u);
  ASSERT_EQ(a.edges.size(), 2u);
  EXPECT_DOUBLE_EQ(a.stitch_coverage, 1.0);
}

TEST(Analyze, UnmatchedEdgesReportedUnderDrops) {
  // One of two sends never reaches a recv (injected drop); one recv has no
  // send event (sender's ring overflowed). Both remainders must be listed,
  // loudly.
  std::map<int, std::vector<TraceEvent>> by_rank;
  by_rank[0] = {send_ev(0, 1, 1, 10), send_ev(0, 1, 2, 20)};
  by_rank[1] = {recv_ev(1, 0, 1, 0, 40), recv_ev(1, 2, 9, 40, 80)};

  const Analysis a = obs::analyze(by_rank);
  EXPECT_EQ(a.sends_total, 2u);
  EXPECT_EQ(a.sends_matched, 1u);
  EXPECT_DOUBLE_EQ(a.stitch_coverage, 0.5);
  ASSERT_EQ(a.unmatched_sends.size(), 1u);
  EXPECT_EQ(a.unmatched_sends[0].mseq, 2u);
  EXPECT_EQ(a.unmatched_sends[0].dst_rank, 1);
  ASSERT_EQ(a.unmatched_recvs.size(), 1u);
  EXPECT_EQ(a.unmatched_recvs[0].src_rank, 2);
  EXPECT_EQ(a.unmatched_recvs[0].mseq, 9u);
  EXPECT_FALSE(a.warnings.empty());

  const std::string json = a.to_json();
  EXPECT_NE(json.find("\"unmatched_sends\""), std::string::npos);
  EXPECT_NE(json.find("\"coverage\":0.5"), std::string::npos);
}

TEST(Analyze, DroppedEventsMakeCoverageALowerBound) {
  std::map<int, std::vector<TraceEvent>> by_rank;
  by_rank[0] = {send_ev(0, 1, 1, 10)};
  by_rank[1] = {recv_ev(1, 0, 1, 0, 40)};

  const Analysis a = obs::analyze(by_rank, {{1, 5}});
  EXPECT_TRUE(a.coverage_lower_bound);
  EXPECT_EQ(a.dropped_events, 5u);
  ASSERT_FALSE(a.warnings.empty());
  bool mentions_bound = false;
  for (const auto& w : a.warnings) {
    if (w.find("LOWER BOUNDS") != std::string::npos) mentions_bound = true;
  }
  EXPECT_TRUE(mentions_bound);
  EXPECT_NE(a.to_text().find("!!"), std::string::npos);
  EXPECT_NE(a.to_json().find("\"coverage_is_lower_bound\":true"),
            std::string::npos);
}

// --------------------------------------------------------------- ledgers --

TEST(Analyze, LedgerSplitsSumToWall) {
  // One rank, one phase: compute [0,100], recv wait [100,150], barrier
  // [150,180], ssend rendezvous [180,200], probe [200,220]. Wall is 220;
  // every bucket is disjoint so the split must sum exactly.
  std::map<int, std::vector<TraceEvent>> by_rank;
  by_rank[0] = {compute_ev(0, "align_batch", 0, 100),
                recv_ev(0, 1, 1, 100, 150),
                wait_ev(0, "barrier", 150, 180),
                wait_ev(0, "ssend_wait", 180, 200),
                wait_ev(0, "probe", 200, 220)};

  const Analysis a = obs::analyze(by_rank);
  ASSERT_EQ(a.ledgers.size(), 1u);
  const obs::PhaseLedger& l = a.ledgers[0];
  EXPECT_EQ(l.rank, 0);
  EXPECT_EQ(l.phase, "cluster");
  EXPECT_EQ(l.wall_us, 220u);
  EXPECT_EQ(l.recv_wait_us, 50u);
  EXPECT_EQ(l.barrier_wait_us, 30u);
  EXPECT_EQ(l.comm_us, 20u);
  EXPECT_EQ(l.probe_wait_us, 20u);
  EXPECT_EQ(l.join_wait_us, 0u);
  EXPECT_EQ(l.compute_us, 100u);
  EXPECT_EQ(l.compute_us + l.wait_us() + l.comm_us, l.wall_us);
}

TEST(Analyze, LedgersSeparatePhasesAndRanks) {
  std::map<int, std::vector<TraceEvent>> by_rank;
  by_rank[0] = {compute_ev(0, "a", 0, 10, "cluster"),
                compute_ev(0, "b", 100, 130, "assembly")};
  by_rank[1] = {compute_ev(1, "c", 0, 40, "cluster")};

  const Analysis a = obs::analyze(by_rank);
  ASSERT_EQ(a.ledgers.size(), 3u);
  std::map<std::pair<std::string, int>, std::uint64_t> wall;
  for (const auto& l : a.ledgers) wall[{l.phase, l.rank}] = l.wall_us;
  EXPECT_EQ((wall[{"cluster", 0}]), 10u);
  EXPECT_EQ((wall[{"assembly", 0}]), 30u);
  EXPECT_EQ((wall[{"cluster", 1}]), 40u);
}

// --------------------------------------------------------- critical path --

TEST(Analyze, CriticalPathThreeRankPipelineKnownAnswer) {
  // A 3-rank relay with a known answer. Rank 0 computes "gen" for 100us and
  // sends; rank 1 was already waiting, receives at 120, computes "align"
  // until 200, sends; rank 2 receives at 230 and computes "assemble" until
  // 300. The path must walk the full relay: gen -> in-flight recv tail ->
  // align -> recv tail -> assemble, exactly 300us end to end.
  std::map<int, std::vector<TraceEvent>> by_rank;
  by_rank[0] = {compute_ev(0, "gen", 0, 100), send_ev(0, 1, 1, 100)};
  by_rank[1] = {recv_ev(1, 0, 1, 0, 120), compute_ev(1, "align", 120, 200),
                send_ev(1, 2, 1, 200)};
  by_rank[2] = {recv_ev(2, 1, 1, 0, 230), compute_ev(2, "assemble", 230, 300)};

  const Analysis a = obs::analyze(by_rank);
  const obs::CriticalPath& cp = a.critical_path;
  EXPECT_EQ(cp.total_us, 300u);
  ASSERT_EQ(cp.steps.size(), 5u);

  // Forward time order, contiguous, alternating compute and message waits.
  const CriticalStep::Kind kC = CriticalStep::Kind::kCompute;
  const CriticalStep::Kind kR = CriticalStep::Kind::kRecvWait;
  const CriticalStep::Kind want_kind[] = {kC, kR, kC, kR, kC};
  const char* want_name[] = {"gen", "recv", "align", "recv", "assemble"};
  const int want_rank[] = {0, 1, 1, 2, 2};
  std::uint64_t cursor = 0;
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(cp.steps[i].kind, want_kind[i]) << "step " << i;
    EXPECT_EQ(cp.steps[i].name, want_name[i]) << "step " << i;
    EXPECT_EQ(cp.steps[i].rank, want_rank[i]) << "step " << i;
    EXPECT_EQ(cp.steps[i].start_us, cursor) << "step " << i;
    cursor = cp.steps[i].end_us;
  }
  EXPECT_EQ(cursor, 300u);

  // Composition: the biggest contributor is rank 0's 100us of "gen".
  ASSERT_FALSE(cp.top.empty());
  std::uint64_t summed = 0;
  for (const auto& c : cp.top) summed += c.us;
  EXPECT_EQ(summed, cp.total_us);
}

TEST(Analyze, CriticalPathBarrierJumpsToLatecomer) {
  // Rank 0 reaches the barrier at 10 and waits until 100; rank 1 computes
  // until 95 and breezes through. The path must charge the wait to rank 1's
  // compute, not rank 0's idling.
  std::map<int, std::vector<TraceEvent>> by_rank;
  by_rank[0] = {wait_ev(0, "barrier", 10, 100)};
  by_rank[1] = {compute_ev(1, "slowpoke", 0, 95),
                wait_ev(1, "barrier", 95, 100)};

  const Analysis a = obs::analyze(by_rank);
  std::uint64_t slowpoke_us = 0;
  for (const auto& s : a.critical_path.steps) {
    if (s.kind == CriticalStep::Kind::kCompute && s.name == "slowpoke") {
      slowpoke_us += s.dur_us();
    }
  }
  EXPECT_GE(slowpoke_us, 90u);
}

TEST(Analyze, CriticalPathComputeSplitsAtSpanEdges) {
  // Rank 2's GST build as one 88 ms compute step with no wait inside: five
  // spans back to back except for a 9 ms gap between redistribute and
  // fetch_round, which holds the step's midpoint. Each span must appear
  // under its own name with its own duration, and only the gap reads
  // "(untracked)".
  std::map<int, std::vector<TraceEvent>> by_rank;
  by_rank[2] = {compute_ev(2, "enumerate_suffixes", 0, 12'000, "gst"),
                compute_ev(2, "bucket_histogram", 12'000, 20'000, "gst"),
                compute_ev(2, "redistribute", 20'000, 39'500, "gst"),
                compute_ev(2, "fetch_round", 48'500, 61'000, "gst"),
                compute_ev(2, "build_subtrees", 61'000, 88'000, "gst")};

  const Analysis a = obs::analyze(by_rank);
  const obs::CriticalPath& cp = a.critical_path;
  EXPECT_EQ(cp.total_us, 88'000u);
  const char* want_name[] = {"enumerate_suffixes", "bucket_histogram",
                             "redistribute",       "(untracked)",
                             "fetch_round",        "build_subtrees"};
  const std::uint64_t want_us[] = {12'000, 8'000,  19'500,
                                   9'000,  12'500, 27'000};
  ASSERT_EQ(cp.steps.size(), 6u);
  std::uint64_t cursor = 0;
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(cp.steps[i].kind, CriticalStep::Kind::kCompute) << "step " << i;
    EXPECT_EQ(cp.steps[i].rank, 2) << "step " << i;
    EXPECT_EQ(cp.steps[i].name, want_name[i]) << "step " << i;
    EXPECT_EQ(cp.steps[i].dur_us(), want_us[i]) << "step " << i;
    EXPECT_EQ(cp.steps[i].start_us, cursor) << "step " << i;
    cursor = cp.steps[i].end_us;
  }
  // No span covers the gap; it takes the phase of redistribute, the rank's
  // latest event starting at or before it.
  EXPECT_EQ(cp.steps[3].phase, "gst");
  EXPECT_EQ(cp.steps[4].phase, "gst");
}

TEST(Analyze, CriticalPathGapTakesTheRanksOwnPhase) {
  // Rank 0's path begins with a gap (its first event is an instant), and
  // its phase changes from gst to assembly inside the compute step after a
  // gst wait. Each uncovered piece reads the phase of the rank's latest
  // event starting at or before it, never "" and never the wait's phase
  // across the change.
  TraceEvent begin = compute_ev(0, "mark", 0, 0, "gst");
  begin.kind = TraceEvent::Kind::kInstant;
  TraceEvent change = compute_ev(0, "mark", 38, 38, "assembly");
  change.kind = TraceEvent::Kind::kInstant;
  TraceEvent last = compute_ev(0, "mark", 70, 70, "assembly");
  last.kind = TraceEvent::Kind::kInstant;
  std::map<int, std::vector<TraceEvent>> by_rank;
  by_rank[0] = {begin,
                compute_ev(0, "enumerate_suffixes", 5, 20, "gst"),
                wait_ev(0, "recv", 20, 30, "gst"),
                change,
                compute_ev(0, "assemble_cluster", 40, 60, "assembly"),
                last};

  const Analysis a = obs::analyze(by_rank);
  const auto& steps = a.critical_path.steps;
  EXPECT_EQ(a.critical_path.total_us, 70u);
  const char* want_name[] = {"(untracked)", "enumerate_suffixes", "recv",
                             "(untracked)", "assemble_cluster",
                             "(untracked)"};
  const char* want_phase[] = {"gst", "gst", "gst",
                              "gst", "assembly", "assembly"};
  const std::uint64_t want_start[] = {0, 5, 20, 30, 40, 60};
  ASSERT_EQ(steps.size(), 6u);
  for (std::size_t i = 0; i < steps.size(); ++i) {
    EXPECT_EQ(steps[i].name, want_name[i]) << "step " << i;
    EXPECT_EQ(steps[i].phase, want_phase[i]) << "step " << i;
    EXPECT_EQ(steps[i].start_us, want_start[i]) << "step " << i;
  }
}

TEST(Analyze, CriticalPathComputeNamesInnermostSpan) {
  // An outer span with a nested one: the nested stretch takes the inner
  // name, the rest of the outer span merges back into one piece per side.
  std::map<int, std::vector<TraceEvent>> by_rank;
  by_rank[0] = {compute_ev(0, "outer", 0, 100), compute_ev(0, "inner", 40, 60)};
  const Analysis a = obs::analyze(by_rank);
  const auto& steps = a.critical_path.steps;
  ASSERT_EQ(steps.size(), 3u);
  EXPECT_EQ(steps[0].name, "outer");
  EXPECT_EQ(steps[0].dur_us(), 40u);
  EXPECT_EQ(steps[1].name, "inner");
  EXPECT_EQ(steps[1].dur_us(), 20u);
  EXPECT_EQ(steps[2].name, "outer");
  EXPECT_EQ(steps[2].dur_us(), 40u);
  EXPECT_EQ(a.critical_path.total_us, 100u);
}

TEST(Analyze, CriticalPathCrossesTheDriverBetweenRuns) {
  // Two vmpi runs, as a parallel pipeline makes them: the driver joins the
  // clustering runtime [5, 60], partitions the clusters [61, 71] and joins
  // the assembly runtime [75, 128]. Each rank's first event in a run is
  // its run_start marker. Walking back from rank 1's assemble_cluster, the
  // path must reach the marker at 80, continue on the driver through
  // partition and the first join, and end in rank 1's GST build: no piece
  // reads "(untracked)".
  const auto start_ev = [](int rank, std::uint64_t ts, const char* phase) {
    TraceEvent ev = wait_ev(rank, "run_start", ts, ts, phase);
    ev.kind = TraceEvent::Kind::kInstant;
    return ev;
  };
  const int drv = obs::kDriverTid;
  std::map<int, std::vector<TraceEvent>> by_rank;
  by_rank[drv] = {compute_ev(drv, "cluster", 0, 61),
                  wait_ev(drv, "join", 5, 60),
                  compute_ev(drv, "partition", 61, 71),
                  compute_ev(drv, "assembly", 71, 130, "assembly"),
                  wait_ev(drv, "join", 75, 128, "assembly")};
  by_rank[1] = {start_ev(1, 6, "cluster"),
                compute_ev(1, "build_subtrees", 6, 58),
                start_ev(1, 80, "assembly"),
                compute_ev(1, "assemble_cluster", 80, 125, "assembly")};
  by_rank[2] = {start_ev(2, 7, "cluster"),
                compute_ev(2, "build_subtrees", 7, 40),
                start_ev(2, 78, "assembly"),
                compute_ev(2, "assemble_cluster", 78, 90, "assembly")};

  const Analysis a = obs::analyze(by_rank);
  const obs::CriticalPath& cp = a.critical_path;
  EXPECT_EQ(cp.total_us, 130u);
  const CriticalStep::Kind kC = CriticalStep::Kind::kCompute;
  const CriticalStep::Kind kJ = CriticalStep::Kind::kJoinWait;
  const CriticalStep::Kind want_kind[] = {kC, kC, kJ, kC, kC, kC, kC, kJ, kC};
  const char* want_name[] = {"cluster",   "build_subtrees", "join",
                             "cluster",   "partition",      "assembly",
                             "assemble_cluster", "join",    "assembly"};
  const int want_rank[] = {drv, 1, drv, drv, drv, drv, 1, drv, drv};
  const std::uint64_t want_start[] = {0, 6, 58, 60, 61, 71, 80, 125, 128};
  ASSERT_EQ(cp.steps.size(), 9u);
  for (std::size_t i = 0; i < cp.steps.size(); ++i) {
    EXPECT_EQ(cp.steps[i].kind, want_kind[i]) << "step " << i;
    EXPECT_EQ(cp.steps[i].name, want_name[i]) << "step " << i;
    EXPECT_EQ(cp.steps[i].rank, want_rank[i]) << "step " << i;
    EXPECT_EQ(cp.steps[i].start_us, want_start[i]) << "step " << i;
  }
  for (const auto& c : cp.top) {
    EXPECT_EQ(c.label.find("(untracked)"), std::string::npos) << c.label;
  }
}

// ----------------------------------------------------------- flow events --

class AnalyzeTracerTest : public testing::Test {
 protected:
  void SetUp() override {
    obs::tracer().set_enabled(false);
    obs::tracer().clear();
    obs::tracer().set_capacity(obs::Tracer::kDefaultCapacity);
    obs::set_phase(nullptr);
  }
  void TearDown() override { SetUp(); }
};

TEST_F(AnalyzeTracerTest, ChromeJsonEmitsFlowArrows) {
  obs::tracer().set_enabled(true);
  obs::instant(0, "send", "vmpi", "peer", 1, "bytes", 8, "mseq", 3);
  obs::tracer().ring(1)->record(recv_ev(1, 0, 3, 0, 50, ""));

  const std::string json = obs::tracer().to_chrome_json();
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);  // flow start
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);  // flow finish
  EXPECT_NE(json.find("\"bp\":\"e\""), std::string::npos);  // bind to end
  // Both halves carry the same id: ((sender_rank + 2) << 40) | mseq.
  const std::string id =
      "\"id\":" + std::to_string((std::uint64_t{0 + 2} << 40) | 3u);
  const auto first = json.find(id);
  ASSERT_NE(first, std::string::npos);
  EXPECT_NE(json.find(id, first + 1), std::string::npos);
}

TEST_F(AnalyzeTracerTest, RingOverflowSurfacesAsDropCounts) {
  obs::tracer().set_capacity(4);
  obs::tracer().set_enabled(true);
  for (int i = 0; i < 10; ++i) obs::instant(2, "evt", "test");

  const auto dropped = obs::tracer().dropped_by_rank();
  ASSERT_EQ(dropped.count(2), 1u);
  EXPECT_EQ(dropped.at(2), 6u);

  const Analysis a = obs::analyze_current();
  EXPECT_TRUE(a.coverage_lower_bound);
  EXPECT_EQ(a.dropped_events, 6u);
}

// ------------------------------------------------------------ end to end --

TEST_F(AnalyzeTracerTest, VmpiRunStitchesEveryUserSend) {
  obs::tracer().set_enabled(true);
  obs::set_phase("cluster");
  const int p = 4;
  vmpi::Runtime rt(p);
  rt.run([&](vmpi::Comm& c) {
    // Rank 0 fans a value out; everyone answers; a barrier closes the round.
    if (c.rank() == 0) {
      for (int r = 1; r < p; ++r) c.send_value<std::uint64_t>(r, 7, 100 + r);
      for (int r = 1; r < p; ++r) c.recv_value<std::uint64_t>(r, 8);
    } else {
      const auto v = c.recv_value<std::uint64_t>(0, 7);
      c.send_value<std::uint64_t>(0, 8, v + 1);
    }
    c.barrier();
  });
  obs::set_phase("");

  const Analysis a = obs::analyze_current();
  EXPECT_EQ(a.sends_total, 2u * (p - 1));
  EXPECT_EQ(a.sends_matched, a.sends_total);
  EXPECT_DOUBLE_EQ(a.stitch_coverage, 1.0);
  EXPECT_FALSE(a.coverage_lower_bound);
  EXPECT_TRUE(a.unmatched_sends.empty());

  // Every rank shows up in the cluster-phase ledger, and the split sums.
  int cluster_ledgers = 0;
  for (const auto& l : a.ledgers) {
    if (l.phase != "cluster") continue;
    ++cluster_ledgers;
    EXPECT_EQ(l.compute_us + l.wait_us() + l.comm_us, l.wall_us)
        << "rank " << l.rank;
  }
  EXPECT_GE(cluster_ledgers, p);

  // The critical path reaches back to (or near) the run's start.
  EXPECT_GT(a.critical_path.total_us, 0u);
  ASSERT_FALSE(a.critical_path.steps.empty());
  EXPECT_FALSE(a.critical_path.top.empty());

  const std::string text = a.to_text();
  EXPECT_NE(text.find("stitch"), std::string::npos);
  const std::string json = a.to_json();
  EXPECT_NE(json.find("\"coverage\":1"), std::string::npos);
}
