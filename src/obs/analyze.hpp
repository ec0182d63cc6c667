// Post-run causal trace analysis: turns a drained Tracer event stream into
// an explanation of where distributed wall-clock went.
//
// Three products, all computed from the same event stream:
//
//  1. Stitched message edges. Every vmpi user-channel send/ssend instant
//     carries an "mseq" arg (the sender's 1-based user send index) and the
//     matching recv wait span records the same (peer, mseq) pair; the
//     analyzer joins them into cross-rank causal edges and reports the
//     unmatched remainder (injected drops, sends to dead ranks, or events
//     lost to ring overflow). Stitch coverage = matched sends / all sends;
//     when the tracer dropped events the coverage is only a lower bound and
//     the analysis says so loudly.
//
//  2. Blocked-time ledgers. Per (rank, phase): wall time is last event end
//     minus first event start; wait is the sum of recv/probe/barrier wait
//     spans; comm is the ssend rendezvous wait; compute is the remainder.
//     vmpi wait spans never nest in each other (each rank is one thread and
//     collective-internal traffic is uninstrumented), so the split sums to
//     wall time by construction.
//
//  3. The critical path: the backward chain of compute intervals, wait
//     tails, and message edges that bounds end-to-end wall-clock. From the
//     globally last event, walk backward; a recv wait whose matching send
//     happened mid-wait jumps to the sender (the sender was the bottleneck),
//     a barrier jumps to the last rank to arrive, an ssend rendezvous jumps
//     to the receiver, a driver join jumps to the last rank to finish, a
//     rank's "run_start" marker (its first event in a vmpi run) hands the
//     walk to the driver that spawned the run, and anything else continues
//     locally. Compute gaps are split at the edges of the non-wait spans
//     they overlap, and each piece is named by its innermost covering span
//     ("align_batch", "redistribute", ...; "(untracked)" where none covers
//     it), which is what makes the report actionable.
//
// The analyzer is a pure function of the drained events — it never touches
// the live tracer except through analyze_current(), so tests can feed it
// hand-built traces with known answers.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace pgasm::obs {

/// One stitched cross-rank message edge: send instant -> recv wait span.
struct MessageEdge {
  int src_rank = 0;
  int dst_rank = 0;
  std::uint64_t mseq = 0;     ///< sender's user-channel send index
  std::uint64_t send_ts_us = 0;
  std::uint64_t recv_start_us = 0;
  std::uint64_t recv_end_us = 0;  ///< delivery: when the receiver consumed it
  std::uint64_t bytes = 0;
  bool sync = false;  ///< sender used ssend
};

/// A send that no recv consumed (dropped message, dead destination, or the
/// receiver's event was lost to ring overflow).
struct UnmatchedSend {
  int src_rank = 0;
  int dst_rank = 0;
  std::uint64_t mseq = 0;
  std::uint64_t ts_us = 0;
  std::uint64_t bytes = 0;
  bool sync = false;
};

/// A recv whose matching send event is missing (sender's ring overflowed,
/// or a hand-built trace without the send side).
struct UnmatchedRecv {
  int dst_rank = 0;
  int src_rank = 0;
  std::uint64_t mseq = 0;
  std::uint64_t end_us = 0;
  std::uint64_t bytes = 0;
};

/// Blocked-time split for one (rank, phase). All in microseconds;
/// compute_us + wait_us() + comm_us == wall_us by construction (compute is
/// the remainder, clamped at zero).
struct PhaseLedger {
  int rank = 0;
  std::string phase;
  std::uint64_t wall_us = 0;
  std::uint64_t recv_wait_us = 0;
  std::uint64_t probe_wait_us = 0;
  std::uint64_t barrier_wait_us = 0;
  std::uint64_t join_wait_us = 0;  ///< driver waiting for rank threads
  std::uint64_t comm_us = 0;       ///< ssend rendezvous wait
  std::uint64_t compute_us = 0;

  std::uint64_t wait_us() const {
    return recv_wait_us + probe_wait_us + barrier_wait_us + join_wait_us;
  }
};

/// One link of the critical path, in forward time order.
struct CriticalStep {
  enum class Kind : std::uint8_t {
    kCompute,      ///< rank was (presumed) computing; name = covering span
    kRecvWait,     ///< tail of a recv wait (message in flight / matching)
    kProbeWait,
    kBarrierWait,  ///< waiting for the latecomer
    kSsendWait,    ///< rendezvous: waiting for the receiver to arrive
    kJoinWait,     ///< driver waiting for the slowest rank thread
  };
  Kind kind = Kind::kCompute;
  int rank = 0;
  std::string name;   ///< span name ("align_batch", "recv", "barrier", ...)
  std::string phase;
  std::uint64_t start_us = 0;
  std::uint64_t end_us = 0;

  std::uint64_t dur_us() const {
    return end_us > start_us ? end_us - start_us : 0;
  }
};

/// Aggregated critical-path composition entry (steps summed by
/// rank/kind/name, sorted by share of the path).
struct CriticalContribution {
  std::string label;  ///< e.g. "rank 3 compute align_batch"
  std::uint64_t us = 0;
  double frac = 0;    ///< of the whole path
};

struct CriticalPath {
  std::vector<CriticalStep> steps;  ///< forward time order, contiguous
  std::uint64_t total_us = 0;
  std::vector<CriticalContribution> top;  ///< largest contributors first
};

/// Full analysis result. to_text() renders the summary.txt "attribution"
/// section; to_json() renders attribution.json.
struct Analysis {
  // Edge stitching.
  std::vector<MessageEdge> edges;
  std::vector<UnmatchedSend> unmatched_sends;
  std::vector<UnmatchedRecv> unmatched_recvs;
  std::uint64_t sends_total = 0;
  std::uint64_t sends_matched = 0;
  double stitch_coverage = 1.0;  ///< matched / total (1.0 when no sends)
  /// True when the tracer dropped events: coverage is then only a lower
  /// bound and every count may under-report.
  bool coverage_lower_bound = false;
  std::uint64_t dropped_events = 0;
  std::map<int, std::uint64_t> dropped_by_rank;

  std::vector<PhaseLedger> ledgers;  ///< ordered by (phase, rank)
  CriticalPath critical_path;
  std::vector<std::string> warnings;

  std::string to_text() const;
  std::string to_json() const;
};

/// Analyze a drained trace (rank -> events oldest-first, as produced by
/// Tracer::drain_all). dropped_by_rank marks ring overflow (from
/// Tracer::dropped_by_rank); pass empty when the trace is known complete.
Analysis analyze(const std::map<int, std::vector<TraceEvent>>& by_rank,
                 const std::map<int, std::uint64_t>& dropped_by_rank = {});

/// Analyze the process-global tracer's current contents.
Analysis analyze_current();

}  // namespace pgasm::obs
