#include "obs/analyze.hpp"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <optional>
#include <tuple>
#include <utility>

#include "obs/metrics.hpp"
#include "util/stats.hpp"

namespace pgasm::obs {

namespace {

// Walk bound: each iteration consumes one wait span, so this only triggers
// on a malformed (e.g. hand-built, overlapping-wait) trace.
constexpr std::size_t kMaxWalkSteps = 1u << 20;

// attribution.json stays bounded no matter how chatty the run was.
constexpr std::size_t kMaxJsonUnmatched = 50;
constexpr std::size_t kMaxJsonSteps = 500;

bool find_arg(const TraceEvent& ev, const char* name, std::uint64_t* out) {
  const std::pair<const char*, std::uint64_t> slots[3] = {
      {ev.arg0_name, ev.arg0},
      {ev.arg1_name, ev.arg1},
      {ev.arg2_name, ev.arg2}};
  for (const auto& [n, v] : slots) {
    if (n != nullptr && std::strcmp(n, name) == 0) {
      *out = v;
      return true;
    }
  }
  return false;
}

std::string event_phase(const TraceEvent& ev) {
  return ev.phase != nullptr ? std::string(ev.phase) : std::string();
}

bool is_vmpi(const TraceEvent& ev) {
  return ev.cat != nullptr && std::strcmp(ev.cat, "vmpi") == 0;
}

/// vmpi wait-span kinds, by event name (cat "vmpi" spans only).
std::optional<CriticalStep::Kind> wait_kind(const TraceEvent& ev) {
  if (ev.kind != TraceEvent::Kind::kSpan || !is_vmpi(ev)) return std::nullopt;
  if (std::strcmp(ev.name, "recv") == 0) return CriticalStep::Kind::kRecvWait;
  if (std::strcmp(ev.name, "probe") == 0) return CriticalStep::Kind::kProbeWait;
  if (std::strcmp(ev.name, "barrier") == 0)
    return CriticalStep::Kind::kBarrierWait;
  if (std::strcmp(ev.name, "ssend_wait") == 0)
    return CriticalStep::Kind::kSsendWait;
  if (std::strcmp(ev.name, "join") == 0) return CriticalStep::Kind::kJoinWait;
  return std::nullopt;
}

const char* kind_label(CriticalStep::Kind k) {
  switch (k) {
    case CriticalStep::Kind::kCompute:
      return "compute";
    case CriticalStep::Kind::kRecvWait:
      return "recv wait";
    case CriticalStep::Kind::kProbeWait:
      return "probe wait";
    case CriticalStep::Kind::kBarrierWait:
      return "barrier wait";
    case CriticalStep::Kind::kSsendWait:
      return "ssend wait";
    case CriticalStep::Kind::kJoinWait:
      return "join wait";
  }
  return "?";
}

const char* kind_json(CriticalStep::Kind k) {
  switch (k) {
    case CriticalStep::Kind::kCompute:
      return "compute";
    case CriticalStep::Kind::kRecvWait:
      return "recv_wait";
    case CriticalStep::Kind::kProbeWait:
      return "probe_wait";
    case CriticalStep::Kind::kBarrierWait:
      return "barrier_wait";
    case CriticalStep::Kind::kSsendWait:
      return "ssend_wait";
    case CriticalStep::Kind::kJoinWait:
      return "join_wait";
  }
  return "?";
}

std::string rank_label(int rank) {
  return rank == kDriverTid ? "driver" : "rank " + std::to_string(rank);
}

/// Messages are keyed (phase, sender, sender's user send index). The phase
/// matters: each vmpi run constructs fresh Comms, so mseq restarts from 1
/// in every pipeline phase.
using MsgKey = std::tuple<std::string, int, std::uint64_t>;

struct SendRec {
  int src = 0;
  int dst = 0;
  std::uint64_t mseq = 0;
  std::uint64_t ts = 0;
  std::uint64_t bytes = 0;
  bool sync = false;
  std::string phase;
  bool matched = false;
};

struct RecvRec {
  int dst = 0;
  int src = 0;
  std::uint64_t mseq = 0;
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  std::uint64_t bytes = 0;
  std::string phase;
  bool matched = false;
};

/// One wait span, flattened for the backward walk.
struct WaitRec {
  CriticalStep::Kind kind = CriticalStep::Kind::kRecvWait;
  const char* name = "";
  std::string phase;
  std::uint64_t ts = 0;
  std::uint64_t end = 0;
  bool has_mseq = false;
  std::uint64_t mseq = 0;
  int peer = -1;
  int barrier_k = -1;  ///< occurrence index within (rank, phase)
};

struct NonWaitSpan {
  const char* name = "";
  std::string phase;
  std::uint64_t ts = 0;
  std::uint64_t end = 0;
};

struct BarrierMember {
  int rank = 0;
  std::uint64_t ts = 0;
  std::uint64_t end = 0;
};

}  // namespace

Analysis analyze(const std::map<int, std::vector<TraceEvent>>& by_rank,
                 const std::map<int, std::uint64_t>& dropped_by_rank) {
  Analysis a;

  for (const auto& [rank, n] : dropped_by_rank) {
    if (n == 0) continue;
    a.dropped_by_rank[rank] = n;
    a.dropped_events += n;
  }

  // --- flatten the event stream ------------------------------------------
  std::vector<SendRec> sends;
  std::vector<RecvRec> recvs;
  std::map<int, std::vector<WaitRec>> waits;          // per rank, ts order
  std::map<int, std::vector<NonWaitSpan>> nonwaits;   // per rank, ts order
  std::map<int, std::vector<std::uint64_t>> end_times;  // per rank, sorted
  std::map<int, std::vector<std::uint64_t>> run_starts;  // per rank, sorted
  // Per rank, (start, phase) of every event, in start order.
  std::map<int, std::vector<std::pair<std::uint64_t, std::string>>>
      phase_marks;
  std::map<int, std::uint64_t> first_ts;
  std::map<std::pair<std::string, int>, int> barrier_counter;
  std::map<std::pair<std::string, int>, std::vector<BarrierMember>> barriers;

  for (const auto& [rank, events] : by_rank) {
    if (events.empty()) continue;
    auto& rank_waits = waits[rank];
    auto& rank_nonwaits = nonwaits[rank];
    auto& rank_ends = end_times[rank];
    auto& rank_starts = run_starts[rank];
    auto& rank_marks = phase_marks[rank];
    std::uint64_t lo = events.front().ts_us;
    for (const TraceEvent& ev : events) {
      lo = std::min(lo, ev.ts_us);
      rank_ends.push_back(ev.end_us());
      const std::string phase = event_phase(ev);
      rank_marks.emplace_back(ev.ts_us, phase);

      if (ev.kind == TraceEvent::Kind::kInstant && is_vmpi(ev) &&
          std::strcmp(ev.name, "run_start") == 0) {
        rank_starts.push_back(ev.ts_us);
        continue;
      }
      if (ev.kind == TraceEvent::Kind::kInstant && is_vmpi(ev) &&
          (std::strcmp(ev.name, "send") == 0 ||
           std::strcmp(ev.name, "ssend") == 0)) {
        std::uint64_t mseq = 0;
        std::uint64_t peer = 0;
        if (find_arg(ev, "mseq", &mseq) && find_arg(ev, "peer", &peer)) {
          SendRec s;
          s.src = rank;
          s.dst = static_cast<int>(peer);
          s.mseq = mseq;
          s.ts = ev.ts_us;
          find_arg(ev, "bytes", &s.bytes);
          s.sync = std::strcmp(ev.name, "ssend") == 0;
          s.phase = phase;
          sends.push_back(std::move(s));
        }
        continue;
      }

      const auto wk = wait_kind(ev);
      if (!wk.has_value()) {
        if (ev.kind == TraceEvent::Kind::kSpan) {
          rank_nonwaits.push_back(
              NonWaitSpan{ev.name, phase, ev.ts_us, ev.end_us()});
        }
        continue;
      }

      WaitRec w;
      w.kind = *wk;
      w.name = ev.name;
      w.phase = phase;
      w.ts = ev.ts_us;
      w.end = ev.end_us();
      std::uint64_t mseq = 0;
      std::uint64_t peer = 0;
      if (find_arg(ev, "mseq", &mseq) && find_arg(ev, "peer", &peer)) {
        w.has_mseq = true;
        w.mseq = mseq;
        w.peer = static_cast<int>(peer);
      }
      if (w.kind == CriticalStep::Kind::kBarrierWait) {
        w.barrier_k = barrier_counter[{phase, rank}]++;
        barriers[{phase, w.barrier_k}].push_back(
            BarrierMember{rank, w.ts, w.end});
      }
      if (w.kind == CriticalStep::Kind::kRecvWait && w.has_mseq) {
        RecvRec r;
        r.dst = rank;
        r.src = w.peer;
        r.mseq = w.mseq;
        r.start = w.ts;
        r.end = w.end;
        find_arg(ev, "bytes", &r.bytes);
        r.phase = phase;
        recvs.push_back(std::move(r));
      }
      rank_waits.push_back(std::move(w));
    }
    first_ts[rank] = lo;
    std::sort(rank_ends.begin(), rank_ends.end());
    std::sort(rank_starts.begin(), rank_starts.end());
    std::stable_sort(rank_marks.begin(), rank_marks.end(),
                     [](const auto& x, const auto& y) {
                       return x.first < y.first;
                     });
    std::sort(rank_waits.begin(), rank_waits.end(),
              [](const WaitRec& x, const WaitRec& y) { return x.ts < y.ts; });
    std::sort(rank_nonwaits.begin(), rank_nonwaits.end(),
              [](const NonWaitSpan& x, const NonWaitSpan& y) {
                return x.ts < y.ts;
              });
  }

  // --- stitch edges -------------------------------------------------------
  // Within one (phase, sender, mseq) key, pair sends and recvs greedily in
  // time order; duplicate keys only appear when a phase retried its vmpi
  // run, and time order is the right tiebreak there too.
  std::map<MsgKey, std::vector<std::size_t>> sends_by_key;
  {
    std::vector<std::size_t> order(sends.size());
    for (std::size_t i = 0; i < sends.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
      return sends[x].ts < sends[y].ts;
    });
    for (std::size_t i : order) {
      sends_by_key[{sends[i].phase, sends[i].src, sends[i].mseq}].push_back(i);
    }
  }
  std::sort(recvs.begin(), recvs.end(),
            [](const RecvRec& x, const RecvRec& y) { return x.end < y.end; });
  // (phase, src, mseq) -> matched edge, for the walk's ssend/probe jumps.
  std::map<MsgKey, std::size_t> edge_by_key;
  for (RecvRec& r : recvs) {
    auto it = sends_by_key.find({r.phase, r.src, r.mseq});
    if (it != sends_by_key.end()) {
      for (std::size_t si : it->second) {
        SendRec& s = sends[si];
        if (s.matched || s.ts > r.end) continue;
        s.matched = true;
        r.matched = true;
        MessageEdge e;
        e.src_rank = s.src;
        e.dst_rank = r.dst;
        e.mseq = s.mseq;
        e.send_ts_us = s.ts;
        e.recv_start_us = r.start;
        e.recv_end_us = r.end;
        e.bytes = r.bytes != 0 ? r.bytes : s.bytes;
        e.sync = s.sync;
        edge_by_key.emplace(MsgKey{r.phase, s.src, s.mseq}, a.edges.size());
        a.edges.push_back(e);
        break;
      }
    }
    if (!r.matched) {
      a.unmatched_recvs.push_back(
          UnmatchedRecv{r.dst, r.src, r.mseq, r.end, r.bytes});
    }
  }
  a.sends_total = sends.size();
  for (const SendRec& s : sends) {
    if (s.matched) {
      ++a.sends_matched;
    } else {
      a.unmatched_sends.push_back(
          UnmatchedSend{s.src, s.dst, s.mseq, s.ts, s.bytes, s.sync});
    }
  }
  std::sort(a.unmatched_sends.begin(), a.unmatched_sends.end(),
            [](const UnmatchedSend& x, const UnmatchedSend& y) {
              return x.ts_us < y.ts_us;
            });
  a.stitch_coverage =
      a.sends_total == 0
          ? 1.0
          : static_cast<double>(a.sends_matched) /
                static_cast<double>(a.sends_total);
  a.coverage_lower_bound = a.dropped_events > 0;

  if (a.dropped_events > 0) {
    std::string w = "trace incomplete: " + std::to_string(a.dropped_events) +
                    " event(s) dropped by ring overflow (";
    bool first = true;
    for (const auto& [rank, n] : a.dropped_by_rank) {
      if (!first) w += ", ";
      first = false;
      w += rank_label(rank) + ": " + std::to_string(n);
    }
    w += ") — stitch coverage and all counts are LOWER BOUNDS; raise the "
         "tracer capacity to recover a complete trace";
    a.warnings.push_back(std::move(w));
  }
  if (!a.unmatched_sends.empty()) {
    a.warnings.push_back(
        std::to_string(a.unmatched_sends.size()) +
        " send(s) were never received (dropped messages, sends to "
        "dead/finished ranks, or receiver events lost to ring overflow)");
  }
  if (!a.unmatched_recvs.empty()) {
    a.warnings.push_back(std::to_string(a.unmatched_recvs.size()) +
                         " recv(s) have no matching send event (sender ring "
                         "overflow?)");
  }

  // --- blocked-time ledgers ----------------------------------------------
  {
    struct Acc {
      std::uint64_t lo = ~std::uint64_t{0};
      std::uint64_t hi = 0;
      std::uint64_t recv = 0, probe = 0, barrier = 0, join = 0, comm = 0;
    };
    std::map<std::pair<std::string, int>, Acc> acc;
    for (const auto& [rank, events] : by_rank) {
      for (const TraceEvent& ev : events) {
        Acc& g = acc[{event_phase(ev), rank}];
        g.lo = std::min(g.lo, ev.ts_us);
        g.hi = std::max(g.hi, ev.end_us());
        const auto wk = wait_kind(ev);
        if (!wk.has_value()) continue;
        switch (*wk) {
          case CriticalStep::Kind::kRecvWait:
            g.recv += ev.dur_us;
            break;
          case CriticalStep::Kind::kProbeWait:
            g.probe += ev.dur_us;
            break;
          case CriticalStep::Kind::kBarrierWait:
            g.barrier += ev.dur_us;
            break;
          case CriticalStep::Kind::kJoinWait:
            g.join += ev.dur_us;
            break;
          case CriticalStep::Kind::kSsendWait:
            g.comm += ev.dur_us;
            break;
          case CriticalStep::Kind::kCompute:
            break;
        }
      }
    }
    for (const auto& [key, g] : acc) {
      PhaseLedger l;
      l.phase = key.first;
      l.rank = key.second;
      l.wall_us = g.hi > g.lo ? g.hi - g.lo : 0;
      l.recv_wait_us = g.recv;
      l.probe_wait_us = g.probe;
      l.barrier_wait_us = g.barrier;
      l.join_wait_us = g.join;
      l.comm_us = g.comm;
      const std::uint64_t waits_total = l.wait_us() + l.comm_us;
      l.compute_us = l.wall_us > waits_total ? l.wall_us - waits_total : 0;
      a.ledgers.push_back(std::move(l));
    }
  }

  // --- critical path ------------------------------------------------------
  // Backward walk from the globally last event. Wait spans on one rank are
  // non-overlapping (each rank is a single thread), so "the wait span
  // ending last at-or-before the cursor" is well defined; everything
  // between that wait and the cursor is compute. cap[] makes every
  // iteration consume a distinct wait span or run start, which bounds the
  // walk.
  int cur = 0;
  std::uint64_t t = 0;
  bool have_cursor = false;
  for (const auto& [rank, ends] : end_times) {
    if (ends.empty()) continue;
    if (!have_cursor || ends.back() > t) {
      have_cursor = true;
      cur = rank;
      t = ends.back();
    }
  }

  std::vector<CriticalStep> rsteps;  // backward order
  // A compute step [lo, hi) is split at the start and end of every non-wait
  // span of its rank that overlaps it; each piece is named after its
  // innermost covering span (latest start), an uncovered piece reads
  // "(untracked)" with the phase of the rank's latest event starting at or
  // before it, and adjacent pieces with the same name and phase merge.
  // Pieces are pushed latest first, as the walk builds the path backward.
  const auto phase_at = [&](int rank, std::uint64_t ts) {
    const auto& marks = phase_marks[rank];
    const auto it = std::upper_bound(
        marks.begin(), marks.end(), ts,
        [](std::uint64_t v, const auto& m) { return v < m.first; });
    return it == marks.begin() ? std::string() : std::prev(it)->second;
  };
  const auto push_compute = [&](int rank, std::uint64_t lo,
                                std::uint64_t hi) {
    if (hi <= lo) return;
    std::vector<const NonWaitSpan*> over;
    std::vector<std::uint64_t> cuts{lo, hi};
    if (auto it = nonwaits.find(rank); it != nonwaits.end()) {
      for (const NonWaitSpan& s : it->second) {
        if (s.ts >= hi) break;
        if (s.end <= lo) continue;
        over.push_back(&s);
        if (s.ts > lo) cuts.push_back(s.ts);
        if (s.end < hi) cuts.push_back(s.end);
      }
    }
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
    std::vector<CriticalStep> pieces;
    for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
      const NonWaitSpan* best = nullptr;
      for (const NonWaitSpan* s : over) {
        if (s->ts <= cuts[i] && s->end >= cuts[i + 1] &&
            (best == nullptr || s->ts >= best->ts)) {
          best = s;
        }
      }
      const std::string name = best != nullptr ? best->name : "(untracked)";
      const std::string phase =
          best != nullptr ? best->phase : phase_at(rank, cuts[i]);
      if (!pieces.empty() && pieces.back().name == name &&
          pieces.back().phase == phase) {
        pieces.back().end_us = cuts[i + 1];
        continue;
      }
      CriticalStep st;
      st.kind = CriticalStep::Kind::kCompute;
      st.rank = rank;
      st.name = name;
      st.phase = phase;
      st.start_us = cuts[i];
      st.end_us = cuts[i + 1];
      pieces.push_back(std::move(st));
    }
    rsteps.insert(rsteps.end(), std::make_move_iterator(pieces.rbegin()),
                  std::make_move_iterator(pieces.rend()));
  };

  if (have_cursor) {
    std::map<int, std::size_t> cap;  // exclusive bound into waits[rank]
    for (const auto& [rank, ws] : waits) cap[rank] = ws.size();
    std::map<int, std::size_t> start_cap;  // same, into run_starts[rank]
    for (const auto& [rank, ss] : run_starts) start_cap[rank] = ss.size();
    const bool have_driver = first_ts.count(kDriverTid) != 0;

    for (std::size_t iter = 0; iter < kMaxWalkSteps; ++iter) {
      const auto& ws = waits[cur];
      // Latest wait (below the per-rank cap) ending at or before t.
      std::size_t i = std::min(cap[cur], ws.size());
      bool found = false;
      while (i > 0) {
        --i;
        if (ws[i].end <= t) {
          found = true;
          break;
        }
      }
      // A run start between that wait (or the rank's first event) and t:
      // before it this rank's thread or process did not exist, and the
      // driver, which spawned the run, holds the path.
      if (cur != kDriverTid && have_driver) {
        const auto& ss = run_starts[cur];
        std::size_t j = std::min(start_cap[cur], ss.size());
        while (j > 0 && ss[j - 1] > t) --j;
        if (j > 0 && (!found || ss[j - 1] >= ws[i].end)) {
          start_cap[cur] = j - 1;
          push_compute(cur, ss[j - 1], t);
          cur = kDriverTid;
          t = ss[j - 1];
          continue;
        }
      }
      if (!found) {
        const std::uint64_t lo =
            first_ts.count(cur) != 0 ? std::min(first_ts[cur], t) : t;
        push_compute(cur, lo, t);
        break;
      }
      const WaitRec W = ws[i];
      cap[cur] = i;
      if (W.end < t) push_compute(cur, W.end, t);

      // Where did the thing this wait blocked on come from?
      std::optional<std::pair<int, std::uint64_t>> jump;
      switch (W.kind) {
        case CriticalStep::Kind::kRecvWait:
        case CriticalStep::Kind::kProbeWait: {
          if (!W.has_mseq) break;
          auto it = edge_by_key.find({W.phase, W.peer, W.mseq});
          if (it != edge_by_key.end()) {
            const MessageEdge& e = a.edges[it->second];
            jump = {e.src_rank, e.send_ts_us};
          }
          break;
        }
        case CriticalStep::Kind::kBarrierWait: {
          auto it = barriers.find({W.phase, W.barrier_k});
          if (it == barriers.end()) break;
          const BarrierMember* late = nullptr;
          for (const BarrierMember& m : it->second) {
            if (late == nullptr || m.ts > late->ts) late = &m;
          }
          if (late != nullptr && late->rank != cur) jump = {late->rank, late->ts};
          break;
        }
        case CriticalStep::Kind::kSsendWait: {
          if (!W.has_mseq) break;
          auto it = edge_by_key.find({W.phase, cur, W.mseq});
          if (it != edge_by_key.end()) {
            const MessageEdge& e = a.edges[it->second];
            // The rendezvous completed when the receiver reached its recv;
            // what the receiver did before that is the path's predecessor.
            jump = {e.dst_rank, e.recv_start_us};
          }
          break;
        }
        case CriticalStep::Kind::kJoinWait: {
          // The join released when the slowest rank thread finished: jump
          // to the rank whose last event inside the join window is latest.
          int best_rank = cur;
          std::uint64_t best_end = 0;
          for (const auto& [rank, ends] : end_times) {
            if (rank == cur || ends.empty()) continue;
            auto ub = std::upper_bound(ends.begin(), ends.end(), W.end);
            if (ub == ends.begin()) continue;
            const std::uint64_t e = *(ub - 1);
            if (e > best_end) {
              best_end = e;
              best_rank = rank;
            }
          }
          if (best_rank != cur && best_end > W.ts) jump = {best_rank, best_end};
          break;
        }
        case CriticalStep::Kind::kCompute:
          break;
      }

      CriticalStep st;
      st.kind = W.kind;
      st.rank = cur;
      st.name = W.name;
      st.phase = W.phase;
      st.end_us = W.end;
      if (jump.has_value() && jump->second > W.ts && jump->second <= W.end) {
        // Only the tail of the wait (after the unblocking event happened on
        // the peer) is on the critical path; before that, the peer was the
        // bottleneck. Hand the walk over.
        st.start_us = jump->second;
        if (st.end_us > st.start_us) rsteps.push_back(std::move(st));
        cur = jump->first;
        t = jump->second;
      } else {
        st.start_us = W.ts;
        if (st.end_us > st.start_us) rsteps.push_back(std::move(st));
        t = W.ts;
      }
    }
  }

  std::reverse(rsteps.begin(), rsteps.end());
  a.critical_path.steps = std::move(rsteps);
  for (const CriticalStep& st : a.critical_path.steps) {
    a.critical_path.total_us += st.dur_us();
  }

  // Composition: aggregate by (rank, kind, name), largest first.
  {
    std::map<std::string, std::uint64_t> by_label;
    for (const CriticalStep& st : a.critical_path.steps) {
      std::string label = rank_label(st.rank);
      label += ' ';
      label += kind_label(st.kind);
      if (st.kind == CriticalStep::Kind::kCompute) {
        label += ' ';
        label += st.name;
      }
      if (!st.phase.empty()) {
        label += " [";
        label += st.phase;
        label += ']';
      }
      by_label[label] += st.dur_us();
    }
    for (auto& [label, us] : by_label) {
      CriticalContribution c;
      c.label = label;
      c.us = us;
      c.frac = a.critical_path.total_us == 0
                   ? 0
                   : static_cast<double>(us) /
                         static_cast<double>(a.critical_path.total_us);
      a.critical_path.top.push_back(std::move(c));
    }
    std::sort(a.critical_path.top.begin(), a.critical_path.top.end(),
              [](const CriticalContribution& x, const CriticalContribution& y) {
                return x.us > y.us;
              });
  }

  return a;
}

Analysis analyze_current() {
  return analyze(tracer().drain_all(), tracer().dropped_by_rank());
}

std::string Analysis::to_text() const {
  std::string out;
  for (const std::string& w : warnings) {
    out += "!! ";
    out += w;
    out += '\n';
  }
  out += "stitch coverage: ";
  out += util::fmt_percent(stitch_coverage);
  if (coverage_lower_bound) out += " (lower bound: trace dropped events)";
  out += " (" + std::to_string(sends_matched) + "/" +
         std::to_string(sends_total) + " sends matched, " +
         std::to_string(unmatched_recvs.size()) + " orphan recvs)\n";

  out += "\nblocked-time ledgers (per rank+phase, ms):\n";
  util::Table table({"phase", "rank", "wall", "compute", "recv", "probe",
                     "barrier", "join", "comm"});
  const auto ms = [](std::uint64_t us) {
    return util::fmt_double(static_cast<double>(us) / 1000.0);
  };
  for (const PhaseLedger& l : ledgers) {
    table.add_row({l.phase.empty() ? "(unphased)" : l.phase,
                   l.rank == kDriverTid ? "drv" : std::to_string(l.rank),
                   ms(l.wall_us), ms(l.compute_us), ms(l.recv_wait_us),
                   ms(l.probe_wait_us), ms(l.barrier_wait_us),
                   ms(l.join_wait_us), ms(l.comm_us)});
  }
  out += table.render();

  out += "\ncritical path: ";
  out += ms(critical_path.total_us);
  out += " ms across " + std::to_string(critical_path.steps.size()) +
         " steps; top contributors:\n";
  std::size_t shown = 0;
  for (const CriticalContribution& c : critical_path.top) {
    if (shown++ == 10) break;
    out += "  ";
    out += util::fmt_percent(c.frac);
    out += "  ";
    out += ms(c.us);
    out += " ms  ";
    out += c.label;
    out += '\n';
  }
  return out;
}

std::string Analysis::to_json() const {
  std::string out = "{\n \"stitch\":{";
  out += "\"sends_total\":" + std::to_string(sends_total);
  out += ",\"sends_matched\":" + std::to_string(sends_matched);
  out += ",\"coverage\":" + util::fmt_double(stitch_coverage, 6);
  out += ",\"coverage_is_lower_bound\":";
  out += coverage_lower_bound ? "true" : "false";
  out += ",\"dropped_events\":" + std::to_string(dropped_events);
  out += ",\"dropped_by_rank\":{";
  {
    bool first = true;
    for (const auto& [rank, n] : dropped_by_rank) {
      if (!first) out += ',';
      first = false;
      out += '"' + std::to_string(rank) + "\":" + std::to_string(n);
    }
  }
  out += "},\"edges\":" + std::to_string(edges.size());
  out += ",\"unmatched_sends\":[";
  for (std::size_t i = 0;
       i < unmatched_sends.size() && i < kMaxJsonUnmatched; ++i) {
    const UnmatchedSend& s = unmatched_sends[i];
    if (i != 0) out += ',';
    out += "{\"src\":" + std::to_string(s.src_rank) +
           ",\"dst\":" + std::to_string(s.dst_rank) +
           ",\"mseq\":" + std::to_string(s.mseq) +
           ",\"ts_us\":" + std::to_string(s.ts_us) +
           ",\"bytes\":" + std::to_string(s.bytes) + ",\"sync\":" +
           (s.sync ? "true" : "false") + "}";
  }
  out += "],\"unmatched_sends_total\":" +
         std::to_string(unmatched_sends.size());
  out += ",\"unmatched_recvs\":[";
  for (std::size_t i = 0;
       i < unmatched_recvs.size() && i < kMaxJsonUnmatched; ++i) {
    const UnmatchedRecv& r = unmatched_recvs[i];
    if (i != 0) out += ',';
    out += "{\"dst\":" + std::to_string(r.dst_rank) +
           ",\"src\":" + std::to_string(r.src_rank) +
           ",\"mseq\":" + std::to_string(r.mseq) +
           ",\"end_us\":" + std::to_string(r.end_us) +
           ",\"bytes\":" + std::to_string(r.bytes) + "}";
  }
  out += "],\"unmatched_recvs_total\":" +
         std::to_string(unmatched_recvs.size());
  out += "},\n \"ledgers\":[";
  for (std::size_t i = 0; i < ledgers.size(); ++i) {
    const PhaseLedger& l = ledgers[i];
    if (i != 0) out += ',';
    out += "\n  {\"phase\":\"";
    append_json_escaped(out, l.phase);
    out += "\",\"rank\":" + std::to_string(l.rank);
    out += ",\"wall_us\":" + std::to_string(l.wall_us);
    out += ",\"compute_us\":" + std::to_string(l.compute_us);
    out += ",\"recv_wait_us\":" + std::to_string(l.recv_wait_us);
    out += ",\"probe_wait_us\":" + std::to_string(l.probe_wait_us);
    out += ",\"barrier_wait_us\":" + std::to_string(l.barrier_wait_us);
    out += ",\"join_wait_us\":" + std::to_string(l.join_wait_us);
    out += ",\"comm_us\":" + std::to_string(l.comm_us);
    out += ",\"wait_us\":" + std::to_string(l.wait_us());
    out += '}';
  }
  out += "],\n \"critical_path\":{\"total_us\":" +
         std::to_string(critical_path.total_us);
  out += ",\"steps_total\":" + std::to_string(critical_path.steps.size());
  out += ",\"steps\":[";
  for (std::size_t i = 0;
       i < critical_path.steps.size() && i < kMaxJsonSteps; ++i) {
    const CriticalStep& st = critical_path.steps[i];
    if (i != 0) out += ',';
    out += "\n  {\"kind\":\"";
    out += kind_json(st.kind);
    out += "\",\"rank\":" + std::to_string(st.rank);
    out += ",\"name\":\"";
    append_json_escaped(out, st.name);
    out += "\",\"phase\":\"";
    append_json_escaped(out, st.phase);
    out += "\",\"start_us\":" + std::to_string(st.start_us);
    out += ",\"end_us\":" + std::to_string(st.end_us);
    out += '}';
  }
  out += "],\"top\":[";
  for (std::size_t i = 0; i < critical_path.top.size() && i < 10; ++i) {
    const CriticalContribution& c = critical_path.top[i];
    if (i != 0) out += ',';
    out += "\n  {\"label\":\"";
    append_json_escaped(out, c.label);
    out += "\",\"us\":" + std::to_string(c.us);
    out += ",\"frac\":" + util::fmt_double(c.frac, 4);
    out += '}';
  }
  out += "]},\n \"warnings\":[";
  for (std::size_t i = 0; i < warnings.size(); ++i) {
    if (i != 0) out += ',';
    out += "\n  \"";
    append_json_escaped(out, warnings[i]);
    out += '"';
  }
  out += "]\n}\n";
  return out;
}

}  // namespace pgasm::obs
