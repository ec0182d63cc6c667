#include "model.hpp"

#include <algorithm>
#include <array>
#include <cstddef>
#include <deque>
#include <unordered_map>

#include "core/cluster_protocol.hpp"

namespace pgasm::verify {

namespace {

using pgasm::core::MasterState;
using pgasm::core::MsgKind;
using pgasm::core::WorkerState;

// --- Abstract state ---------------------------------------------------------
//
// One worker's slice of the composed state. `mode` collapses the declared
// six-state worker machine to its five operationally distinct modes: the
// kSendReport/kAlign/kApplyReply states are transient compute phases with
// no protocol choice, so kGenerate..kApplyReply fold into kModeGenerate
// and the kAwaitReply loop splits into awaiting (capped retransmits) vs
// parked (uncapped keepalives) — the split the real await_reply makes on
// the parked flag.

enum Mode : unsigned {
  kModeGenerate = 0,
  kModeAwait = 1,
  kModeParked = 2,
  kModeExited = 3,
  kModeCrashed = 4,
};

enum View : unsigned { kViewBusy = 0, kViewParked = 1, kViewTerm = 2,
                       kViewDead = 3 };

enum Reply : unsigned { kReplyNone = 0, kReplyDispatch = 1, kReplyPark = 2,
                        kReplyTerminate = 3 };

struct Worker {
  unsigned mode = kModeGenerate;  ///< 3 bits
  unsigned view = kViewBusy;      ///< 2 bits: master's book for this worker
  unsigned answered = 0;          ///< 1 bit: current report already folded
  unsigned retx = 0;              ///< 2 bits: retransmit budget this batch
  unsigned report = 0;            ///< 1 bit: report in flight to master
  unsigned slot = kReplyNone;     ///< 2 bits: reply in flight to worker
  unsigned cached = kReplyNone;   ///< 2 bits: master's cached last reply
};

struct State {
  std::array<Worker, 3> w;
  unsigned pool = 0;   ///< unassigned work units (requeued by declare_dead)
  unsigned drops = 0;  ///< remaining channel drop budget
  unsigned crash = 0;  ///< remaining worker crash budget
};

constexpr unsigned kWorkerBits = 16;

std::uint64_t pack_worker(const Worker& w) {
  return static_cast<std::uint64_t>(w.mode) | (w.view << 3) |
         (w.answered << 5) | (w.retx << 6) | (w.report << 8) |
         (w.slot << 9) | (w.cached << 11);
}

Worker unpack_worker(std::uint64_t v) {
  Worker w;
  w.mode = v & 7u;
  w.view = (v >> 3) & 3u;
  w.answered = (v >> 5) & 1u;
  w.retx = (v >> 6) & 3u;
  w.report = (v >> 8) & 1u;
  w.slot = (v >> 9) & 3u;
  w.cached = (v >> 11) & 3u;
  return w;
}

/// Canonical packed encoding. Workers are symmetric (every per-worker bit,
/// master-side bookkeeping included, lives in the worker field), so sorting
/// the fields collapses permutations of identical workers.
std::uint64_t pack(const State& s, int n) {
  std::array<std::uint64_t, 3> f{};
  for (int i = 0; i < n; ++i) {
    f[static_cast<std::size_t>(i)] = pack_worker(s.w[static_cast<std::size_t>(i)]);
  }
  // Tiny fixed sort network (n <= 3); std::sort trips -Warray-bounds here.
  if (n > 1 && f[0] > f[1]) std::swap(f[0], f[1]);
  if (n > 2) {
    if (f[1] > f[2]) std::swap(f[1], f[2]);
    if (f[0] > f[1]) std::swap(f[0], f[1]);
  }
  std::uint64_t out = 0;
  for (int i = 0; i < n; ++i) {
    out |= f[static_cast<std::size_t>(i)] << (static_cast<unsigned>(i) * kWorkerBits);
  }
  out |= static_cast<std::uint64_t>(s.pool) << 48;
  out |= static_cast<std::uint64_t>(s.drops) << 50;
  out |= static_cast<std::uint64_t>(s.crash) << 52;
  return out;
}

State unpack(std::uint64_t v, int n) {
  State s;
  for (int i = 0; i < n; ++i) {
    s.w[static_cast<std::size_t>(i)] =
        unpack_worker((v >> (static_cast<unsigned>(i) * kWorkerBits)) & 0xffffu);
  }
  s.pool = (v >> 48) & 3u;
  s.drops = (v >> 50) & 3u;
  s.crash = (v >> 52) & 3u;
  return s;
}

bool alive(const Worker& w) {
  return w.mode == kModeGenerate || w.mode == kModeAwait ||
         w.mode == kModeParked;
}

bool master_finished(const State& s, int n) {
  for (int i = 0; i < n; ++i) {
    const unsigned v = s.w[static_cast<std::size_t>(i)].view;
    if (v != kViewTerm && v != kViewDead) return false;
  }
  return true;
}

bool all_views_dead(const State& s, int n) {
  for (int i = 0; i < n; ++i) {
    if (s.w[static_cast<std::size_t>(i)].view != kViewDead) return false;
  }
  return true;
}

bool is_final(const State& s, int n, ModelBug bug) {
  if (!master_finished(s, n)) return false;
  for (int i = 0; i < n; ++i) {
    const unsigned m = s.w[static_cast<std::size_t>(i)].mode;
    if (m != kModeExited && m != kModeCrashed) return false;
  }
  // pool > 0 here means every owner of the remaining work died: the real
  // master throws TimeoutError ("all workers lost with work remaining").
  // That abort IS a defined final outcome; the kNoFinalAbort seeded bug
  // removes it and must surface as a P1 deadlock.
  if (s.pool > 0 && bug == ModelBug::kNoFinalAbort) return false;
  return true;
}

// --- Actions ----------------------------------------------------------------

enum class Act : std::uint8_t {
  kSendReport,
  kRetransmit,
  kKeepalive,
  kConsumeReply,
  kDiscardStaleReply,
  kConsumeTerminateGen,
  kGiveUp,
  kCrash,
  kDrainReplyExited,
  kFoldFresh,
  kFoldDup,
  kFoldZombie,
  kDrainReport,
  kMasterWake,
  kReap,
  kDropReport,
  kDropReply,
};

const char* act_name(Act a) {
  switch (a) {
    case Act::kSendReport: return "worker sends fresh report";
    case Act::kRetransmit: return "worker retransmits report (capped)";
    case Act::kKeepalive: return "parked worker keepalive retransmit";
    case Act::kConsumeReply: return "worker consumes reply";
    case Act::kDiscardStaleReply: return "worker discards stale reply";
    case Act::kConsumeTerminateGen:
      return "worker consumes queued terminate before sending";
    case Act::kGiveUp:
      return "worker exhausts its retransmissions and fails its rank";
    case Act::kCrash: return "worker crashes";
    case Act::kDrainReplyExited: return "exited worker drains stale reply";
    case Act::kFoldFresh: return "master folds fresh report and replies";
    case Act::kFoldDup: return "master answers duplicate from cache";
    case Act::kFoldZombie: return "master folds a reaped worker's report";
    case Act::kDrainReport:
      return "finished master drains report, re-sends terminate";
    case Act::kMasterWake: return "master wakes parked worker with dispatch";
    case Act::kReap: return "master reaps failed worker";
    case Act::kDropReport: return "channel drops report";
    case Act::kDropReply: return "channel drops reply";
  }
  return "?";
}

std::uint32_t act_code(Act a, int worker) {
  return static_cast<std::uint32_t>(a) << 4 | static_cast<std::uint32_t>(worker);
}

std::string act_describe(std::uint32_t code) {
  const Act a = static_cast<Act>(code >> 4);
  return std::string(act_name(a)) + " [worker " +
         std::to_string(code & 0xf) + "]";
}

// --- Declared-table conformance (P3) ----------------------------------------

/// Bitmask of declared (state, kind) receive capabilities, built from the
/// real kWorkerRecvs/kMasterRecvs tables compiled in from
/// core/cluster_protocol.hpp. kUndeclaredRecv removes one row to prove the
/// checker notices a consumption outside the declared protocol.
struct Capabilities {
  static constexpr std::size_t kKinds = std::size(pgasm::core::kAllMsgKinds);
  // Index: state * kKinds + (tag - 101).
  std::array<bool, 6 * kKinds> worker{};
  std::array<bool, 6 * kKinds> master{};
  // Transitive closure of kWorkerTransitions over the declared states.
  std::array<std::array<bool, 6>, 6> closure{};

  explicit Capabilities(ModelBug bug) {
    for (const auto& r : pgasm::core::kWorkerRecvs) {
      worker[static_cast<std::size_t>(r.state) * kKinds +
             static_cast<std::size_t>(pgasm::core::to_tag(r.kind) - 101)] =
          true;
    }
    for (const auto& r : pgasm::core::kMasterRecvs) {
      master[static_cast<std::size_t>(r.state) * kKinds +
             static_cast<std::size_t>(pgasm::core::to_tag(r.kind) - 101)] =
          true;
    }
    if (bug == ModelBug::kUndeclaredRecv) {
      worker[static_cast<std::size_t>(WorkerState::kAwaitReply) * kKinds +
             static_cast<std::size_t>(
                 pgasm::core::to_tag(MsgKind::kReply) - 101)] = false;
    }
    for (std::size_t i = 0; i < 6; ++i) closure[i][i] = true;
    for (std::size_t pass = 0; pass < 6; ++pass) {
      for (const auto& t : pgasm::core::kWorkerTransitions) {
        const auto from = static_cast<std::size_t>(t.from);
        const auto to = static_cast<std::size_t>(t.to);
        for (std::size_t src = 0; src < 6; ++src) {
          if (closure[src][from]) closure[src][to] = true;
        }
      }
    }
  }
};

/// Declared WorkerState a model mode reports its consumptions under.
WorkerState declared_state(unsigned mode) {
  switch (mode) {
    case kModeGenerate: return WorkerState::kGenerate;
    case kModeAwait:
    case kModeParked: return WorkerState::kAwaitReply;
    default: return WorkerState::kShutdown;
  }
}

// --- Exploration ------------------------------------------------------------

struct Explorer {
  ModelConfig cfg;
  int n;
  int retx_budget;
  Capabilities caps;
  std::unordered_map<std::uint64_t, std::uint32_t> index;
  std::vector<std::uint64_t> states;
  std::vector<std::uint32_t> parent;
  std::vector<std::uint32_t> pact;
  std::vector<std::uint8_t> final_flag;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edge_list;
  ModelResult res;

  explicit Explorer(const ModelConfig& c)
      : cfg(c),
        n(c.workers),
        retx_budget(c.bug == ModelBug::kNoRetransmit
                        ? 0
                        : (c.retransmits >= 0 ? c.retransmits : c.drops)),
        caps(c.bug) {
    if (retx_budget > 3) retx_budget = 3;
  }

  std::vector<std::string> trace_to(std::uint32_t idx) {
    std::vector<std::string> out;
    while (idx != 0) {
      out.push_back(act_describe(pact[idx]));
      idx = parent[idx];
    }
    std::reverse(out.begin(), out.end());
    return out;
  }

  void violate(const char* prop, const std::string& msg, std::uint32_t at,
               const std::uint32_t* extra_act = nullptr) {
    if (!res.property.empty()) return;  // keep the first (shallowest)
    res.property = prop;
    res.message = msg;
    res.trace = trace_to(at);
    if (extra_act != nullptr) res.trace.push_back(act_describe(*extra_act));
  }

  /// P3: a message consumption must sit on a declared recv-capability row.
  void check_consumption(bool by_worker, unsigned mode_or_master_state,
                         MsgKind kind, std::uint32_t at, std::uint32_t code) {
    const std::size_t tag_ix =
        static_cast<std::size_t>(pgasm::core::to_tag(kind) - 101);
    if (by_worker) {
      const WorkerState ds = declared_state(mode_or_master_state);
      if (!caps.worker[static_cast<std::size_t>(ds) * Capabilities::kKinds +
                       tag_ix]) {
        violate("P3",
                std::string("worker consumes ") +
                    pgasm::core::msg_kind_name(kind) + " in state " +
                    pgasm::core::worker_state_name(ds) +
                    " with no kWorkerRecvs row declaring it",
                at, &code);
      }
    } else {
      const auto ms = static_cast<MasterState>(mode_or_master_state);
      if (!caps.master[static_cast<std::size_t>(ms) * Capabilities::kKinds +
                       tag_ix]) {
        violate("P3",
                std::string("master consumes ") +
                    pgasm::core::msg_kind_name(kind) + " in state " +
                    pgasm::core::master_state_name(ms) +
                    " with no kMasterRecvs row declaring it",
                at, &code);
      }
    }
  }

  /// P3b: every worker mode change must map onto a declared transition
  /// path (the model's modes are contractions of the declared states).
  void check_worker_edge(unsigned from_mode, unsigned to_mode,
                         std::uint32_t at, std::uint32_t code) {
    if (from_mode == to_mode) return;
    if (to_mode == kModeCrashed || from_mode == kModeCrashed) return;
    const auto from = static_cast<std::size_t>(declared_state(from_mode));
    const auto to = static_cast<std::size_t>(declared_state(to_mode));
    if (!caps.closure[from][to]) {
      violate("P3",
              std::string("worker moves ") +
                  pgasm::core::worker_state_name(declared_state(from_mode)) +
                  " -> " +
                  pgasm::core::worker_state_name(declared_state(to_mode)) +
                  " but kWorkerTransitions declares no such path",
              at, &code);
    }
  }

  /// The master's reply decision after folding a fresh report from `i`
  /// (mirrors master_loop: feed from the pool, else park, else terminate
  /// everyone once nothing is outstanding).
  void fold_decision(State& t, int i) {
    Worker& wi = t.w[static_cast<std::size_t>(i)];
    if (t.pool > 0) {
      --t.pool;
      wi.cached = kReplyDispatch;
      if (alive(wi)) wi.slot = kReplyDispatch;
      return;  // view stays busy: the worker holds the new unit
    }
    bool others_busy = false;
    for (int j = 0; j < n; ++j) {
      if (j != i && t.w[static_cast<std::size_t>(j)].view == kViewBusy) {
        others_busy = true;
      }
    }
    if (others_busy) {
      wi.view = kViewParked;
      if (cfg.bug == ModelBug::kNoParkReply) {
        wi.cached = kReplyNone;  // decision made but never told the worker
      } else {
        wi.cached = kReplyPark;
        if (alive(wi)) wi.slot = kReplyPark;
      }
      return;
    }
    // Nothing outstanding anywhere: terminate the sender and every parked
    // worker (master_loop's try_terminate after the final fold).
    for (int j = 0; j < n; ++j) {
      Worker& wj = t.w[static_cast<std::size_t>(j)];
      if (j == i || wj.view == kViewParked) {
        wj.view = kViewTerm;
        wj.cached = kReplyTerminate;
        if (alive(wj)) wj.slot = kReplyTerminate;
      }
    }
  }

  /// Enumerate every enabled action of `s`; call sink(next, code, ...) for
  /// each successor. Returns the number of enabled actions.
  template <typename Sink>
  int expand(const State& s, std::uint32_t at, Sink&& sink) {
    int enabled = 0;
    const bool finished = master_finished(s, n);
    const auto emit = [&](const State& t, Act a, int i) {
      ++enabled;
      sink(t, act_code(a, i));
    };

    for (int i = 0; i < n; ++i) {
      const Worker& w = s.w[static_cast<std::size_t>(i)];
      const auto wi = static_cast<std::size_t>(i);

      // -- Worker actions.
      if (w.mode == kModeGenerate) {
        if (w.slot == kReplyTerminate) {
          State t = s;
          check_consumption(true, w.mode, MsgKind::kReply, at,
                            act_code(Act::kConsumeTerminateGen, i));
          check_worker_edge(w.mode, kModeExited, at,
                            act_code(Act::kConsumeTerminateGen, i));
          t.w[wi].slot = kReplyNone;
          t.w[wi].mode = kModeExited;
          emit(t, Act::kConsumeTerminateGen, i);
        } else if (w.slot != kReplyNone) {
          // Stale duplicate reply queued before the next send: the real
          // consume_pending_terminate discards it by seq.
          State t = s;
          check_consumption(true, w.mode, MsgKind::kReply, at,
                            act_code(Act::kDiscardStaleReply, i));
          t.w[wi].slot = kReplyNone;
          emit(t, Act::kDiscardStaleReply, i);
        } else {
          State t = s;
          check_worker_edge(w.mode, kModeAwait, at,
                            act_code(Act::kSendReport, i));
          t.w[wi].mode = kModeAwait;
          t.w[wi].report = 1;
          t.w[wi].answered = 0;
          t.w[wi].retx = static_cast<unsigned>(retx_budget);
          emit(t, Act::kSendReport, i);
        }
      }
      if (w.mode == kModeAwait && w.report == 0 && w.slot == kReplyNone &&
          w.retx > 0) {
        State t = s;
        t.w[wi].report = 1;
        --t.w[wi].retx;
        emit(t, Act::kRetransmit, i);
      }
      if (w.mode == kModeParked && w.report == 0 && w.slot == kReplyNone) {
        State t = s;
        t.w[wi].report = 1;
        emit(t, Act::kKeepalive, i);
      }
      if ((w.mode == kModeAwait || w.mode == kModeParked) &&
          w.slot != kReplyNone) {
        State t = s;
        const std::uint32_t code = act_code(Act::kConsumeReply, i);
        check_consumption(true, w.mode, MsgKind::kReply, at, code);
        t.w[wi].slot = kReplyNone;
        unsigned to = w.mode;
        if (w.slot == kReplyDispatch) to = kModeGenerate;
        if (w.slot == kReplyPark) to = kModeParked;
        if (w.slot == kReplyTerminate) to = kModeExited;
        check_worker_edge(w.mode, to, at, code);
        t.w[wi].mode = to;
        emit(t, Act::kConsumeReply, i);
      }
      if (w.mode == kModeAwait && w.report == 0 && w.slot == kReplyNone &&
          w.retx == 0) {
        // await_reply's cap: the worker fails its own rank (Comm::fail_self)
        // and the master reaps it like a crash. P4 flags every such state
        // while the master is unfinished.
        State t = s;
        t.w[wi].mode = kModeCrashed;
        emit(t, Act::kGiveUp, i);
      }
      if (alive(w) && s.crash > 0) {
        State t = s;
        t.w[wi].mode = kModeCrashed;
        // A crashed rank's mailbox is inert: queued messages to it vanish.
        t.w[wi].slot = kReplyNone;
        --t.crash;
        emit(t, Act::kCrash, i);
      }
      if (w.mode == kModeExited && w.slot != kReplyNone) {
        State t = s;
        check_consumption(true, w.mode, MsgKind::kReply, at,
                          act_code(Act::kDrainReplyExited, i));
        t.w[wi].slot = kReplyNone;
        emit(t, Act::kDrainReplyExited, i);
      }

      // -- Master actions.
      if (w.report) {
        State t = s;
        t.w[wi].report = 0;
        if (finished) {
          check_consumption(false,
                            static_cast<unsigned>(MasterState::kTerminate),
                            MsgKind::kReport, at,
                            act_code(Act::kDrainReport, i));
          // A retransmit that crossed its terminate: the master cannot
          // finish before this worker does, so it re-sends the terminate.
          if (cfg.bug != ModelBug::kNoDrainReply && w.view == kViewTerm &&
              alive(w)) {
            t.w[wi].slot = w.cached;
          }
          emit(t, Act::kDrainReport, i);
        } else {
          check_consumption(false, static_cast<unsigned>(MasterState::kFold),
                            MsgKind::kReport, at, act_code(Act::kFoldDup, i));
          if (w.view == kViewDead) {
            // A report the worker sent before it crashed, folded after the
            // reap: idempotent, and nothing is sent to the dead rank.
            emit(t, Act::kFoldZombie, i);
          } else if (w.answered) {
            // Duplicate of an already-folded report (a terminated worker's
            // included): re-send the cache.
            if (cfg.bug != ModelBug::kNoCachedReply &&
                w.cached != kReplyNone && alive(t.w[wi])) {
              t.w[wi].slot = w.cached;
            }
            emit(t, Act::kFoldDup, i);
          } else {
            t.w[wi].answered = 1;
            fold_decision(t, i);
            emit(t, Act::kFoldFresh, i);
          }
        }
      }
      if (s.pool > 0 && w.view == kViewParked) {
        State t = s;
        --t.pool;
        t.w[wi].view = kViewBusy;
        t.w[wi].cached = kReplyDispatch;
        if (alive(w)) t.w[wi].slot = kReplyDispatch;
        emit(t, Act::kMasterWake, i);
      }
      // The transport is the failure detector: only a crashed worker is
      // reaped, and only once its own queued report has been consumed.
      if (w.mode == kModeCrashed && !w.report &&
          (w.view == kViewBusy || w.view == kViewParked)) {
        State t = s;
        if (w.view == kViewBusy) ++t.pool;  // requeue the held unit
        t.w[wi].view = kViewDead;
        emit(t, Act::kReap, i);
      }

      // -- Channel drop actions.
      if (s.drops > 0) {
        if (w.report) {
          State t = s;
          t.w[wi].report = 0;
          --t.drops;
          emit(t, Act::kDropReport, i);
        }
        if (w.slot != kReplyNone) {
          State t = s;
          t.w[wi].slot = kReplyNone;
          --t.drops;
          emit(t, Act::kDropReply, i);
        }
      }
    }
    return enabled;
  }

  /// P4: the state in which the real await_reply gives up and fails its
  /// rank —
  /// a live waiting worker with no retransmit budget left, nothing queued
  /// for it, its report gone, and a master that has not finished.
  void check_stranded(const State& s, std::uint32_t at) {
    if (master_finished(s, n)) return;
    for (int i = 0; i < n; ++i) {
      const Worker& w = s.w[static_cast<std::size_t>(i)];
      if (w.mode == kModeAwait && w.retx == 0 && w.report == 0 &&
          w.slot == kReplyNone) {
        violate("P4",
                "worker " + std::to_string(i) +
                    " is stranded: retransmission budget exhausted, no "
                    "reply queued, report gone, master unfinished — the "
                    "real await_reply fails the rank here and message "
                    "loss has killed a healthy worker",
                at);
        return;
      }
    }
  }

  void run() {
    State init;
    for (int i = 0; i < n; ++i) {
      init.w[static_cast<std::size_t>(i)].retx =
          static_cast<unsigned>(retx_budget);
    }
    init.drops = static_cast<unsigned>(cfg.drops);
    init.crash = static_cast<unsigned>(cfg.crashes);

    const std::uint64_t k0 = pack(init, n);
    index.emplace(k0, 0);
    states.push_back(k0);
    parent.push_back(0);
    pact.push_back(0);
    final_flag.push_back(is_final(init, n, cfg.bug) ? 1 : 0);

    for (std::uint32_t at = 0; at < states.size(); ++at) {
      if (states.size() > cfg.max_states) {
        res.message = "state space exceeds max_states";
        return;
      }
      const State s = unpack(states[at], n);
      check_stranded(s, at);
      const int enabled = expand(s, at, [&](const State& t,
                                            std::uint32_t code) {
        const std::uint64_t key = pack(t, n);
        auto [it, inserted] = index.emplace(
            key, static_cast<std::uint32_t>(states.size()));
        if (inserted) {
          states.push_back(key);
          parent.push_back(at);
          pact.push_back(code);
          final_flag.push_back(is_final(t, n, cfg.bug) ? 1 : 0);
        }
        edge_list.emplace_back(at, it->second);
      });
      if (enabled == 0 && !final_flag[at]) {
        violate("P1",
                "deadlock: no action is enabled and the state is not a "
                "declared final (all workers done or the all-lost abort)",
                at);
      }
      if (!res.property.empty()) break;
    }

    res.states = states.size();
    res.edges = edge_list.size();
    for (std::uint32_t i = 0; i < states.size(); ++i) {
      if (!final_flag[i]) continue;
      const State s = unpack(states[i], n);
      if (s.pool > 0 || all_views_dead(s, n)) {
        ++res.abort_finals;
      } else {
        ++res.finals;
      }
    }
    if (!res.property.empty()) return;
    res.exhausted = true;
    check_coreachability();
    res.ok = res.property.empty();
  }

  /// P2: every reachable state can still reach a final (no livelock).
  /// Backward BFS from the finals over a reverse-CSR of the edge list.
  void check_coreachability() {
    const std::uint32_t ns = static_cast<std::uint32_t>(states.size());
    std::vector<std::uint32_t> off(ns + 1, 0);
    for (const auto& [from, to] : edge_list) {
      (void)from;
      ++off[to + 1];
    }
    for (std::uint32_t i = 0; i < ns; ++i) off[i + 1] += off[i];
    std::vector<std::uint32_t> rev(edge_list.size());
    {
      std::vector<std::uint32_t> cur(off.begin(), off.end() - 1);
      for (const auto& [from, to] : edge_list) rev[cur[to]++] = from;
    }
    std::vector<std::uint8_t> good(ns, 0);
    std::deque<std::uint32_t> q;
    for (std::uint32_t i = 0; i < ns; ++i) {
      if (final_flag[i]) {
        good[i] = 1;
        q.push_back(i);
      }
    }
    while (!q.empty()) {
      const std::uint32_t v = q.front();
      q.pop_front();
      for (std::uint32_t e = off[v]; e < off[v + 1]; ++e) {
        if (!good[rev[e]]) {
          good[rev[e]] = 1;
          q.push_back(rev[e]);
        }
      }
    }
    for (std::uint32_t i = 0; i < ns; ++i) {
      if (!good[i]) {
        violate("P2",
                "livelock: from this reachable state no final state is "
                "reachable — the run can never finish",
                i);
        return;
      }
    }
  }
};

}  // namespace

const char* model_bug_name(ModelBug bug) {
  switch (bug) {
    case ModelBug::kNone: return "none";
    case ModelBug::kNoRetransmit: return "no-retransmit";
    case ModelBug::kNoCachedReply: return "no-cached-reply";
    case ModelBug::kNoParkReply: return "no-park-reply";
    case ModelBug::kUndeclaredRecv: return "undeclared-recv";
    case ModelBug::kNoFinalAbort: return "no-final-abort";
    case ModelBug::kNoDrainReply: return "no-drain-reply";
  }
  return "?";
}

bool parse_model_bug(const std::string& name, ModelBug* out) {
  for (const ModelBug b :
       {ModelBug::kNone, ModelBug::kNoRetransmit, ModelBug::kNoCachedReply,
        ModelBug::kNoParkReply,
        ModelBug::kUndeclaredRecv, ModelBug::kNoFinalAbort,
        ModelBug::kNoDrainReply}) {
    if (name == model_bug_name(b)) {
      *out = b;
      return true;
    }
  }
  return false;
}

ModelResult run_model(const ModelConfig& config) {
  ModelConfig c = config;
  if (c.workers < 1) c.workers = 1;
  if (c.workers > 3) c.workers = 3;
  if (c.drops < 0) c.drops = 0;
  if (c.drops > 3) c.drops = 3;
  if (c.crashes < 0) c.crashes = 0;
  if (c.crashes > 3) c.crashes = 3;
  Explorer e(c);
  e.run();
  return e.res;
}

std::vector<ModelBugFixture> model_bug_fixtures() {
  const auto cfg = [](int workers, int drops, int crashes, ModelBug bug) {
    ModelConfig c;
    c.workers = workers;
    c.drops = drops;
    c.crashes = crashes;
    c.bug = bug;
    return c;
  };
  return {
      {ModelBug::kNoRetransmit, cfg(1, 1, 0, ModelBug::kNoRetransmit), "P4"},
      {ModelBug::kNoCachedReply, cfg(2, 1, 0, ModelBug::kNoCachedReply),
       "P4"},
      {ModelBug::kNoParkReply, cfg(2, 0, 0, ModelBug::kNoParkReply), "P4"},
      {ModelBug::kUndeclaredRecv, cfg(2, 0, 0, ModelBug::kUndeclaredRecv),
       "P3"},
      {ModelBug::kNoFinalAbort, cfg(1, 0, 1, ModelBug::kNoFinalAbort), "P1"},
      {ModelBug::kNoDrainReply, cfg(2, 1, 0, ModelBug::kNoDrainReply), "P2"},
  };
}

}  // namespace pgasm::verify
