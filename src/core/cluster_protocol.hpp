// Message-level protocol for the master–worker clustering loop (paper
// Fig. 6), split out of the coordinator: wire tags, the worker's
// report-send/reply-wait state machine with retransmission, and the
// master's per-worker reply channel with its duplicate-report defence.
// Liveness is the transport's job: a worker is dead exactly when
// Comm::rank_failed says so, and no message exists only to prove a peer
// alive. Scheduling policy (what to dispatch, when to terminate) lives in
// cluster_scheduler.*; this layer only moves and acknowledges messages.
//
// Zero-copy discipline: reports and replies are encoded straight into vmpi
// payload buffers and MOVED into the destination mailbox
// (Comm::send_payload). The worker's retransmission path re-encodes from
// the kept WorkerReport — retransmits are rare, first sends are not — and
// the master's reply cache keeps the encoded bytes because a cached reply
// must survive to be re-sent.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/cluster_params.hpp"
#include "core/wire.hpp"
#include "vmpi/runtime.hpp"

namespace pgasm::core {

/// Protocol message kinds. The enumerator values ARE the vmpi tags on the
/// wire (kept from the integer-tag era, so old traces and the kTag*
/// aliases below stay valid); to_tag() converts at the comm boundary.
/// Being an enum class makes every dispatch switch compiler-checked:
/// -Werror=switch (always on, see pgasm_warnings) turns an unhandled kind
/// into a build break, and pgasm-lint W009 additionally rejects a silent
/// `default:` that would mask one.
enum class MsgKind : std::uint8_t {
  kReport = 101,  ///< worker -> master: results + new pairs + progress
  kReply = 102,   ///< master -> worker: batch / park / terminate
};

/// Every protocol kind, for table-driven iteration (pgasm-model, tests).
inline constexpr MsgKind kAllMsgKinds[] = {MsgKind::kReport, MsgKind::kReply};

/// How long one blocking wait lasts before the waiter re-checks peer
/// liveness (rank_failed): the master's report probe and the
/// worker's reply wait both block in slices of this length.
inline constexpr double kLivenessSliceSeconds = 0.05;

/// vmpi tag for a message kind (the enumerator value, by construction).
constexpr int to_tag(MsgKind kind) noexcept { return static_cast<int>(kind); }

/// Classify a vmpi tag probed off the wire; nullopt for tags outside the
/// protocol. Exhaustive over MsgKind (enforced by -Werror=switch + W009).
constexpr std::optional<MsgKind> msg_kind_of(int tag) noexcept {
  const auto kind = static_cast<MsgKind>(tag);
  switch (kind) {
    case MsgKind::kReport:
    case MsgKind::kReply:
      return kind;
  }
  return std::nullopt;
}

/// Stable lowercase name ("report", "reply") for logs and
/// trace args. Exhaustive switch: adding a MsgKind without naming it here
/// is a compile error.
constexpr const char* msg_kind_name(MsgKind kind) noexcept {
  switch (kind) {
    case MsgKind::kReport:
      return "report";
    case MsgKind::kReply:
      return "reply";
  }
  return "?";  // unreachable for valid kinds; keeps the function total
}

// Legacy integer tag aliases (single source of truth: MsgKind). The
// `pgasm-wire:` annotations are machine-checked by tools/lint/pgasm_lint.py:
// every codec-bearing tag must name exactly one encode/decode pair declared
// in core/wire.hpp, each pair must be claimed by exactly one tag, and a
// round-trip test exercising both halves must exist under tests/.
inline constexpr int kTagReport = to_tag(MsgKind::kReport);  // worker -> master
                                        // pgasm-wire: encode_report/decode_report
inline constexpr int kTagReply = to_tag(MsgKind::kReply);  // master -> worker
                                        // pgasm-wire: encode_reply/decode_reply

// --- Declarative protocol table --------------------------------------------
//
// One row per message kind: direction, codec pair, consuming handler, and —
// because the fault-tolerance layer's whole correctness argument rests on
// them — the recovery path when an instance is dropped and the defence when
// it is duplicated. tools/verify/pgasm-model (P5) checks this table plus
// the state machines below at compile time and cross-checks them against
// wire.hpp and the protocol implementation; an empty cell is a build
// failure, not a shrug.

struct MsgSpec {
  MsgKind kind;
  const char* name;          ///< must equal msg_kind_name(kind)
  const char* direction;     ///< "worker->master" or "master->worker"
  const char* encoder;       ///< producing codec / send form
  const char* decoder;       ///< consuming codec / recv form
  const char* handler;       ///< function that consumes the message
  const char* on_drop;       ///< how a lost instance is recovered
  const char* on_duplicate;  ///< how a re-delivered instance is defused
};

inline constexpr MsgSpec kProtocol[] = {
    {MsgKind::kReport, "report", "worker->master", "encode_report",
     "try_decode_report", "recv_report",
     "reply_timeout retransmit in await_reply",
     "ReplyChannel::is_duplicate seq match -> resend_cached"},
    {MsgKind::kReply, "reply", "master->worker", "encode_reply",
     "try_decode_reply", "await_reply",
     "duplicate report solicits ReplyChannel::resend_cached",
     "stale seq discarded by await_reply seq filter"},
};

/// Table row for a kind; nullptr when the table misses one (pgasm-model
/// and test_cluster assert it never does).
constexpr const MsgSpec* find_spec(MsgKind kind) noexcept {
  for (const MsgSpec& spec : kProtocol) {
    if (spec.kind == kind) return &spec;
  }
  return nullptr;
}

// --- Master state machine ---------------------------------------------------
//
// The master pump (master_loop in parallel_cluster.cpp) as an explicit
// state/transition table. The implementation is a hand-rolled loop — this
// table is its contract: tools/verify/pgasm-model (P5) verifies that
// kTerminate is reachable from every state (no livelock by construction)
// and every state from kProbe; the `// [MasterState::k*]` markers in
// master_loop tie the code back to the states.

enum class MasterState : std::uint8_t {
  kProbe,       ///< wait one liveness slice for any report; reap failed ranks
  kFold,        ///< decode + fold a report; answer duplicates from cache
  kDispatch,    ///< feed idle workers; dispatch, park, or terminate sender
  kCheckpoint,  ///< periodic recoverable-state write
  kTerminate,   ///< all workers terminated or dead; run over
};

inline constexpr MasterState kAllMasterStates[] = {
    MasterState::kProbe,      MasterState::kFold,
    MasterState::kDispatch,   MasterState::kCheckpoint,
    MasterState::kTerminate,
};

/// Stable lowercase state name; exhaustive switch (see msg_kind_name).
constexpr const char* master_state_name(MasterState s) noexcept {
  switch (s) {
    case MasterState::kProbe:
      return "probe";
    case MasterState::kFold:
      return "fold";
    case MasterState::kDispatch:
      return "dispatch";
    case MasterState::kCheckpoint:
      return "checkpoint";
    case MasterState::kTerminate:
      return "terminate";
  }
  return "?";
}

struct MasterTransition {
  MasterState from;
  MasterState to;
  const char* on;  ///< the condition taking this edge
};

inline constexpr MasterTransition kMasterTransitions[] = {
    {MasterState::kProbe, MasterState::kFold, "report queued"},
    {MasterState::kProbe, MasterState::kProbe,
     "slice up: rank_failed workers with no queued report reaped, idle "
     "fed; work remains"},
    {MasterState::kProbe, MasterState::kTerminate,
     "remaining == 0 after reaping (all terminated or dead)"},
    {MasterState::kFold, MasterState::kDispatch,
     "report folded (a reaped worker's late one included) or duplicate "
     "re-answered"},
    {MasterState::kDispatch, MasterState::kCheckpoint,
     "checkpoint cadence reached"},
    {MasterState::kDispatch, MasterState::kProbe, "reporter answered"},
    {MasterState::kDispatch, MasterState::kTerminate, "remaining == 0"},
    {MasterState::kCheckpoint, MasterState::kProbe, "checkpoint written"},
};

// --- Worker state machine ---------------------------------------------------
//
// The worker pump (worker_loop in parallel_cluster.cpp) as an explicit
// state/transition table, mirroring kMasterTransitions above. The
// `// [WorkerState::k*]` markers in worker_loop tie the code back to the
// states; tools/verify/pgasm-model verifies the markers exist and that
// kShutdown is reachable from every state (P5). It also composes this
// machine with the master machine and a bounded lossy channel and
// exhaustively proves deadlock freedom and terminate-reachability.

enum class WorkerState : std::uint8_t {
  kGenerate,    ///< consume queued terminates, build a report
  kSendReport,  ///< hand the encoded report to the transport (ssend-aware)
  kAlign,       ///< align the previous batch while the reply is in flight
  kAwaitReply,  ///< wait for the reply to this seq; retransmit on timeout
  kApplyReply,  ///< adopt the new batch; rebuild taken-over portions
  kShutdown,    ///< terminate consumed; drain and exit
};

inline constexpr WorkerState kAllWorkerStates[] = {
    WorkerState::kGenerate,   WorkerState::kSendReport,
    WorkerState::kAlign,      WorkerState::kAwaitReply,
    WorkerState::kApplyReply, WorkerState::kShutdown,
};

/// Stable lowercase state name; exhaustive switch (see msg_kind_name).
constexpr const char* worker_state_name(WorkerState s) noexcept {
  switch (s) {
    case WorkerState::kGenerate:
      return "generate";
    case WorkerState::kSendReport:
      return "send_report";
    case WorkerState::kAlign:
      return "align";
    case WorkerState::kAwaitReply:
      return "await_reply";
    case WorkerState::kApplyReply:
      return "apply_reply";
    case WorkerState::kShutdown:
      return "shutdown";
  }
  return "?";
}

struct WorkerTransition {
  WorkerState from;
  WorkerState to;
  const char* on;  ///< the condition taking this edge
};

inline constexpr WorkerTransition kWorkerTransitions[] = {
    {WorkerState::kGenerate, WorkerState::kShutdown,
     "queued terminate consumed before the report send"},
    {WorkerState::kGenerate, WorkerState::kSendReport,
     "report built: results + new pairs + progress"},
    {WorkerState::kSendReport, WorkerState::kAlign,
     "report handed to the transport (rendezvoused when use_ssend)"},
    {WorkerState::kAlign, WorkerState::kAwaitReply,
     "previous batch aligned"},
    {WorkerState::kAwaitReply, WorkerState::kAwaitReply,
     "reply_timeout: report retransmitted (master answers from cache)"},
    {WorkerState::kAwaitReply, WorkerState::kAwaitReply,
     "park reply: wait quietly with uncapped keepalive retransmits"},
    {WorkerState::kAwaitReply, WorkerState::kApplyReply,
     "dispatch reply matching this seq"},
    {WorkerState::kAwaitReply, WorkerState::kShutdown,
     "terminate reply (re-sent by the master's drain if lost)"},
    {WorkerState::kApplyReply, WorkerState::kGenerate,
     "batch adopted; takeover portions rebuilt and fast-forwarded"},
};

// --- Receive-capability tables ----------------------------------------------
//
// Which (state, message kind) pairs each side may consume, and the handler
// that does it. pgasm-model checks every message consumption in the
// explored state space against these rows — a reachable consumption with no
// declared row is a property violation (an undeclared protocol path), and
// pgasm-lint W015 requires every wire tag to appear in exactly one
// declarative table.

struct WorkerRecvSpec {
  WorkerState state;
  MsgKind kind;
  const char* handler;
};

inline constexpr WorkerRecvSpec kWorkerRecvs[] = {
    {WorkerState::kGenerate, MsgKind::kReply, "consume_pending_terminate"},
    {WorkerState::kAwaitReply, MsgKind::kReply, "await_reply"},
    {WorkerState::kShutdown, MsgKind::kReply, "drain_shutdown_messages"},
};

struct MasterRecvSpec {
  MasterState state;
  MsgKind kind;
  const char* handler;
};

inline constexpr MasterRecvSpec kMasterRecvs[] = {
    {MasterState::kFold, MsgKind::kReport, "recv_report"},
    {MasterState::kTerminate, MsgKind::kReport, "drain_worker_traffic"},
};

/// Master-side receive of the report already probed from `source`. A
/// payload that fails to decode (truncated, mistagged, corrupt counts) is
/// returned as a typed WireError — the caller drops it, the worker's
/// retransmission timer re-sends the report, and a healthy retransmit
/// recovers the exchange (a persistently corrupt peer exhausts its
/// retransmission cap and fails its rank). Decode failures are counted in
/// the `wire.decode_errors` metric and traced as `decode_error` instants.
WireResult<WorkerReport> recv_report(vmpi::Comm& comm, int source);

/// Worker-side drain of unsolicited queued replies before a (possibly
/// synchronous) report send. Returns true when a terminate order was
/// consumed (the run is over). Stale duplicate replies and undecodable
/// payloads are discarded.
bool consume_pending_terminate(vmpi::Comm& comm);

/// Worker-side shutdown drain, called once after a terminate is consumed:
/// eats duplicate replies queued behind the terminate (retransmission
/// crossfire), so a run leaves no unreceived sends for the causal trace
/// analyzer to flag. Returns how many messages were consumed.
int drain_shutdown_messages(vmpi::Comm& comm);

/// Encode and send a worker report to the master (moved payload; ssend when
/// the params ask for synchronous reports).
void send_report(vmpi::Comm& comm, const ClusterParams& params,
                 const WorkerReport& report);

/// Worker-side wait for the reply answering report `seq`, in short timeout
/// slices. After params.reply_timeout without a matching reply, the report
/// is retransmitted (re-encoded from `report`) — the master discards the
/// duplicate by seq and re-sends its cached reply, which recovers a dropped
/// report or a dropped reply alike. Throws TimeoutError when the master
/// rank has failed (the run aborts; resume from the last checkpoint). A
/// worker whose report goes unanswered through params.reply_max_retries
/// retransmissions fails its own rank through the transport's crash path,
/// so the master reaps it and reassigns its work like any other crash. A
/// lost terminate is re-sent by the master's shutdown drain in answer to
/// the next retransmit (drain_worker_traffic).
MasterReply await_reply(vmpi::Comm& comm, const ClusterParams& params,
                        std::uint64_t seq, const WorkerReport& report);

/// Master-side per-worker reply channel: stamps every reply with the seq of
/// the worker's last processed report, caches the encoded bytes, and
/// answers duplicate (retransmitted) reports by re-sending the cached reply
/// instead of letting the master fold the results twice.
class ReplyChannel {
 public:
  explicit ReplyChannel(int p) : last_seq_(p, 0), last_reply_(p) {}

  /// Was this report already processed? (seq 0 = unsequenced, never a dup.)
  bool is_duplicate(int worker, std::uint64_t seq) const {
    return seq != 0 && seq == last_seq_[worker];
  }
  void note_seq(int worker, std::uint64_t seq) { last_seq_[worker] = seq; }

  /// Stamp reply.seq, encode, cache, and send to `worker`.
  void send(vmpi::Comm& comm, int worker, MasterReply& reply);
  /// Re-send the cached reply (no-op if none was ever sent).
  void resend_cached(vmpi::Comm& comm, int worker);

 private:
  std::vector<std::uint64_t> last_seq_;
  std::vector<std::vector<std::uint8_t>> last_reply_;
};

/// Master-side shutdown drain: consume retransmitted reports that crossed
/// a terminate, and answer each one from a worker that is still running
/// and not reaped (`alive`) with its cached reply. That reply is the
/// terminate, and the report shows it was lost or is still on its way; the
/// worker cannot finish without it, and the master waits for every worker
/// to finish. The receive also matters for liveness under use_ssend — a
/// terminated worker can be parked inside a synchronous report send that
/// only completes when the message is consumed. Returns how many messages
/// were consumed; call it until every worker has exited so the final sweep
/// is complete.
int drain_worker_traffic(vmpi::Comm& comm, ReplyChannel& replies,
                         const std::vector<std::uint8_t>& alive);

}  // namespace pgasm::core
