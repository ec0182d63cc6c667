#include "core/cluster_protocol.hpp"

#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace pgasm::core {

namespace {

// A corrupt peer payload is counted, traced, logged, and dropped — never
// decoded into garbage and never fatal. The retransmission machinery
// recovers the exchange: a dropped report solicits the worker's retransmit,
// a dropped reply is re-requested by the duplicate report. A worker whose
// replies keep failing to decode exhausts its retransmission cap and fails
// its rank.
void note_decode_error(int rank, const WireError& err) {
  obs::registry().counter("wire.decode_errors", rank).inc();
  obs::instant(rank, "decode_error", "cluster", "code",
               static_cast<std::uint64_t>(err.code), "offset", err.offset);
  util::log_warn() << "dropping undecodable payload: " << err.message();
}

}  // namespace

int drain_shutdown_messages(vmpi::Comm& comm) {
  int n = 0;
  vmpi::Status st;
  while (comm.iprobe(0, to_tag(MsgKind::kReply), &st)) {
    comm.recv(0, to_tag(MsgKind::kReply));
    ++n;
  }
  return n;
}

int drain_worker_traffic(vmpi::Comm& comm, ReplyChannel& replies,
                         const std::vector<std::uint8_t>& alive) {
  int n = 0;
  vmpi::Status st;
  while (comm.iprobe(vmpi::kAnySource, to_tag(MsgKind::kReport), &st)) {
    comm.recv(st.source, to_tag(MsgKind::kReport));
    if (alive[st.source] && !comm.rank_done(st.source))
      replies.resend_cached(comm, st.source);
    ++n;
  }
  return n;
}

WireResult<WorkerReport> recv_report(vmpi::Comm& comm, int source) {
  const auto raw = comm.recv(source, to_tag(MsgKind::kReport));
  auto scope = comm.compute_scope();
  auto decoded = try_decode_report(std::span<const std::byte>(raw));
  if (!decoded) note_decode_error(comm.rank(), decoded.error());
  return decoded;
}

bool consume_pending_terminate(vmpi::Comm& comm) {
  vmpi::Status qs;
  while (comm.iprobe(0, to_tag(MsgKind::kReply), &qs)) {
    const auto raw = comm.recv(0, to_tag(MsgKind::kReply));
    const auto reply = try_decode_reply(std::span<const std::byte>(raw));
    if (!reply) {
      note_decode_error(comm.rank(), reply.error());
      continue;
    }
    if (reply.value().terminate) return true;
  }
  return false;
}

void send_report(vmpi::Comm& comm, const ClusterParams& params,
                 const WorkerReport& report) {
  auto payload = encode_report_payload(report);
  if (params.use_ssend) {
    comm.ssend_payload(0, to_tag(MsgKind::kReport), std::move(payload));
  } else {
    comm.send_payload(0, to_tag(MsgKind::kReport), std::move(payload));
  }
}

MasterReply await_reply(vmpi::Comm& comm, const ClusterParams& params,
                        std::uint64_t seq, const WorkerReport& report) {
  util::WallTimer reply_wait;  // since the report was (re)sent
  bool parked = false;
  std::uint32_t retransmits = 0;
  for (;;) {
    if (comm.rank_failed(0))
      throw vmpi::TimeoutError("worker: master rank failed");
    if (reply_wait.elapsed() >= params.reply_timeout) {
      // Parked retransmits are uncapped keepalives: the park proved the
      // master received the report, and the duplicate solicits the cached
      // reply again in case the eventual dispatch was itself dropped. A
      // capped-out worker leaves as a crashed rank, not a run-wide abort:
      // the master sees rank_failed and reassigns its work.
      if (!parked && ++retransmits > params.reply_max_retries) {
        const std::string why = "worker: no reply from master after " +
                                std::to_string(params.reply_max_retries) +
                                " retransmits; failing this rank";
        util::log_warn() << why;
        comm.fail_self(why);
      }
      obs::instant(comm.rank(), "retransmit", "cluster", "seq", seq, "parked",
                   parked ? 1 : 0);
      send_report(comm, params, report);
      reply_wait.restart();
    }
    std::vector<std::byte> raw;
    try {
      raw = comm.recv_timeout(0, to_tag(MsgKind::kReply),
                              kLivenessSliceSeconds);
    } catch (const vmpi::TimeoutError&) {
      continue;  // slice expired; re-check the master and the reply timer
    }
    auto decoded = [&] {
      auto scope = comm.compute_scope();
      return try_decode_reply(std::span<const std::byte>(raw));
    }();
    if (!decoded) {
      // Drop it: reply_wait keeps running, so the reply_timeout path
      // retransmits the report and the master re-sends its cached reply.
      note_decode_error(comm.rank(), decoded.error());
      continue;
    }
    MasterReply reply = std::move(decoded).take_or_throw();
    if (reply.terminate) return reply;
    if (reply.seq != seq) continue;  // stale duplicate of an older reply
    if (reply.park) {
      // Report acknowledged, nothing to do yet: wait for the next dispatch
      // with keepalive (uncapped) retransmission only.
      parked = true;
      retransmits = 0;
      reply_wait.restart();
      continue;
    }
    return reply;
  }
}

void ReplyChannel::send(vmpi::Comm& comm, int worker, MasterReply& reply) {
  reply.seq = last_seq_[worker];
  auto bytes = encode_reply_payload(reply);
  // The cache keeps its own copy — a retransmitted report may need this
  // exact reply again after the payload below has been consumed.
  last_reply_[worker].assign(
      reinterpret_cast<const std::uint8_t*>(bytes.data()),
      reinterpret_cast<const std::uint8_t*>(bytes.data()) + bytes.size());
  comm.send_payload(worker, to_tag(MsgKind::kReply), std::move(bytes));
}

void ReplyChannel::resend_cached(vmpi::Comm& comm, int worker) {
  const auto& cached = last_reply_[worker];
  if (cached.empty()) return;
  comm.send(worker, to_tag(MsgKind::kReply), cached.data(), cached.size());
}

}  // namespace pgasm::core
