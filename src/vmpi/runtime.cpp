#include "vmpi/runtime.hpp"

#include <thread>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"
#include "util/prng.hpp"
#include "vmpi/thread_transport.hpp"
#include "vmpi/wait_scope.hpp"

namespace pgasm::vmpi {

namespace {

/// Uniform [0,1) hash of (seed, rank, send index) for probabilistic faults.
double fault_uniform(std::uint64_t seed, int rank, std::uint64_t idx,
                     std::uint64_t salt) {
  std::uint64_t state = seed ^ (0x9e3779b97f4a7c15ULL * (idx + 1)) ^
                        (0xbf58476d1ce4e5b9ULL * static_cast<std::uint64_t>(rank + 1)) ^
                        salt;
  const std::uint64_t h = util::splitmix64(state);
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

std::string rank_gone_msg(const char* what, int source, bool failed) {
  return std::string(what) + ": rank " + std::to_string(source) +
         (failed ? " failed" : " finished");
}

}  // namespace

namespace detail {

void ring_instant(obs::RankRing* ring, int rank, const char* name,
                  const char* arg0_name, std::uint64_t arg0,
                  const char* arg1_name, std::uint64_t arg1,
                  const char* arg2_name, std::uint64_t arg2) {
  obs::TraceEvent ev;
  ev.name = name;
  ev.cat = "vmpi";
  ev.kind = obs::TraceEvent::Kind::kInstant;
  ev.rank = rank;
  ev.ts_us = obs::tracer().now_us();
  ev.arg0_name = arg0_name;
  ev.arg0 = arg0;
  ev.arg1_name = arg1_name;
  ev.arg1 = arg1;
  ev.arg2_name = arg2_name;
  ev.arg2 = arg2;
  ring->record(ev);
}

}  // namespace detail

using detail::ring_instant;
using detail::WaitScope;

Comm::Comm(Transport& transport, const CostParams& cost,
           const FaultPlan& faults, int rank)
    : transport_(&transport), cost_(&cost), faults_(&faults), rank_(rank) {
  if (obs::tracer().enabled()) {
    obs_ring_ = obs::tracer().ring(rank);
    auto& reg = obs::registry();
    const char* phase = obs::current_phase();
    obs_send_bytes_ = &reg.histogram("vmpi.send_bytes", rank, phase);
    obs_recv_bytes_ = &reg.histogram("vmpi.recv_bytes", rank, phase);
    obs_wait_us_ = &reg.histogram("comm.wait_us", rank, phase);
    obs_timeouts_ = &reg.counter("vmpi.timeouts", rank, phase);
    // The rank's first event in this run: before it the rank does not
    // exist, and the trace analyzer hands the critical path to the driver.
    ring_instant(obs_ring_, rank, "run_start");
  }
}

bool Comm::apply_faults() {
  const FaultPlan& fp = *faults_;
  const std::uint64_t idx = ++user_send_seq_;
  if (!fp.enabled()) return false;

  for (const auto& c : fp.crashes) {
    if (c.rank == rank_ && idx >= c.at_send) {
      transport_->counters().crashes_injected.fetch_add(
          1, std::memory_order_relaxed);
      if (obs_ring_ != nullptr) {
        ring_instant(obs_ring_, rank_, "fault_crash", "send_idx", idx);
      }
      // The transport decides what dying means: KilledError unwinds the
      // rank thread; the proc transport SIGKILLs the calling process (a
      // real kill — no stack unwinding, no blob flush, exactly what a
      // machine failure looks like to the surviving ranks).
      transport_->crash_self(
          rank_, "fault injection: rank " + std::to_string(rank_) +
                     " killed at user send " + std::to_string(idx));
    }
  }
  bool drop = false;
  double delay_s = 0;
  for (const auto& d : fp.drops) {
    if (d.rank == rank_ && d.at_send == idx) drop = true;
  }
  for (const auto& d : fp.delays) {
    if (d.rank == rank_ && d.at_send == idx) delay_s = d.seconds;
  }
  if (!drop && fp.drop_prob > 0 &&
      fault_uniform(fp.seed, rank_, idx, /*salt=*/0x1) < fp.drop_prob) {
    drop = true;
  }
  if (delay_s <= 0 && fp.delay_prob > 0 &&
      fault_uniform(fp.seed, rank_, idx, /*salt=*/0x2) < fp.delay_prob) {
    delay_s = fp.delay_seconds;
  }
  if (delay_s > 0) {
    transport_->counters().messages_delayed.fetch_add(
        1, std::memory_order_relaxed);
    if (obs_ring_ != nullptr) {
      ring_instant(obs_ring_, rank_, "fault_delay", "send_idx", idx,
                   "delay_us",
                   static_cast<std::uint64_t>(delay_s * 1e6));
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(delay_s));
  }
  if (drop) {
    transport_->counters().messages_dropped.fetch_add(
        1, std::memory_order_relaxed);
    if (obs_ring_ != nullptr) {
      ring_instant(obs_ring_, rank_, "fault_drop", "send_idx", idx);
    }
  }
  return drop;
}

bool Comm::send_preflight(int dest, std::size_t n, bool internal, bool sync) {
  if (dest < 0 || dest >= size()) throw std::runtime_error("send: bad dest");
  if (transport_->is_aborted()) throw AbortError("vmpi aborted");

  // Fault injection applies to the user channel only: a dropped or crashed
  // collective-internal message is unrecoverable by construction, whereas
  // user-level protocols are expected to tolerate these faults.
  bool drop = false;
  if (!internal) drop = apply_faults();

  // The send is charged even when the message is lost or the destination is
  // dead — the sender did the work of sending it.
  ledger_.charge_send(n, *cost_);
  if (!internal && obs_ring_ != nullptr) {
    obs_send_bytes_->observe(n);
    // mseq = this rank's user send index (just assigned by apply_faults):
    // (rank, mseq) names this message; the matching recv records the same
    // pair, which is what analyze and the Chrome flow arrows stitch on.
    // Recorded even for dropped/dead-destination sends so the analyzer can
    // report them as unmatched edges.
    ring_instant(obs_ring_, rank_, sync ? "ssend" : "send", "peer",
                 static_cast<std::uint64_t>(dest), "bytes", n, "mseq",
                 user_send_seq_);
  }
  if (drop) return false;
  if (transport_->is_dead(dest)) {
    transport_->counters().sends_to_dead.fetch_add(
        1, std::memory_order_relaxed);
    return false;  // synchronous sends complete immediately: no consumer
  }
  if (transport_->is_done(dest)) {
    return false;  // receiver finished its body: discard, never block
  }
  return true;
}

void Comm::dispatch_message(int dest, detail::Message&& msg, bool sync) {
  if (!sync) {
    transport_->deliver(rank_, dest, std::move(msg), /*sync=*/false);
    return;
  }
  // The rendezvous wait is the synchronous sender's blocked time: span it
  // so the ledger charges it as comm wait, not compute. The transport owns
  // the actual blocking (mailbox cv on threads, shm ack-slot poll on
  // processes) and the post-enqueue liveness accounting.
  WaitScope wait_sp(obs_ring_, obs_wait_us_, rank_, "ssend_wait");
  wait_sp.arg("peer", static_cast<std::uint64_t>(dest));
  wait_sp.arg("mseq", msg.send_idx);
  transport_->deliver(rank_, dest, std::move(msg), /*sync=*/true);
}

void Comm::send_impl(int dest, std::int64_t tag, const void* data,
                     std::size_t n, bool internal, bool sync) {
  if (!send_preflight(dest, n, internal, sync)) return;

  detail::Message msg;
  msg.source = rank_;
  msg.tag = tag;
  msg.internal = internal;
  msg.send_idx = internal ? 0 : user_send_seq_;
  msg.payload.resize(n);
  if (n > 0) std::memcpy(msg.payload.data(), data, n);
  dispatch_message(dest, std::move(msg), sync);
}

void Comm::send_payload_impl(int dest, std::int64_t tag,
                             std::vector<std::byte>&& payload, bool sync) {
  if (!send_preflight(dest, payload.size(), /*internal=*/false, sync)) return;

  detail::Message msg;
  msg.source = rank_;
  msg.tag = tag;
  msg.internal = false;
  msg.send_idx = user_send_seq_;
  msg.payload = std::move(payload);
  dispatch_message(dest, std::move(msg), sync);
}

std::vector<std::byte> Comm::recv_impl(
    int source, std::int64_t tag, bool internal, Status* status,
    const std::chrono::steady_clock::time_point* deadline) {
  // Span the whole wait (user channel only): ts is the moment this rank
  // started waiting, the end is when the message was consumed (or the wait
  // timed out — the destructor records the span on the throw paths too).
  WaitScope wait_sp(internal ? nullptr : obs_ring_, obs_wait_us_, rank_,
                    "recv");
  detail::Message msg;
  const Transport::Wait got =
      transport_->recv(rank_, source, tag, internal, deadline, &msg);
  switch (got) {
    case Transport::Wait::kMessage: {
      ledger_.charge_recv(msg.payload.size(), *cost_);
      if (!internal && obs_ring_ != nullptr) {
        obs_recv_bytes_->observe(msg.payload.size());
        wait_sp.arg("peer", static_cast<std::uint64_t>(msg.source));
        wait_sp.arg("bytes", msg.payload.size());
        wait_sp.arg("mseq", msg.send_idx);
      }
      wait_sp.finish();
      if (status) {
        status->source = msg.source;
        status->tag = static_cast<int>(msg.tag);
        status->bytes = msg.payload.size();
      }
      return std::move(msg.payload);
    }
    case Transport::Wait::kPeerGone: {
      // A specific failed or finished source can never deliver: the
      // transport failed fast instead of blocking until the deadline
      // (forever).
      const bool failed = transport_->is_dead(source);
      if (deadline) {
        transport_->counters().timeouts_fired.fetch_add(
            1, std::memory_order_relaxed);
        if (obs_ring_ != nullptr) {
          obs_timeouts_->inc();
          ring_instant(obs_ring_, rank_, "recv_timeout", "peer",
                       static_cast<std::uint64_t>(source), "peer_gone", 1);
        }
        throw TimeoutError(rank_gone_msg("recv", source, failed));
      }
      throw AbortError(rank_gone_msg("recv", source, failed));
    }
    case Transport::Wait::kTimeout:
      break;
  }
  transport_->counters().timeouts_fired.fetch_add(1, std::memory_order_relaxed);
  if (obs_ring_ != nullptr) {
    obs_timeouts_->inc();
    ring_instant(obs_ring_, rank_, "recv_timeout", "peer",
                 static_cast<std::uint64_t>(source));
  }
  throw TimeoutError("recv: timeout (source " + std::to_string(source) +
                     ", tag " + std::to_string(tag) + ")");
}

std::vector<std::byte> Comm::recv(int source, int tag, Status* status) {
  return recv_impl(source, tag, /*internal=*/false, status);
}

std::vector<std::byte> Comm::recv_timeout(int source, int tag,
                                          double timeout_s, Status* status) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(timeout_s));
  return recv_impl(source, tag, /*internal=*/false, status, &deadline);
}

Status Comm::probe_impl(int source, int tag,
                        const std::chrono::steady_clock::time_point* deadline) {
  WaitScope wait_sp(obs_ring_, obs_wait_us_, rank_, "probe");
  ProbeResult pr;
  const Transport::Wait got =
      transport_->probe(rank_, source, tag, deadline, &pr);
  switch (got) {
    case Transport::Wait::kMessage: {
      // The probed message stays queued; stamping its (peer, mseq) lets
      // the analyzer jump probe waits to the sender like recv waits.
      wait_sp.arg("peer", static_cast<std::uint64_t>(pr.source));
      wait_sp.arg("bytes", pr.bytes);
      wait_sp.arg("mseq", pr.send_idx);
      wait_sp.finish();
      return Status{pr.source, static_cast<int>(pr.tag), pr.bytes};
    }
    case Transport::Wait::kPeerGone: {
      const bool failed = transport_->is_dead(source);
      if (deadline) {
        transport_->counters().timeouts_fired.fetch_add(
            1, std::memory_order_relaxed);
        if (obs_ring_ != nullptr) {
          obs_timeouts_->inc();
          ring_instant(obs_ring_, rank_, "probe_timeout", "peer",
                       static_cast<std::uint64_t>(source), "peer_gone", 1);
        }
        throw TimeoutError(rank_gone_msg("probe", source, failed));
      }
      throw AbortError(rank_gone_msg("probe", source, failed));
    }
    case Transport::Wait::kTimeout:
      break;
  }
  transport_->counters().timeouts_fired.fetch_add(1, std::memory_order_relaxed);
  if (obs_ring_ != nullptr) {
    obs_timeouts_->inc();
    ring_instant(obs_ring_, rank_, "probe_timeout", "peer",
                 static_cast<std::uint64_t>(source));
  }
  throw TimeoutError("probe: timeout (source " + std::to_string(source) +
                     ", tag " + std::to_string(tag) + ")");
}

Status Comm::probe(int source, int tag) {
  return probe_impl(source, tag, nullptr);
}

Status Comm::probe_timeout(int source, int tag, double timeout_s) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(timeout_s));
  return probe_impl(source, tag, &deadline);
}

bool Comm::iprobe(int source, int tag, Status* status) {
  ProbeResult pr;
  if (!transport_->iprobe(rank_, source, tag, &pr)) return false;
  if (status) {
    status->source = pr.source;
    status->tag = static_cast<int>(pr.tag);
    status->bytes = pr.bytes;
  }
  return true;
}

void Comm::barrier() {
  // A barrier is pure wait from the ledger's point of view: the token
  // exchange itself is microseconds, the span is dominated by waiting for
  // the slowest rank to arrive.
  WaitScope sp(obs_ring_, obs_wait_us_, rank_, "barrier");
  // Dissemination barrier: ceil(log2 p) rounds, in round k exchange a token
  // with the ranks at distance 2^k.
  const int p = size();
  const std::int64_t base_tag = next_collective_tag();
  char token = 1;
  int round = 0;
  for (int k = 1; k < p; k <<= 1, ++round) {
    const int to = (rank_ + k) % p;
    const int from = (rank_ - k + p) % p;
    send_impl(to, base_tag + round, &token, 1, /*internal=*/true,
              /*sync=*/false);
    (void)recv_impl(from, base_tag + round, /*internal=*/true, nullptr);
  }
}

void Comm::bcast_bytes(std::vector<std::byte>& data, int root) {
  // Binomial tree broadcast on virtual ranks.
  const int p = size();
  const std::int64_t base_tag = next_collective_tag();
  const int vr = (rank_ - root + p) % p;
  int mask = 1;
  while (mask < p) {
    if ((vr & mask) != 0) {
      const int parent = ((vr - mask) + root) % p;
      data = recv_impl(parent, base_tag, /*internal=*/true, nullptr);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (vr + mask < p && (vr & (mask - 1)) == 0 && (vr & mask) == 0) {
      const int child = ((vr + mask) + root) % p;
      send_impl(child, base_tag, data.data(), data.size(), /*internal=*/true,
                /*sync=*/false);
    }
    mask >>= 1;
  }
}

Runtime::Runtime(int num_ranks, CostParams cost, FaultPlan faults)
    : num_ranks_(num_ranks),
      kind_(TransportKind::kThread),
      cost_(cost),
      faults_(std::move(faults)),
      thread_transport_(std::make_unique<ThreadTransport>(num_ranks)) {
  if (num_ranks < 1) throw std::runtime_error("Runtime: num_ranks < 1");
}

Runtime::Runtime(int num_ranks, const std::string& transport, CostParams cost,
                 FaultPlan faults)
    : num_ranks_(num_ranks),
      kind_(resolve_transport(transport)),
      cost_(cost),
      faults_(std::move(faults)) {
  if (num_ranks < 1) throw std::runtime_error("Runtime: num_ranks < 1");
  if (kind_ == TransportKind::kThread) {
    thread_transport_ = std::make_unique<ThreadTransport>(num_ranks);
  }
}

Runtime::~Runtime() = default;

RunCost Runtime::run(const std::function<void(Comm&)>& body) {
  return kind_ == TransportKind::kProc ? run_proc(body) : run_threads(body);
}

RunCost Runtime::run_threads(const std::function<void(Comm&)>& body) {
  const int p = num_ranks_;
  ThreadTransport& tp = *thread_transport_;
  tp.reset();  // fresh state per run: queues, abort/dead flags, counters

  // The caller's thread blocks here until every rank thread finishes; span
  // that as a "join" wait so the analyzer can hand the critical path from
  // the driver to the slowest rank instead of dead-ending on the driver.
  WaitScope join_sp(
      obs::tracer().enabled() ? obs::tracer().ring(obs::kDriverTid) : nullptr,
      obs::tracer().enabled()
          ? &obs::registry().histogram("comm.wait_us", obs::kDriverTid,
                                       obs::current_phase())
          : nullptr,
      obs::kDriverTid, "join");
  join_sp.arg("ranks", static_cast<std::uint64_t>(p));

  RunCost cost;
  cost.per_rank.resize(static_cast<std::size_t>(p));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(p));
  util::Mutex error_mu;
  std::exception_ptr first_error;  // written once under error_mu

  for (int r = 0; r < p; ++r) {
    threads.emplace_back([&, r]() {
      util::set_log_rank(r);
      Comm comm(tp, cost_, faults_, r);
      try {
        body(comm);
        // Normal return: complete any synchronous sends still rendezvoused
        // on this rank's mailbox so no peer hangs on a message this rank
        // will never consume.
        tp.mark_done(r);
      } catch (const KilledError&) {
        // Injected crash: this rank dies quietly. Survivors observe the
        // failure via timeouts / rank_failed, not a run-wide abort.
        tp.mark_dead(r);
      } catch (...) {
        {
          util::MutexLock lock(error_mu);
          if (!first_error) first_error = std::current_exception();
        }
        tp.abort_all();
      }
      cost.per_rank[static_cast<std::size_t>(r)] = comm.ledger();
    });
  }
  for (auto& t : threads) t.join();
  join_sp.finish();
  cost.faults = tp.counters().snapshot();

  publish_cost(cost);

  if (first_error) {
    try {
      std::rethrow_exception(first_error);
    } catch (const AbortError&) {
      // A secondary abort got recorded first; report generically.
      throw std::runtime_error("vmpi run aborted");
    }
  }
  return cost;
}

// Publish the run's cost ledgers into the metrics registry so the ad-hoc
// RunCost/FaultStats structs and the obs export agree by construction.
void Runtime::publish_cost(const RunCost& cost) const {
  if (!obs::tracer().enabled()) return;
  auto& reg = obs::registry();
  const char* phase = obs::current_phase();
  for (int r = 0; r < num_ranks_; ++r) {
    const RankLedger& l = cost.per_rank[static_cast<std::size_t>(r)];
    reg.counter("vmpi.msgs_sent", r, phase).inc(l.msgs_sent);
    reg.counter("vmpi.bytes_sent", r, phase).inc(l.bytes_sent);
    reg.counter("vmpi.msgs_recv", r, phase).inc(l.msgs_recv);
    reg.counter("vmpi.bytes_recv", r, phase).inc(l.bytes_recv);
    reg.gauge("vmpi.compute_seconds", r, phase).add(l.compute_seconds);
    reg.gauge("vmpi.comm_seconds", r, phase).add(l.comm_seconds);
  }
  const FaultStats& fs = cost.faults;
  reg.counter("vmpi.faults.crashes_injected", obs::kNoRank, phase)
      .inc(fs.crashes_injected);
  reg.counter("vmpi.faults.messages_dropped", obs::kNoRank, phase)
      .inc(fs.messages_dropped);
  reg.counter("vmpi.faults.messages_delayed", obs::kNoRank, phase)
      .inc(fs.messages_delayed);
  reg.counter("vmpi.faults.sends_to_dead", obs::kNoRank, phase)
      .inc(fs.sends_to_dead);
  reg.counter("vmpi.faults.timeouts_fired", obs::kNoRank, phase)
      .inc(fs.timeouts_fired);
  reg.counter("vmpi.faults.ranks_failed", obs::kNoRank, phase)
      .inc(fs.ranks_failed);
}

}  // namespace pgasm::vmpi
