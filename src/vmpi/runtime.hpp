// Virtual MPI: a message-passing runtime with pluggable transports.
//
// The paper's framework is written against MPI on an IBM BlueGene/L. This
// substrate provides the same programming model — ranks, point-to-point
// send/recv with tags and wildcards, synchronous (Ssend) semantics, probes,
// and the collectives the algorithms need (barrier, bcast, reduce,
// allreduce, and the paper's customized staged Alltoallv with bounded
// buffers). Collectives are implemented on
// top of point-to-point messages with real communication algorithms
// (dissemination barrier, binomial bcast/reduce), so the cost ledger sees
// the same message pattern a real cluster would.
//
// Ranks run over a vmpi::Transport (transport.hpp): threads of one process
// sharing mutex+cv mailboxes (the default), or real forked OS processes
// exchanging messages over shared-memory rings ("proc"). The protocol
// semantics below are identical on both.
//
// Fault model: a Runtime can carry a deterministic FaultPlan that injects
// rank crashes, message drops, and message delays keyed on each rank's
// user-channel send index. A crashed rank dies silently (its thread exits —
// or its child process is SIGKILLed — without aborting the run); surviving
// ranks observe the failure only through the deadline-carrying
// recv_timeout/probe_timeout calls (which throw TimeoutError) or the
// rank_failed() failure-detector oracle.
// A rank whose body returns normally is marked *finished*: sends to it are
// discarded (synchronous sends complete instead of blocking on a receiver
// that will never consume), and receives from it fail fast once its queued
// messages are drained. Peers distinguish the two via rank_done().
// Faults apply to the user channel only — losing a collective-internal
// message cannot be recovered by any protocol built above it, so a rank
// death during a collective aborts the run instead.
//
// Usage:
//   vmpi::Runtime rt(8);                  // thread transport
//   vmpi::Runtime rt2(4, "proc");         // 4 forked processes
//   vmpi::RunCost cost = rt.run([&](vmpi::Comm& comm) {
//     if (comm.rank() == 0) comm.send_value(1, /*tag=*/7, 42);
//     else if (comm.rank() == 1) int v = comm.recv_value<int>(0, 7);
//     comm.barrier();
//   });
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "util/timer.hpp"
#include "vmpi/cost_model.hpp"
#include "vmpi/transport.hpp"

namespace pgasm::obs {
class Counter;
class Histogram;
class RankRing;
}  // namespace pgasm::obs

namespace pgasm::vmpi {

class ThreadTransport;

/// memcpy with the n == 0 case made well-defined: empty std::vector buffers
/// hand out data() == nullptr, and passing nullptr to memcpy is UB even for
/// zero-length copies (both pointer arguments are attribute-nonnull).
inline void copy_bytes(void* dst, const void* src, std::size_t n) {
  if (n != 0) std::memcpy(dst, src, n);
}

/// Result metadata of a receive or probe.
struct Status {
  int source = 0;
  int tag = 0;
  std::size_t bytes = 0;
};

/// Deterministic, seeded fault-injection plan. All rules key on a rank's
/// *user-channel* send index (1-based count of that rank's send/ssend
/// calls; collective-internal traffic is excluded so plans stay stable
/// against collective implementation details).
struct FaultPlan {
  struct Crash {
    int rank = -1;
    std::uint64_t at_send = 1;  ///< die in place of this send (and later)
  };
  struct Drop {
    int rank = -1;
    std::uint64_t at_send = 1;  ///< this send is silently lost
  };
  struct Delay {
    int rank = -1;
    std::uint64_t at_send = 1;  ///< this send is delivered late
    double seconds = 0;
  };
  std::vector<Crash> crashes;
  std::vector<Drop> drops;
  std::vector<Delay> delays;

  /// Probabilistic rules: each user send is independently dropped/delayed
  /// with the given probability, decided by a hash of (seed, rank, send
  /// index) — deterministic across runs with the same seed.
  std::uint64_t seed = 0;
  double drop_prob = 0;
  double delay_prob = 0;
  double delay_seconds = 0;  ///< applied by probabilistic delays

  bool enabled() const noexcept {
    return !crashes.empty() || !drops.empty() || !delays.empty() ||
           drop_prob > 0 || delay_prob > 0;
  }
};

/// One rank's endpoint. Created by Runtime::run on the rank's own thread
/// (or in the rank's own process on the proc transport); not thread-safe
/// across threads (like an MPI rank).
class Comm {
 public:
  /// Caches this rank's observability handles (tracer ring + per-rank
  /// message instruments) when obs is enabled at construction time.
  Comm(Transport& transport, const CostParams& cost, const FaultPlan& faults,
       int rank);

  Comm(const Comm&) = delete;
  Comm& operator=(const Comm&) = delete;

  int rank() const noexcept { return rank_; }
  int size() const noexcept { return transport_->num_ranks(); }

  // --- point-to-point (user channel) -----------------------------------

  /// Buffered send: copies toward the destination and returns.
  void send(int dest, int tag, const void* data, std::size_t n) {
    send_impl(dest, tag, data, n, /*internal=*/false, /*sync=*/false);
  }

  /// Synchronous send: returns only after the receiver has consumed the
  /// message (the paper uses MPI_Ssend to avoid master-side buffer
  /// overflow; we reproduce the semantics). Returns immediately if the
  /// destination rank has failed or finished (the message is charged and
  /// discarded — no one is left to consume it).
  void ssend(int dest, int tag, const void* data, std::size_t n) {
    send_impl(dest, tag, data, n, /*internal=*/false, /*sync=*/true);
  }

  /// Buffered send that MOVES an already-serialized payload toward the
  /// destination instead of copying it — the zero-copy half of the wire
  /// path on the thread transport (encode once, move into the mailbox,
  /// receiver takes the same buffer by move from recv()). On a
  /// dropped/dead-destination send the payload is destroyed, matching a
  /// lost message.
  void send_payload(int dest, int tag, std::vector<std::byte>&& payload) {
    send_payload_impl(dest, tag, std::move(payload), /*sync=*/false);
  }

  /// Synchronous variant of send_payload (ssend rendezvous semantics).
  void ssend_payload(int dest, int tag, std::vector<std::byte>&& payload) {
    send_payload_impl(dest, tag, std::move(payload), /*sync=*/true);
  }

  /// Blocking receive; wildcards kAnySource / kAnyTag allowed.
  std::vector<std::byte> recv(int source, int tag, Status* status = nullptr);

  /// Receive with a deadline: throws TimeoutError if no matching message
  /// arrives within timeout_s seconds, or immediately if `source` names a
  /// rank that has failed or finished and no matching message is queued.
  std::vector<std::byte> recv_timeout(int source, int tag, double timeout_s,
                                      Status* status = nullptr);

  /// Blocking probe: waits until a matching message is available.
  Status probe(int source, int tag);

  /// Probe with a deadline; TimeoutError semantics as recv_timeout.
  Status probe_timeout(int source, int tag, double timeout_s);

  /// Non-blocking probe.
  bool iprobe(int source, int tag, Status* status);

  /// Failure-detector oracle: has rank r died (injected crash or
  /// fail_self)? The clustering protocol takes it as the only evidence of a
  /// worker's death; a silent stall of a live rank is outside the FaultPlan
  /// model. Real deployments substitute an out-of-band detector.
  bool rank_failed(int r) const {
    return r >= 0 && r < size() && transport_->is_dead(r);
  }

  /// Has rank r's body returned normally? A finished rank sends nothing
  /// further, so anything it ever sent is already queued (or lost to
  /// injected drops); a peer still waiting on it can act on that instead of
  /// running out its silence timeout.
  bool rank_done(int r) const {
    return r >= 0 && r < size() && transport_->is_done(r);
  }

  /// End this rank the way an injected crash does (KilledError on threads,
  /// SIGKILL on processes): peers see rank_failed(rank()) and the run goes
  /// on without it. For a rank that has given up on its peers.
  [[noreturn]] void fail_self(const std::string& why) {
    transport_->crash_self(rank_, why);
    throw KilledError(why);  // unreachable; virtual calls lose [[noreturn]]
  }

  /// Which transport this rank is running over.
  TransportKind transport_kind() const noexcept { return transport_->kind(); }

  // --- result stash ------------------------------------------------------

  /// Ship a small result blob back to the driver: it lands in
  /// RunCost::stash[rank()][key] after the run. On the thread transport
  /// this is a plain copy; on the proc transport the bytes ride the rank's
  /// exit blob across the process boundary — which is the whole point:
  /// lambda-captured writes from a rank body are invisible to the driver
  /// once ranks are real processes, stashed bytes are not. Last put per key
  /// wins. Lost if the rank dies (crash) before finishing.
  void stash_put(std::uint32_t key, const void* data, std::size_t n) {
    auto& slot = stash_[key];
    slot.resize(n);
    copy_bytes(slot.data(), data, n);
  }

  template <typename T>
  void stash_value(std::uint32_t key, const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    stash_put(key, &v, sizeof(T));
  }

  const StashMap& stash() const noexcept { return stash_; }

  // --- typed convenience wrappers ---------------------------------------

  template <typename T>
  void send_value(int dest, int tag, const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    send(dest, tag, &v, sizeof(T));
  }

  template <typename T>
  T recv_value(int source, int tag, Status* status = nullptr) {
    static_assert(std::is_trivially_copyable_v<T>);
    Status st;
    auto bytes = recv(source, tag, &st);
    if (status) *status = st;
    return value_from_bytes<T>(bytes, st);
  }

  template <typename T>
  T recv_value_timeout(int source, int tag, double timeout_s,
                       Status* status = nullptr) {
    static_assert(std::is_trivially_copyable_v<T>);
    Status st;
    auto bytes = recv_timeout(source, tag, timeout_s, &st);
    if (status) *status = st;
    return value_from_bytes<T>(bytes, st);
  }

  template <typename T>
  void send_vector(int dest, int tag, const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    send(dest, tag, v.data(), v.size() * sizeof(T));
  }

  template <typename T>
  void ssend_vector(int dest, int tag, const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    ssend(dest, tag, v.data(), v.size() * sizeof(T));
  }

  template <typename T>
  std::vector<T> recv_vector(int source, int tag, Status* status = nullptr) {
    static_assert(std::is_trivially_copyable_v<T>);
    Status st;
    auto bytes = recv(source, tag, &st);
    if (status) *status = st;
    return vector_from_bytes<T>(bytes, st);
  }

  // --- collectives (must be called by all ranks, in the same order) -----

  void barrier();

  /// Broadcast raw bytes from root; non-root data is replaced.
  void bcast_bytes(std::vector<std::byte>& data, int root);

  template <typename T>
  void bcast_vector(std::vector<T>& v, int root) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::vector<std::byte> buf;
    if (rank_ == root) {
      buf.resize(v.size() * sizeof(T));
      copy_bytes(buf.data(), v.data(), buf.size());
    }
    bcast_bytes(buf, root);
    v.resize(buf.size() / sizeof(T));
    copy_bytes(v.data(), buf.data(), buf.size());
  }

  /// Elementwise reduction of equal-length vectors to root (binomial tree).
  /// Combine is a binary op applied elementwise: T(T, T).
  template <typename T, typename Combine>
  std::vector<T> reduce_vector(std::vector<T> local, int root, Combine comb);

  template <typename T, typename Combine>
  std::vector<T> allreduce_vector(std::vector<T> local, Combine comb) {
    auto r = reduce_vector(std::move(local), 0, comb);
    bcast_vector(r, 0);
    return r;
  }

  template <typename T>
  T allreduce_sum(T local) {
    auto v = allreduce_vector(std::vector<T>{local},
                              [](T a, T b) { return a + b; });
    return v[0];
  }

  template <typename T>
  T allreduce_max(T local) {
    auto v = allreduce_vector(std::vector<T>{local},
                              [](T a, T b) { return a > b ? a : b; });
    return v[0];
  }

  /// Personalized all-to-all, the paper's customized Alltoallv (Section 6):
  /// outgoing[d] goes to rank d; returns incoming[s] = what rank s sent to
  /// this rank. p-1 paired rounds, round r exchanging with ranks
  /// (rank+r) mod p / (rank-r) mod p, so at most one send and one receive
  /// buffer is in flight per rank at a time.
  template <typename T>
  std::vector<std::vector<T>> staged_alltoallv(
      const std::vector<std::vector<T>>& outgoing);

  // --- cost accounting ---------------------------------------------------

  RankLedger& ledger() noexcept { return ledger_; }
  const CostParams& cost_params() const noexcept { return *cost_; }

  /// Directly charge compute seconds (already scaled by the thread timer).
  void charge_compute(double seconds) noexcept {
    ledger_.charge_compute(seconds, *cost_);
  }

  /// RAII scope that charges the enclosed thread-CPU time as compute.
  class ComputeScope {
   public:
    explicit ComputeScope(Comm& comm) : comm_(comm) {}
    ~ComputeScope() { comm_.charge_compute(timer_.elapsed()); }
    ComputeScope(const ComputeScope&) = delete;
    ComputeScope& operator=(const ComputeScope&) = delete;

   private:
    Comm& comm_;
    util::ThreadCpuTimer timer_;
  };

  ComputeScope compute_scope() { return ComputeScope(*this); }

 private:
  friend class Runtime;

  void send_impl(int dest, std::int64_t tag, const void* data, std::size_t n,
                 bool internal, bool sync);
  void send_payload_impl(int dest, std::int64_t tag,
                         std::vector<std::byte>&& payload, bool sync);
  /// Shared send front half: dest/abort checks, fault injection, ledger and
  /// obs charges. Returns false when the message must not be handed to the
  /// transport (dropped, or the destination is dead/finished).
  bool send_preflight(int dest, std::size_t n, bool internal, bool sync);
  /// Shared send back half: hand the message to the transport and, for
  /// synchronous sends, span the rendezvous wait.
  void dispatch_message(int dest, detail::Message&& msg, bool sync);
  /// deadline == nullptr blocks forever (throws AbortError on abort or on a
  /// specific failed source); with a deadline it throws TimeoutError.
  std::vector<std::byte> recv_impl(
      int source, std::int64_t tag, bool internal, Status* status,
      const std::chrono::steady_clock::time_point* deadline = nullptr);
  Status probe_impl(int source, int tag,
                    const std::chrono::steady_clock::time_point* deadline);

  /// Apply the runtime's FaultPlan to this rank's next user send. Returns
  /// true if the message must be dropped; a crash rule hands control to
  /// Transport::crash_self (KilledError on threads, SIGKILL on processes).
  bool apply_faults();

  template <typename T>
  T value_from_bytes(const std::vector<std::byte>& bytes, const Status& st) {
    if (bytes.size() != sizeof(T)) {
      throw std::runtime_error(
          "recv_value: size mismatch from rank " + std::to_string(st.source) +
          " tag " + std::to_string(st.tag) + ": expected " +
          std::to_string(sizeof(T)) + " bytes, got " +
          std::to_string(bytes.size()));
    }
    T v;
    std::memcpy(&v, bytes.data(), sizeof(T));
    return v;
  }

  template <typename T>
  std::vector<T> vector_from_bytes(const std::vector<std::byte>& bytes,
                                   const Status& st) {
    if (bytes.size() % sizeof(T) != 0) {
      throw std::runtime_error(
          "recv_vector: size mismatch from rank " + std::to_string(st.source) +
          " tag " + std::to_string(st.tag) + ": got " +
          std::to_string(bytes.size()) + " bytes, not a multiple of element size " +
          std::to_string(sizeof(T)));
    }
    std::vector<T> v(bytes.size() / sizeof(T));
    copy_bytes(v.data(), bytes.data(), bytes.size());
    return v;
  }

  /// Next internal tag for a collective operation. All ranks execute
  /// collectives in the same order, so sequence numbers agree globally.
  std::int64_t next_collective_tag() noexcept {
    return (std::int64_t{1} << 32) + (collective_seq_++ << 8);
  }

  Transport* transport_;
  const CostParams* cost_;
  const FaultPlan* faults_;
  int rank_;
  std::int64_t collective_seq_ = 0;
  std::uint64_t user_send_seq_ = 0;  ///< 1-based index of user-channel sends
  RankLedger ledger_;
  StashMap stash_;  ///< collected into RunCost::stash after the run

  // Observability handles, cached once at construction so hot paths pay a
  // single null check when tracing is off (all null then). The ring mutex
  // is a leaf lock: recording is safe while a mailbox mutex is held.
  obs::RankRing* obs_ring_ = nullptr;
  obs::Histogram* obs_send_bytes_ = nullptr;
  obs::Histogram* obs_recv_bytes_ = nullptr;
  obs::Histogram* obs_wait_us_ = nullptr;
  obs::Counter* obs_timeouts_ = nullptr;
};

/// Owns the transport and runs SPMD bodies across ranks.
class Runtime {
 public:
  /// Thread transport (the default; behavior-identical to the pre-transport
  /// runtime, and what every existing call site gets).
  explicit Runtime(int num_ranks, CostParams cost = {}, FaultPlan faults = {});

  /// Transport selected by name: "thread", "proc", or "" to defer to the
  /// PGASM_TRANSPORT environment variable (falling back to "thread").
  Runtime(int num_ranks, const std::string& transport, CostParams cost = {},
          FaultPlan faults = {});

  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  int size() const noexcept { return num_ranks_; }
  TransportKind transport() const noexcept { return kind_; }

  /// Proc transport only: capacity in bytes of each per-ordered-rank-pair
  /// shared-memory ring (default 256 KiB). Messages larger than a ring
  /// stream through it in chunks; tests shrink this to exercise that path.
  void set_proc_ring_bytes(std::size_t bytes) noexcept {
    proc_ring_bytes_ = bytes;
  }

  /// Run `body(comm)` on every rank; joins all ranks; returns the merged
  /// cost ledgers. Rethrows the first rank exception (after aborting all).
  /// A rank that dies of an injected crash (KilledError / SIGKILL) does NOT
  /// abort the run: the survivors keep running and the ledger records the
  /// failure.
  RunCost run(const std::function<void(Comm&)>& body);

 private:
  RunCost run_threads(const std::function<void(Comm&)>& body);
  /// Defined in proc_transport.cpp: forks one child per non-zero rank (rank
  /// 0 runs on the caller's thread so driver-visible state it mutates
  /// survives), monitors children, merges ledgers/stash/obs blobs.
  RunCost run_proc(const std::function<void(Comm&)>& body);
  /// Publish the run's ledgers + fault stats into the metrics registry.
  void publish_cost(const RunCost& cost) const;

  int num_ranks_;
  TransportKind kind_;
  CostParams cost_;
  FaultPlan faults_;
  std::size_t proc_ring_bytes_ = std::size_t{1} << 18;
  std::unique_ptr<ThreadTransport> thread_transport_;  ///< null for kProc
};

// --- template implementations ---------------------------------------------

template <typename T, typename Combine>
std::vector<T> Comm::reduce_vector(std::vector<T> local, int root,
                                   Combine comb) {
  static_assert(std::is_trivially_copyable_v<T>);
  const int p = size();
  const std::int64_t base_tag = next_collective_tag();
  // Binomial tree on virtual ranks vr = (rank - root + p) % p; vr 0 is root.
  const int vr = (rank_ - root + p) % p;
  int mask = 1;
  while (mask < p) {
    if ((vr & mask) != 0) {
      // Send accumulated value to parent and exit.
      const int parent = ((vr - mask) + root) % p;
      send_impl(parent, base_tag, local.data(), local.size() * sizeof(T),
                /*internal=*/true, /*sync=*/false);
      return {};
    }
    const int child_vr = vr + mask;
    if (child_vr < p) {
      const int child = (child_vr + root) % p;
      Status st;
      auto bytes = recv_impl(child, base_tag, /*internal=*/true, &st);
      std::vector<T> other(bytes.size() / sizeof(T));
      copy_bytes(other.data(), bytes.data(), bytes.size());
      if (other.size() != local.size())
        throw std::runtime_error("reduce_vector length mismatch");
      for (std::size_t i = 0; i < local.size(); ++i)
        local[i] = comb(local[i], other[i]);
    }
    mask <<= 1;
  }
  return local;  // root
}

template <typename T>
std::vector<std::vector<T>> Comm::staged_alltoallv(
    const std::vector<std::vector<T>>& outgoing) {
  static_assert(std::is_trivially_copyable_v<T>);
  const int p = size();
  if (static_cast<int>(outgoing.size()) != p)
    throw std::runtime_error("staged_alltoallv: outgoing.size() != p");
  const std::int64_t base_tag = next_collective_tag();
  std::vector<std::vector<T>> incoming(static_cast<std::size_t>(p));
  incoming[rank_] = outgoing[rank_];
  for (int round = 1; round < p; ++round) {
    const int to = (rank_ + round) % p;
    const int from = (rank_ - round + p) % p;
    const std::int64_t tag = base_tag + round;
    send_impl(to, tag, outgoing[to].data(), outgoing[to].size() * sizeof(T),
              /*internal=*/true, /*sync=*/false);
    auto bytes = recv_impl(from, tag, /*internal=*/true, nullptr);
    incoming[from].resize(bytes.size() / sizeof(T));
    copy_bytes(incoming[from].data(), bytes.data(), bytes.size());
  }
  return incoming;
}

}  // namespace pgasm::vmpi
