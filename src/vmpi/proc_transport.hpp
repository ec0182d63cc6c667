// The multi-process vmpi transport: ranks are real forked OS processes
// exchanging messages over shared-memory SPSC rings (shm_ring.hpp), one
// ring per ordered rank pair. Rank 0 runs on the parent's calling thread —
// driver-visible state its body mutates (scheduler bookkeeping, result
// collection) must survive the run, and only rank 0's mutations are read
// by drivers. Ranks 1..p-1 fork; each child ships its cost ledger,
// metric deltas and trace events back in a per-rank exit blob that the
// parent merges after reaping.
//
// Crash semantics are the transport's reason to exist: an injected crash
// SIGKILLs the child for real — no unwinding, no flushing — so the
// survivors experience an actual machine-style failure (silent stop,
// detected by the parent's reaper and published through the shared dead
// flags). The blocking waits are polling loops over the shared flags and
// rings (~spin then short naps); while blocked on a full outbound ring or
// a synchronous-send ack, a rank keeps draining its own inbound rings so
// bounded ring capacity cannot introduce deadlocks the unbounded thread
// mailboxes do not have.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "vmpi/shm_ring.hpp"
#include "vmpi/transport.hpp"

namespace pgasm::vmpi {

class ProcTransport final : public Transport {
 public:
  /// Maps the shared region and lays out control/flags/acks/rings. Must be
  /// constructed before forking; every rank process then shares it.
  explicit ProcTransport(int num_ranks);
  ~ProcTransport() override;

  ProcTransport(const ProcTransport&) = delete;
  ProcTransport& operator=(const ProcTransport&) = delete;

  TransportKind kind() const noexcept override { return TransportKind::kProc; }
  int num_ranks() const noexcept override { return num_ranks_; }

  bool is_dead(int rank) const noexcept override {
    return dead_[rank].v.load(std::memory_order_acquire) != 0;
  }
  bool is_done(int rank) const noexcept override {
    return done_[rank].v.load(std::memory_order_acquire) != 0;
  }
  bool is_aborted() const noexcept override {
    return control_->aborted.load(std::memory_order_acquire) != 0;
  }

  void mark_dead(int rank) override;
  void mark_done(int rank) override;
  void abort_all() override;
  /// CAS this rank in as the run's first erroring rank; true if it won.
  bool claim_first_error(int rank) noexcept;
  int first_error_rank() const noexcept {
    return control_->first_error_rank.load(std::memory_order_acquire);
  }
  detail::FaultCounters& counters() noexcept override {
    return control_->counters;
  }

  void deliver(int self, int dest, detail::Message&& msg, bool sync) override;
  Wait recv(int self, int source, std::int64_t tag, bool internal,
            const std::chrono::steady_clock::time_point* deadline,
            detail::Message* out) override;
  Wait probe(int self, int source, std::int64_t tag,
             const std::chrono::steady_clock::time_point* deadline,
             ProbeResult* out) override;
  bool iprobe(int self, int source, std::int64_t tag,
              ProbeResult* out) override;
  /// SIGKILLs the calling child process. The parent-resident rank 0 falls
  /// back to KilledError (there is no separate process to kill without
  /// taking down the whole run).
  [[noreturn]] void crash_self(int self, const std::string& why) override;

 private:
  /// Mid-assembly state of one inbound ring: header bytes, then payload
  /// bytes, accumulated as they stream in. Local to this process.
  struct Assembly {
    bool in_payload = false;
    std::size_t have = 0;  ///< bytes of header or payload accumulated
    detail::FrameHdr hdr;
    std::vector<std::byte> payload;
  };

  detail::RingHdr* ring_hdr(int src, int dst) const noexcept;
  std::byte* ring_buf(int src, int dst) const noexcept;

  /// Copy every available byte out of self's inbound rings into pending_.
  /// Called from all blocking loops, which is what keeps peers' producers
  /// unblocked (see file comment).
  void drain_inbound(int self);
  /// Stream n bytes into the (self → dest) ring, blocking on ring space.
  /// Returns false when dest died or finished mid-stream (remaining bytes
  /// are abandoned — nothing will ever read that ring again); throws
  /// AbortError on abort.
  bool write_stream(int self, int dest, const void* data, std::size_t n);

  /// Capacity of each per-ordered-rank-pair ring; larger messages stream
  /// through it in chunks.
  static constexpr std::size_t kRingBytes = std::size_t{1} << 18;

  int num_ranks_;
  void* region_ = nullptr;
  std::size_t region_size_ = 0;
  // Carved views into the shared region (set once in the constructor).
  detail::ShmControl* control_ = nullptr;
  detail::ShmFlag* dead_ = nullptr;
  detail::ShmFlag* done_ = nullptr;
  detail::ShmAckSlot* acks_ = nullptr;  ///< [src * p + dst]
  std::byte* rings_ = nullptr;          ///< p*p × (RingHdr + ring_bytes)

  // Per-process local state. Each rank lives in its own process (rank 0 in
  // the parent), so although these members exist in every process's copy of
  // the object, each copy is only ever touched by its own rank.
  std::vector<Assembly> assembly_;         ///< per source rank
  std::deque<detail::Message> pending_;    ///< drained, not yet matched
};

}  // namespace pgasm::vmpi
