// Communication/computation cost accounting for the virtual MPI runtime.
//
// The paper's experiments ran on up to 8192 BlueGene/L nodes. This repo runs
// all "ranks" on one node (threads by default, forked processes over shared
// memory with --transport=proc), so raw wall-clock cannot show parallel
// scaling. Instead every rank keeps a ledger:
//
//   * compute seconds  — charged from the thread CPU clock around the rank's
//     real computation (so time-slicing threads don't inflate each other),
//   * communication    — charged per message with an alpha-beta (latency +
//     bytes/bandwidth) model, on both sender and receiver.
//
// "Modeled parallel time" of a phase = max over ranks of (compute + comm).
// The alpha/beta defaults are calibrated from tools/transport_probe
// ping-pong / streaming-bandwidth measurements of the default (thread)
// transport on a dev-class node; CostParams::calibrated() exposes the
// measured numbers for both transports, and each Runtime can override them
// so benches can explore sensitivity (e.g. model BlueGene/L-class links).
#pragma once

#include <cstdint>
#include <vector>

namespace pgasm::vmpi {

enum class TransportKind;  // transport.hpp

struct CostParams {
  // Calibrated via tools/transport_probe on the in-process (thread)
  // transport: ~2.6 us one-way small-message latency (mailbox mutex+cv
  // handoff), ~30 GB/s effective per-link streaming bandwidth (memcpy
  // through the mailbox, both sides charged). See DESIGN.md §14 for the
  // method.
  double alpha = 2.6e-6;      ///< per-message latency, seconds
  double beta = 1.0 / 30e9;   ///< per-byte cost, seconds

  /// Measured alpha-beta of one of our real transports (thread mailboxes or
  /// forked processes over shm rings), from tools/transport_probe. Defined
  /// in cost_model.cpp next to the numbers' provenance.
  static CostParams calibrated(TransportKind kind) noexcept;
};

/// Per-rank accounting. Owned by the rank's thread; merged after a run.
struct RankLedger {
  std::uint64_t msgs_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t msgs_recv = 0;
  std::uint64_t bytes_recv = 0;
  double compute_seconds = 0;
  double comm_seconds = 0;  ///< modeled, from CostParams

  double busy_seconds() const noexcept { return compute_seconds + comm_seconds; }

  void charge_send(std::uint64_t bytes, const CostParams& cp) noexcept {
    ++msgs_sent;
    bytes_sent += bytes;
    comm_seconds += cp.alpha + static_cast<double>(bytes) * cp.beta;
  }
  void charge_recv(std::uint64_t bytes, const CostParams& cp) noexcept {
    ++msgs_recv;
    bytes_recv += bytes;
    comm_seconds += cp.alpha + static_cast<double>(bytes) * cp.beta;
  }
  void charge_compute(double seconds) noexcept { compute_seconds += seconds; }

  RankLedger& operator+=(const RankLedger& o) noexcept {
    msgs_sent += o.msgs_sent;
    bytes_sent += o.bytes_sent;
    msgs_recv += o.msgs_recv;
    bytes_recv += o.bytes_recv;
    compute_seconds += o.compute_seconds;
    comm_seconds += o.comm_seconds;
    return *this;
  }
};

/// Fault-injection and failure-handling counters for a run. All zeros for a
/// fault-free run with no timeout-carrying receives.
struct FaultStats {
  std::uint64_t crashes_injected = 0;   ///< ranks killed by a FaultPlan
  std::uint64_t messages_dropped = 0;   ///< user sends silently lost
  std::uint64_t messages_delayed = 0;   ///< user sends delivered late
  std::uint64_t sends_to_dead = 0;      ///< sends discarded (dest had failed)
  std::uint64_t timeouts_fired = 0;     ///< TimeoutError throws (recv/probe)
  std::uint64_t ranks_failed = 0;       ///< ranks marked dead during the run
};

/// Aggregate view over all ranks of a finished run.
struct RunCost {
  std::vector<RankLedger> per_rank;
  FaultStats faults;

  double modeled_parallel_seconds() const noexcept;
  double max_comm_seconds() const noexcept;
  std::uint64_t total_bytes() const noexcept;
  std::uint64_t total_msgs() const noexcept;
};

}  // namespace pgasm::vmpi
