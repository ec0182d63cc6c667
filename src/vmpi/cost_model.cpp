#include "vmpi/cost_model.hpp"

#include <algorithm>

#include "util/deterministic.hpp"
#include "vmpi/transport.hpp"

namespace pgasm::vmpi {

// Measured with `tools/transport_probe` on the dev container (see
// scripts/bench_baseline.sh; BENCH_transport_probe.json holds the raw
// points). alpha = half the median 8-byte ping-pong round trip, beta =
// 1 / the ping-pong slope at 1 MiB messages. The thread transport pays
// more per message (mailbox mutex + cv handoff vs. the proc rings'
// spin-polled consume) but streams faster (one vector move into the
// mailbox vs. chunked memcpys through a bounded shared ring).
CostParams CostParams::calibrated(TransportKind kind) noexcept {
  CostParams p;
  switch (kind) {
    case TransportKind::kThread:
      p.alpha = 2.6e-6;
      p.beta = 1.0 / 30e9;
      break;
    case TransportKind::kProc:
      p.alpha = 1.3e-6;
      p.beta = 1.0 / 5.3e9;
      break;
  }
  return p;
}

double RunCost::modeled_parallel_seconds() const noexcept {
  double best = 0;
  for (const auto& r : per_rank) best = std::max(best, r.busy_seconds());
  return best;
}

double RunCost::max_comm_seconds() const noexcept {
  double best = 0;
  for (const auto& r : per_rank) best = std::max(best, r.comm_seconds);
  return best;
}

std::uint64_t RunCost::total_bytes() const noexcept {
  std::uint64_t sum = 0;
  for (const auto& r : per_rank) sum += r.bytes_sent;
  return sum;
}

std::uint64_t RunCost::total_msgs() const noexcept {
  std::uint64_t sum = 0;
  for (const auto& r : per_rank) sum += r.msgs_sent;
  return sum;
}

double RunCost::avg_idle_fraction() const noexcept {
  if (per_rank.empty()) return 0;
  const double makespan = modeled_parallel_seconds();
  if (makespan <= 0) return 0;
  const double idle = util::ordered_reduce(per_rank, [&](const RankLedger& r) {
    return (makespan - r.busy_seconds()) / makespan;
  });
  return idle / static_cast<double>(per_rank.size());
}

}  // namespace pgasm::vmpi
