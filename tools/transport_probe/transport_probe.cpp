// transport_probe: measure the LogP-style α (per-message latency) and β
// (per-byte inverse bandwidth) of each vmpi transport on this machine, the
// numbers CostParams::calibrated() hard-codes and the ledger's modeled
// communication seconds are built from.
//
//   transport_probe                      # probe thread and proc
//   transport_probe --transport proc     # one backend only
//   transport_probe --iters 2000         # more round trips per size
//   transport_probe --out probe.json     # default BENCH_transport_probe.json
//
// Method: a 2-rank ping-pong. Rank 1 echoes every message; rank 0 times
// each round trip with steady_clock and keeps the median (round trips, not
// one-way: the clocks of two processes are not comparable, one clock timing
// a full echo is). α is half the median round trip at the smallest size
// (8 B — pure per-message overhead); β comes from the slope between the
// smallest and largest size, where the payload memcpys dominate:
//     β = (half_rtt(max) − half_rtt(min)) / (max_bytes − min_bytes)
// The median over many iterations suppresses scheduler noise; warmup
// iterations run first so page faults and lazy ring allocation (the proc
// transport's shared region is mapped lazily) are off the books.
//
// The BENCH_transport_probe.json points carry a "transport" string field,
// so perf_diff's config signature never compares thread numbers against
// proc numbers.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "util/flags.hpp"
#include "vmpi/runtime.hpp"

using namespace pgasm;

namespace {

struct SizePoint {
  std::size_t bytes = 0;
  double half_rtt_s = 0;  ///< median one-way time (half the median RTT)
};

struct ProbeResultSet {
  std::vector<SizePoint> sizes;
  double alpha_s = 0;
  double beta_s_per_byte = 0;
};

constexpr int kTag = 1;

/// Median round-trip seconds for `iters` echoes of an n-byte message.
double median_rtt(vmpi::Comm& comm, std::size_t n, int warmup, int iters) {
  std::vector<std::byte> buf(std::max<std::size_t>(n, 1));
  for (int i = 0; i < warmup; ++i) {
    comm.send(1, kTag, buf.data(), n);
    comm.recv(1, kTag);
  }
  std::vector<double> rtt(static_cast<std::size_t>(iters));
  for (auto& sample : rtt) {
    const auto t0 = std::chrono::steady_clock::now();
    comm.send(1, kTag, buf.data(), n);
    comm.recv(1, kTag);
    const auto t1 = std::chrono::steady_clock::now();
    sample = std::chrono::duration<double>(t1 - t0).count();
  }
  std::sort(rtt.begin(), rtt.end());
  const std::size_t m = rtt.size();
  return m % 2 == 1 ? rtt[m / 2] : (rtt[m / 2 - 1] + rtt[m / 2]) / 2;
}

ProbeResultSet probe_transport(const std::string& transport,
                               const std::vector<std::size_t>& sizes,
                               int warmup, int iters) {
  ProbeResultSet res;
  res.sizes.reserve(sizes.size());
  // Results land in rank 0's frames: rank 0 runs on the driver's thread on
  // both transports (parent-resident on proc), so captured writes survive.
  vmpi::Runtime rt(2, transport);
  rt.run([&](vmpi::Comm& comm) {
    if (comm.rank() == 0) {
      for (const std::size_t n : sizes) {
        // Fewer iterations for the big sizes: each one moves 2n bytes.
        const int it = n >= (1u << 18) ? std::max(8, iters / 16) : iters;
        SizePoint pt;
        pt.bytes = n;
        pt.half_rtt_s = median_rtt(comm, n, warmup, it) / 2;
        res.sizes.push_back(pt);
      }
      // Tell the echo rank we are done.
      const std::uint8_t bye = 0;
      comm.send(1, kTag + 1, &bye, 1);
    } else {
      for (;;) {
        vmpi::Status st;
        auto msg = comm.recv(0, vmpi::kAnyTag, &st);
        if (st.tag != kTag) break;  // the kTag+1 goodbye
        comm.send_payload(0, kTag, std::move(msg));
      }
    }
  });

  const SizePoint& lo = res.sizes.front();
  const SizePoint& hi = res.sizes.back();
  res.alpha_s = lo.half_rtt_s;
  res.beta_s_per_byte = (hi.half_rtt_s - lo.half_rtt_s) /
                        static_cast<double>(hi.bytes - lo.bytes);
  // A sub-α fit (tiny machine, cache effects) would make the modeled cost
  // negative; clamp to an ~unlimited-bandwidth floor instead.
  if (res.beta_s_per_byte <= 0) res.beta_s_per_byte = 1e-12;
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const std::string which = flags.get_string("transport", "");
  const int iters = static_cast<int>(flags.get_i64("iters", 400));
  const int warmup = static_cast<int>(flags.get_i64("warmup", 32));
  const std::string out = flags.get_string("out", "");
  flags.finish();

  std::vector<std::string> transports;
  if (which.empty()) {
    transports = {"thread", "proc"};
  } else {
    // Validate the name up front (throws on a typo).
    transports = {vmpi::transport_name(vmpi::resolve_transport(which))};
  }
  const std::vector<std::size_t> sizes = {8,        1024,     16384,
                                          1u << 18, 1u << 20};

  bench::BenchJson bj("transport_probe", {"transport", "msg_bytes", "fit"});
  bj.param("iters", iters);
  bj.param("warmup", warmup);

  for (const auto& name : transports) {
    const auto res = probe_transport(name, sizes, warmup, iters);
    const auto modeled =
        vmpi::CostParams::calibrated(vmpi::resolve_transport(name));
    const double bw_gbps = 1.0 / res.beta_s_per_byte / 1e9;
    std::printf(
        "%-6s  alpha %8.3f us  beta %.3e s/B  (bandwidth %.2f GB/s)\n",
        name.c_str(), res.alpha_s * 1e6, res.beta_s_per_byte, bw_gbps);
    std::printf(
        "        calibrated defaults: alpha %8.3f us  bandwidth %.2f GB/s  "
        "(skew %.2fx / %.2fx)\n",
        modeled.alpha * 1e6, 1.0 / modeled.beta / 1e9,
        res.alpha_s / modeled.alpha, modeled.beta / res.beta_s_per_byte);
    for (const auto& pt : res.sizes) {
      auto& p = bj.point();
      p.set("transport", name);
      p.set("msg_bytes", static_cast<std::uint64_t>(pt.bytes));
      p.set("half_rtt_us", pt.half_rtt_s * 1e6);
    }
    auto& s = bj.point();
    s.set("transport", name);
    s.set("fit", true);
    s.set("alpha_us", res.alpha_s * 1e6);
    s.set("bandwidth_gbps", bw_gbps);
    s.set("alpha_skew_vs_calibrated", res.alpha_s / modeled.alpha);
  }

  bj.write(out);
  return 0;
}
