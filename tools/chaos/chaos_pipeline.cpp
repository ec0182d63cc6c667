// Deterministic chaos campaign over the full pipeline (ISSUE: robustness).
//
// For each seed this driver builds a seeded read set, runs the pipeline
// once fault-free as the reference, then replays it with a seed-derived
// vmpi::FaultPlan (rank crashes, dropped and delayed user sends, plus
// probabilistic drop/delay noise) under the recovery supervisor. The
// faulted run must finish and produce a bit-identical contig multiset; any
// divergence is a recovery bug and exits non-zero.
//
// The GST build runs on collectives, which fault plans never touch, so a
// planned crash fires in clustering, where a survivor takes over the dead
// worker's role. A real rank death inside the build aborts the collective;
// the supervisor's retry recovers it by rerunning the phase fault-free
// from the cluster checkpoint.
//
// Usage:
//   chaos_pipeline --seed 7            # one schedule (what ctest runs)
//   chaos_pipeline --seeds 25          # sweep seeds 1..25
//   chaos_pipeline --seed 7 --ranks 6 --verbose
//
// Determinism contract: a given (seed, ranks) pair always produces the
// same read set and the same FaultPlan, so failures replay exactly.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "pipeline/pipeline.hpp"
#include "sim/reads.hpp"
#include "util/prng.hpp"
#include "vmpi/runtime.hpp"

namespace {

namespace fs = std::filesystem;
using pgasm::pipeline::PipelineParams;
using pgasm::pipeline::PipelineResult;

struct Options {
  std::uint64_t seed_lo = 1;
  std::uint64_t seed_hi = 1;
  int ranks = 4;
  bool verbose = false;
  std::string transport;  ///< vmpi backend for the faulted run
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--seed N | --seeds N] [--ranks R] "
               "[--transport thread|proc] [--verbose]\n"
               "  --seed N       run the single chaos schedule for seed N\n"
               "  --seeds N      sweep seeds 1..N\n"
               "  --ranks R      vmpi ranks for the parallel phases "
               "(default 4)\n"
               "  --transport T  backend for the faulted run; with proc the\n"
               "                 injected crash SIGKILLs a real child\n"
               "                 process (the reference run stays on thread,\n"
               "                 so convergence also checks cross-transport\n"
               "                 contig identity)\n",
               argv0);
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_u64 = [&]() -> std::uint64_t {
      if (i + 1 >= argc) usage(argv[0]);
      return std::strtoull(argv[++i], nullptr, 10);
    };
    if (arg == "--seed") {
      opt.seed_lo = opt.seed_hi = next_u64();
    } else if (arg == "--seeds") {
      opt.seed_lo = 1;
      opt.seed_hi = next_u64();
    } else if (arg == "--ranks") {
      opt.ranks = static_cast<int>(next_u64());
    } else if (arg == "--transport") {
      if (i + 1 >= argc) usage(argv[0]);
      opt.transport = argv[++i];
    } else if (arg == "--verbose") {
      opt.verbose = true;
    } else {
      usage(argv[0]);
    }
  }
  if (opt.seed_hi < opt.seed_lo || opt.ranks < 2) usage(argv[0]);
  try {
    pgasm::vmpi::resolve_transport(opt.transport);
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "%s\n", ex.what());
    usage(argv[0]);
  }
  return opt;
}

pgasm::sim::ReadSet chaos_reads(std::uint64_t seed) {
  const auto g =
      pgasm::sim::simulate_genome(pgasm::sim::shotgun_like(6'000, seed));
  pgasm::util::Prng rng(seed * 0x9e3779b9ULL + 1);
  pgasm::sim::ReadSet rs;
  pgasm::sim::ReadParams rp;
  rp.len_mean = 300;
  rp.len_spread = 50;
  rp.errors.sub_rate = 0.005;
  pgasm::sim::sample_wgs(rs, g, 3.0, rp, rng);
  return rs;
}

PipelineParams chaos_params(int ranks) {
  PipelineParams p;
  p.pre.min_len = 80;
  p.cluster.psi = 14;
  p.cluster.overlap.min_overlap = 30;
  p.cluster.overlap.min_identity = 0.9;
  p.cluster.prefix_w = 4;
  p.cluster.batch_size = 16;
  p.assembly.psi = 16;
  p.assembly.overlap.min_overlap = 30;
  p.assembly.overlap.min_identity = 0.93;
  p.ranks = ranks;
  return p;
}

/// Seed-derived fault schedule: one rank crash, a couple of targeted
/// drops/delays on other ranks, and light probabilistic noise. Crash
/// indices stay small so they land inside the GST build or the early
/// master-worker exchange (where recovery has the most machinery to get
/// wrong); every third seed kills the master itself.
pgasm::vmpi::FaultPlan chaos_plan(std::uint64_t seed, int ranks) {
  pgasm::util::Prng rng(seed * 0x2545f4914f6cdd1dULL + 17);
  pgasm::vmpi::FaultPlan plan;
  const int crash_rank =
      seed % 3 == 0 ? 0 : 1 + static_cast<int>(rng.below(
                                  static_cast<std::uint64_t>(ranks - 1)));
  plan.crashes.push_back(
      {.rank = crash_rank,
       .at_send = 1 + rng.below(crash_rank == 0 ? 16 : 8)});
  for (int r = 0; r < ranks; ++r) {
    if (r == crash_rank) continue;
    if (rng.below(2) == 0)
      plan.drops.push_back({.rank = r, .at_send = 1 + rng.below(12)});
    if (rng.below(2) == 0)
      plan.delays.push_back(
          {.rank = r, .at_send = 1 + rng.below(12), .seconds = 0.05});
  }
  plan.seed = seed;
  plan.drop_prob = 0.01;
  plan.delay_prob = 0.02;
  plan.delay_seconds = 0.01;
  return plan;
}

/// Sorted multiset of contig consensus sequences: the bit-identical
/// comparison is over assembled output, independent of cluster label
/// numbering or assembly ordering.
std::vector<std::vector<pgasm::seq::Code>> contig_multiset(
    const PipelineResult& result) {
  std::vector<std::vector<pgasm::seq::Code>> all;
  for (const auto& asm_result : result.assemblies) {
    for (const auto& contig : asm_result.contigs) {
      all.push_back(contig.consensus);
    }
  }
  std::sort(all.begin(), all.end());
  return all;
}

std::string describe_plan(const pgasm::vmpi::FaultPlan& plan) {
  std::string s;
  for (const auto& c : plan.crashes)
    s += "crash(r" + std::to_string(c.rank) + "@" +
         std::to_string(c.at_send) + ") ";
  for (const auto& d : plan.drops)
    s += "drop(r" + std::to_string(d.rank) + "@" + std::to_string(d.at_send) +
         ") ";
  for (const auto& d : plan.delays)
    s += "delay(r" + std::to_string(d.rank) + "@" +
         std::to_string(d.at_send) + ") ";
  return s;
}

/// Run one seed's schedule; returns true when the faulted run converged to
/// the reference contigs.
bool run_seed(std::uint64_t seed, const Options& opt) {
  const auto rs = chaos_reads(seed);
  const auto params = chaos_params(opt.ranks);

  const auto reference =
      pgasm::pipeline::run_pipeline(rs.store, pgasm::sim::vector_library(),
                                    params);
  const auto want = contig_multiset(reference);

  const std::string dir =
      (fs::temp_directory_path() /
       ("pgasm_chaos_" + std::to_string(seed) + "_" +
        std::to_string(opt.ranks) + "_" + opt.transport))
          .string();
  fs::remove_all(dir);
  fs::create_directories(dir);

  auto faulted = params;
  faulted.checkpoint_dir = dir;
  faulted.cluster.checkpoint_every_reports = 2;
  faulted.cluster.transport = opt.transport;
  faulted.faults = chaos_plan(seed, opt.ranks);
  if (opt.verbose) {
    std::fprintf(stderr, "[chaos] seed %llu plan: %s\n",
                 static_cast<unsigned long long>(seed),
                 describe_plan(faulted.faults).c_str());
  }

  bool ok = false;
  try {
    const auto result = pgasm::pipeline::run_pipeline(
        rs.store, pgasm::sim::vector_library(), faulted);
    const auto got = contig_multiset(result);
    if (got == want) {
      ok = true;
      std::fprintf(stderr,
                   "[chaos] seed %llu OK: %zu contigs identical "
                   "(retries=%llu workers_lost=%llu)\n",
                   static_cast<unsigned long long>(seed), got.size(),
                   static_cast<unsigned long long>(
                       result.recovery.phase_retries),
                   static_cast<unsigned long long>(
                       result.cluster_stats.workers_lost));
    } else {
      std::fprintf(stderr,
                   "[chaos] seed %llu FAIL: contig multiset diverged "
                   "(reference %zu contigs, faulted %zu)\n",
                   static_cast<unsigned long long>(seed), want.size(),
                   got.size());
    }
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "[chaos] seed %llu FAIL: pipeline threw: %s\n",
                 static_cast<unsigned long long>(seed), ex.what());
  }
  fs::remove_all(dir);
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);
  int failures = 0;
  for (std::uint64_t seed = opt.seed_lo; seed <= opt.seed_hi; ++seed) {
    if (!run_seed(seed, opt)) ++failures;
  }
  if (failures != 0) {
    std::fprintf(stderr, "[chaos] %d of %llu seeds FAILED\n", failures,
                 static_cast<unsigned long long>(opt.seed_hi - opt.seed_lo +
                                                 1));
    return 1;
  }
  std::fprintf(stderr, "[chaos] all %llu seeds converged\n",
               static_cast<unsigned long long>(opt.seed_hi - opt.seed_lo + 1));
  return 0;
}
