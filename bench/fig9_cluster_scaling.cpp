// Reproduces paper Fig. 9 plus the Section 7.2 idle-time/availability
// discussion: total parallel clustering run-time (GST construction
// excluded, as in the paper) as a function of processor count, for two
// input sizes.
//
// Paper observations to match in shape:
//   * larger inputs scale better (relative speedup 3.1x vs 2.6x when
//     quadrupling processors),
//   * average worker idle time grows with p at fixed input size,
//   * master availability falls as p grows (90% -> 70% on 256 -> 1024).
//
// Every point carries the α–β model's cluster_modeled_s and, beside it, the
// measured wall-clock of the same phase (cluster_wall_s: the clustering
// run's wall time minus its GST construction, ClusterStats::cluster_seconds).
//
//   ./fig9_cluster_scaling --small 600000 --large 1200000 --max-ranks 16
#include "bench_util.hpp"
#include "core/parallel_cluster.hpp"

using namespace pgasm;

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const std::uint64_t small_bp = flags.get_u64("small", 600'000);
  const std::uint64_t large_bp = flags.get_u64("large", 1'200'000);
  const int max_ranks = static_cast<int>(flags.get_i64("max-ranks", 16));
  const std::uint64_t seed = flags.get_u64("seed", 99);
  flags.finish();

  bench::print_header(
      "Fig. 9 — total parallel clustering time vs processors",
      "paper: 250M/500M bp on 256..1024 nodes; here: scaled inputs on "
      "3..16 vmpi ranks (1 master + workers), modeled seconds beside "
      "measured wall-clock");

  bench::BenchJson bj("fig9_cluster_scaling",
                     {"input_bp", "ranks", "adaptive_batch"});
  bj.param("small_bp", small_bp);
  bj.param("large_bp", large_bp);
  bj.param("max_ranks", max_ranks);
  bj.param("seed", seed);

  const auto params = bench::bench_cluster_params();
  for (const std::uint64_t bp : {small_bp, large_bp}) {
    const auto rs = bench::maize_dataset(bp, seed);
    // Preprocess once (masking) so clustering sees the paper's regime.
    preprocess::PreprocessParams pp;
    pp.repeat.sample_fraction = 1.0;
    const auto pre = preprocess::preprocess(rs.store, sim::vector_library(), pp);
    std::printf("\ninput: %s fragments, %s bp after preprocessing\n",
                util::fmt_count(pre.store.size()).c_str(),
                util::fmt_count(pre.store.total_length()).c_str());
    util::Table t({"ranks", "cluster modeled (s)", "cluster wall (s)",
                   "rel speedup", "worker idle", "master avail", "aligned",
                   "accepted"});
    double base_time = 0;
    int base_ranks = 0;
    for (int ranks = 3; ranks <= max_ranks; ranks *= 2) {
      const auto result = core::cluster_parallel(pre.store, params, ranks);
      const double time = result.stats.cluster_modeled_seconds;
      if (base_time == 0) {
        base_time = time;
        base_ranks = ranks;
      }
      const double wall = result.stats.cluster_seconds;
      t.add_row({std::to_string(ranks), util::fmt_double(time, 4),
                 util::fmt_double(wall, 4),
                 util::fmt_double(base_time / time, 2) + "x vs " +
                     std::to_string(base_ranks),
                 util::fmt_percent(result.stats.worker_idle_fraction),
                 util::fmt_percent(result.stats.master_availability),
                 util::fmt_count(result.stats.pairs_aligned),
                 util::fmt_count(result.stats.pairs_accepted)});
      bj.point()
          .set("input_bp", bp)
          .set("ranks", ranks)
          .set("cluster_modeled_s", time)
          .set("cluster_wall_s", wall)
          .set("rel_speedup", base_time / time)
          .set("worker_idle_fraction", result.stats.worker_idle_fraction)
          .set("master_availability", result.stats.master_availability)
          .set("pairs_aligned", result.stats.pairs_aligned)
          .set("pairs_accepted", result.stats.pairs_accepted);
    }
    t.print();
  }
  // --- §7.2 extension: adaptive dispatch granularity ----------------------
  {
    const auto rs = bench::maize_dataset(large_bp, seed);
    preprocess::PreprocessParams pp;
    pp.repeat.sample_fraction = 1.0;
    const auto pre =
        preprocess::preprocess(rs.store, sim::vector_library(), pp);
    std::printf("\nadaptive dispatch granularity (batch scales with p), "
                "%d ranks:\n", max_ranks);
    util::Table t({"batching", "master msgs recv", "master avail",
                   "cluster modeled (s)", "cluster wall (s)"});
    auto adaptive_params = params;
    for (const bool adaptive : {false, true}) {
      adaptive_params.adaptive_batch = adaptive;
      const auto result =
          core::cluster_parallel(pre.store, adaptive_params, max_ranks);
      t.add_row({adaptive ? "batch ∝ workers" : "fixed batch",
                 util::fmt_count(result.cost.per_rank[0].msgs_recv),
                 util::fmt_percent(result.stats.master_availability),
                 util::fmt_double(result.stats.cluster_modeled_seconds, 4),
                 util::fmt_double(result.stats.cluster_seconds, 4)});
      bj.point()
          .set("input_bp", large_bp)
          .set("ranks", max_ranks)
          .set("adaptive_batch", adaptive)
          .set("master_msgs_recv", result.cost.per_rank[0].msgs_recv)
          .set("master_availability", result.stats.master_availability)
          .set("cluster_modeled_s", result.stats.cluster_modeled_seconds)
          .set("cluster_wall_s", result.stats.cluster_seconds);
    }
    t.print();
  }
  bj.write();
  std::printf(
      "\nexpected shape (paper Fig. 9 / §7.2): the larger input scales "
      "better;\nworker idle %% grows with ranks at fixed input; master "
      "availability falls;\nadaptive granularity cuts the master's message "
      "load.\n");
  return 0;
}
