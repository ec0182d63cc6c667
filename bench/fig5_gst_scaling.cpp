// Reproduces paper Fig. 5: parallel run-times for constructing the GST on
// two input sizes, broken into communication and computation, as the
// processor count grows.
//
// Paper: 250 M and 500 M bp on 256..1024 BlueGene/L nodes; here (scaled
// ~200x): two inputs on 2..16 vmpi ranks, with the alpha-beta cost model
// providing the modeled parallel times. Expected shape: both components
// scale ~linearly with 1/p and with input size.
//
//   ./fig5_gst_scaling --small 1200000 --large 2400000 --max-ranks 16
#include "bench_util.hpp"
#include "gst/parallel_build.hpp"
#include "vmpi/runtime.hpp"

using namespace pgasm;

namespace {

struct Row {
  int ranks;
  double comp, comm, total;
  std::uint64_t suffixes;
};

Row run_one(const seq::FragmentStore& doubled, int ranks) {
  Row row{ranks, 0, 0, 0, 0};
  std::vector<double> comp(ranks, 0), comm(ranks, 0);
  std::vector<std::uint64_t> suffixes(ranks, 0);
  vmpi::Runtime rt(ranks);
  rt.run([&](vmpi::Comm& c) {
    gst::ParallelGstParams params;
    params.gst = gst::GstParams{.min_match = 20, .prefix_w = 6};
    params.fetch_batch_chars = 1u << 18;
    auto dist = gst::build_distributed_gst(c, doubled, params);
    comp[c.rank()] = dist.stats.compute_seconds;
    comm[c.rank()] = dist.stats.comm_seconds;
    suffixes[c.rank()] = dist.stats.local_suffixes;
  });
  for (int r = 0; r < ranks; ++r) {
    row.comp = std::max(row.comp, comp[r]);
    row.comm = std::max(row.comm, comm[r]);
    row.suffixes += suffixes[r];
  }
  row.total = row.comp + row.comm;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const std::uint64_t small_bp = flags.get_u64("small", 1'000'000);
  const std::uint64_t large_bp = flags.get_u64("large", 2'000'000);
  const int max_ranks = static_cast<int>(flags.get_i64("max-ranks", 16));
  const std::uint64_t seed = flags.get_u64("seed", 55);
  flags.finish();

  bench::print_header(
      "Fig. 5 — parallel GST construction run-times (comm vs comp)",
      "paper: 250M/500M bp on 256..1024 nodes; here: scaled inputs on "
      "2..16 vmpi ranks, alpha-beta modeled seconds");

  bench::BenchJson bj("fig5_gst_scaling", {"input_bp", "ranks"});
  bj.param("small_bp", small_bp);
  bj.param("large_bp", large_bp);
  bj.param("max_ranks", max_ranks);
  bj.param("seed", seed);

  for (const std::uint64_t bp : {small_bp, large_bp}) {
    const auto rs = bench::maize_dataset(bp, seed);
    const auto doubled = seq::make_doubled_store(rs.store);
    std::printf("\ninput: %s fragments, %s bp (x2 with reverse complements)\n",
                util::fmt_count(rs.store.size()).c_str(),
                util::fmt_count(rs.store.total_length()).c_str());
    util::Table t({"ranks", "computation (s)", "communication (s)",
                   "total modeled (s)", "efficiency", "suffixes"});
    double base = 0;
    for (int ranks = 2; ranks <= max_ranks; ranks *= 2) {
      const Row row = run_one(doubled, ranks);
      if (base == 0) base = row.total * ranks;  // reference: work at p=2
      t.add_row({std::to_string(ranks), util::fmt_double(row.comp, 4),
                 util::fmt_double(row.comm, 4), util::fmt_double(row.total, 4),
                 util::fmt_double(base / ranks / row.total, 2),
                 util::fmt_count(row.suffixes)});
      bj.point()
          .set("input_bp", bp)
          .set("ranks", ranks)
          .set("compute_s", row.comp)
          .set("comm_s", row.comm)
          .set("total_s", row.total)
          .set("efficiency", base / ranks / row.total)
          .set("suffixes", row.suffixes);
    }
    t.print();
  }
  bj.write();
  std::printf(
      "\nexpected shape (paper Fig. 5): total time ~halves when ranks "
      "double;\ncommunication stays a minor fraction of computation.\n");
  return 0;
}
