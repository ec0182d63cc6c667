// Baseline comparison (paper Section 2): the classic fixed-length
// lookup-table filter vs the paper's maximal-match promising-pair
// generator, on the same preprocessed maize-style data.
//
// The paper's argument: a long exact match of length l shows up as
// (l - w + 1) w-mer hits in the lookup table, the table is exponential in
// w (so w stays 10-11), and the table cannot order pairs by match quality.
// The GST generator emits each fragment pair at most once per *distinct
// maximal match*, in decreasing match-length order, in O(N) space.
//
//   ./baseline_lookup_filter --bp 400000 --w 11
#include "bench_util.hpp"
#include "core/overlap_engine.hpp"
#include "core/serial_cluster.hpp"
#include "gst/lookup_filter.hpp"
#include "gst/pair_generator.hpp"
#include "gst/suffix_tree.hpp"

using namespace pgasm;

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const std::uint64_t bp = flags.get_u64("bp", 400'000);
  const std::uint32_t w =
      static_cast<std::uint32_t>(flags.get_u64("w", 11));
  const std::uint32_t psi =
      static_cast<std::uint32_t>(flags.get_u64("psi", 20));
  const std::uint64_t seed = flags.get_u64("seed", 12);
  flags.finish();

  bench::print_header(
      "Baseline — w-mer lookup-table filter vs GST maximal-match generator "
      "(paper §2 vs §5)",
      "pair volume, filter memory, and clustering alignment work");

  const auto rs = bench::maize_dataset(bp, seed);
  preprocess::PreprocessParams pp;
  pp.repeat.sample_fraction = 1.0;
  const auto pre = preprocess::preprocess(rs.store, sim::vector_library(), pp);
  const auto doubled = seq::make_doubled_store(pre.store);
  std::printf("input: %s fragments, %s bp (doubled for both filters)\n",
              util::fmt_count(pre.store.size()).c_str(),
              util::fmt_count(pre.store.total_length()).c_str());

  core::ClusterParams cp;
  cp.overlap = {
      .scoring = {}, .min_overlap = 40, .min_identity = 0.93, .band = 10};

  struct Run {
    std::string name;
    std::uint64_t pairs = 0;
    std::uint64_t aligned = 0;
    std::uint64_t memory = 0;
    double seconds = 0;
    std::size_t clusters = 0;
  };
  std::vector<Run> runs;

  // Fig. 3 over one filter's pair stream: align a pair only while its
  // fragments are in different clusters, merge on an accepted overlap.
  const auto cluster = [&](auto& filter, Run& run) {
    core::ClusterFold fold(doubled, cp);
    core::OverlapEngine engine(doubled, cp.overlap);
    gst::PromisingPair p;
    while (filter.next(p)) {
      const core::PairMsg pm{p.seq_a, p.pos_a, p.seq_b, p.pos_b,
                             p.match_len};
      if (fold.admit(pm)) fold.fold(engine.align_pair(pm));
    }
    run.pairs = fold.generated;
    run.aligned = fold.selected;
    run.clusters = fold.uf.num_sets();
  };

  // --- GST maximal-match generator (the paper's filter) -------------------
  {
    Run run{.name = "GST maximal matches (psi=" + std::to_string(psi) + ")"};
    util::WallTimer timer;
    gst::SuffixTree tree(doubled,
                         gst::GstParams{.min_match = psi, .prefix_w = 0});
    gst::PairGenerator gen(tree, {.dup_elim = true, .doubled_input = true});
    cluster(gen, run);
    run.memory = tree.memory_bytes() + gen.memory_bytes();
    run.seconds = timer.elapsed();
    runs.push_back(run);
  }

  // --- Lookup-table filter (the classic baseline) --------------------------
  for (const bool dedup : {false, true}) {
    Run run{.name = std::string("lookup table w=") + std::to_string(w) +
                    (dedup ? " (dedup/word)" : " (raw)")};
    util::WallTimer timer;
    gst::LookupFilter filter(
        doubled, {.w = w, .doubled_input = true, .dedup_per_word = dedup});
    cluster(filter, run);
    run.memory = filter.stats().table_bytes;
    run.seconds = timer.elapsed();
    runs.push_back(run);
    if (!dedup && !filter.stats().top_words.empty()) {
      // Where the duplicate volume comes from: the handful of words that
      // anchor the most pairs (canonical order — identical run to run).
      std::printf("  heaviest words (raw filter): ");
      for (const auto& [word, pairs] : filter.stats().top_words) {
        std::printf("%llx:%llu ", static_cast<unsigned long long>(word),
                    static_cast<unsigned long long>(pairs));
      }
      std::printf("\n");
    }
  }

  util::Table t({"filter", "pairs emitted", "pairs aligned", "filter memory",
                 "wall (s)", "clusters"});
  for (const auto& run : runs) {
    t.add_row({run.name, util::fmt_count(run.pairs),
               util::fmt_count(run.aligned), util::fmt_bytes(run.memory),
               util::fmt_double(run.seconds, 2),
               util::fmt_count(run.clusters)});
  }
  t.print();
  std::printf(
      "\nexpected shape (paper §2/§5): the lookup table emits each long "
      "overlap\n(l - w + 1) times and costs 4^w table slots; the GST "
      "generator emits each\npair once per distinct maximal match, in "
      "quality order, in O(N) space.\nNote the clusterings agree where the "
      "criteria coincide.\n");
  return 0;
}
