// Micro-benchmarks of the framework's kernels (google-benchmark): the
// overlap alignment kernels, GST construction, promising-pair generation,
// union-find, reverse complement, k-mer extraction, vmpi messaging, and
// the obs tracer/registry hot paths.
// Each layer reports its unit cost, so a regression points at one layer:
// the banded kernel ns_per_cell (per banded DP cell), GST construction
// ns_per_suffix (per suffix indexed) and ns_per_node (per node built; an
// inert range is one leaf, so fewer nodes raise it), and pair generation
// ns_per_pair (per pair emitted), and k-mer extraction and the whole of
// preprocess() ns_per_base (per base scanned). Results also land in
// BENCH_micro_kernels.json (google-benchmark's JSON schema).
#include <benchmark/benchmark.h>

#include <iostream>
#include <span>
#include <string>
#include <vector>

#include "align/overlap.hpp"
#include "align/pairwise.hpp"
#include "align/workspace.hpp"
#include "bench_util.hpp"
#include "gst/pair_generator.hpp"
#include "gst/suffix_tree.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "preprocess/kmer_set.hpp"
#include "preprocess/preprocess.hpp"
#include "seq/fragment_store.hpp"
#include "sim/genome.hpp"
#include "sim/reads.hpp"
#include "util/prng.hpp"
#include "util/union_find.hpp"
#include "vmpi/runtime.hpp"

namespace {

using namespace pgasm;

/// Nanoseconds of CPU time per unit, where `units` are counted once per
/// iteration. An inverted rate is printed with an "s" suffix on the
/// console; the value is in nanoseconds, as the counter's name says.
benchmark::Counter ns_per(double units) {
  return benchmark::Counter(units * 1e-9,
                            benchmark::Counter::kIsIterationInvariantRate |
                                benchmark::Counter::kInvert);
}

std::vector<seq::Code> random_dna(util::Prng& rng, std::size_t len) {
  std::vector<seq::Code> out(len);
  for (auto& c : out) c = static_cast<seq::Code>(rng.below(4));
  return out;
}

/// Pair of overlapping reads with ~1.5% errors in the shared region.
std::pair<std::vector<seq::Code>, std::vector<seq::Code>> overlap_pair(
    util::Prng& rng, std::size_t len, std::size_t ovl) {
  auto a = random_dna(rng, len);
  std::vector<seq::Code> b(a.end() - ovl, a.end());
  auto tail = random_dna(rng, len - ovl);
  b.insert(b.end(), tail.begin(), tail.end());
  for (std::size_t i = 0; i < ovl; ++i) {
    if (rng.chance(0.015))
      b[i] = static_cast<seq::Code>((b[i] + 1 + rng.below(3)) % 4);
  }
  return {std::move(a), std::move(b)};
}

void BM_OverlapAlignFull(benchmark::State& state) {
  util::Prng rng(3);
  const auto [a, b] = overlap_pair(rng, 600, 200);
  for (auto _ : state) {
    benchmark::DoNotOptimize(align::overlap_align(a, b, align::Scoring{}));
  }
}
BENCHMARK(BM_OverlapAlignFull);

void BM_BandedOverlapAlign(benchmark::State& state) {
  util::Prng rng(3);
  const auto [a, b] = overlap_pair(rng, 600, 200);
  const std::uint32_t band = static_cast<std::uint32_t>(state.range(0));
  align::Workspace ws;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        align::banded_overlap_align(a, b, align::Scoring{}, -400, band, ws));
  }
  state.counters["ns_per_cell"] = ns_per(
      static_cast<double>(bench::band_cells(a.size(), b.size(), -400, band)));
}
BENCHMARK(BM_BandedOverlapAlign)->Arg(4)->Arg(10)->Arg(24);

/// Times the serial GST build of `store` at ψ = 20 and reports the unit
/// costs per suffix indexed and per node built.
void build_tree(benchmark::State& state, const seq::FragmentStore& store) {
  std::size_t nodes = 0, suffixes = 0;
  for (auto _ : state) {
    gst::SuffixTree tree(store, gst::GstParams{.min_match = 20});
    nodes = tree.num_nodes();
    suffixes = tree.num_suffixes();
    benchmark::DoNotOptimize(nodes);
  }
  state.SetBytesProcessed(state.iterations() * store.total_length());
  state.counters["ns_per_suffix"] = ns_per(static_cast<double>(suffixes));
  state.counters["ns_per_node"] = ns_per(static_cast<double>(nodes));
}

void BM_SuffixTreeBuild(benchmark::State& state) {
  util::Prng rng(4);
  seq::FragmentStore store;
  const auto n = static_cast<std::size_t>(state.range(0));
  for (std::size_t i = 0; i < n; ++i) store.add(random_dna(rng, 600));
  build_tree(state, store);
}
BENCHMARK(BM_SuffixTreeBuild)->Arg(100)->Arg(400)->Arg(1600);

void BM_SuffixTreeBuildCovered(benchmark::State& state) {
  // Reads sampled at 8X from one genome with ~1.5% substitutions: shared
  // stretches give long non-branching edges, which independent random
  // reads (above) barely have.
  util::Prng rng(6);
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto genome = random_dna(rng, n * 600 / 8 + 600);
  seq::FragmentStore store;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t start = rng.below(genome.size() - 600);
    std::vector<seq::Code> read(genome.begin() + start,
                                genome.begin() + start + 600);
    for (auto& c : read) {
      if (rng.chance(0.015))
        c = static_cast<seq::Code>((c + 1 + rng.below(3)) % 4);
    }
    store.add(read);
  }
  build_tree(state, store);
}
BENCHMARK(BM_SuffixTreeBuildCovered)->Arg(100)->Arg(400)->Arg(1600);

void BM_SuffixTreeBuildRepeats(benchmark::State& state) {
  // The worst case for sorting inert leaves: an exact 300 bp repeat in N
  // copies with unique flanks. Copy 0 has a read starting at every repeat
  // offset, so every repeat offset's suffixes hold a λ suffix and branch
  // only where the flanks start, deep in the tree. Each other copy has 8
  // reads spanning the repeat, each stored twice, which form one inert
  // leaf per offset of up to 16 long, nearly identical strings that must
  // be sorted. About two thirds of the suffixes go through that sort.
  util::Prng rng(7);
  const auto copies = static_cast<std::size_t>(state.range(0));
  const auto repeat = random_dna(rng, 300);
  seq::FragmentStore store;
  for (std::size_t copy = 0; copy < copies; ++copy) {
    std::vector<seq::Code> unit = random_dna(rng, 150);
    unit.insert(unit.end(), repeat.begin(), repeat.end());
    const auto right = random_dna(rng, 150);
    unit.insert(unit.end(), right.begin(), right.end());
    if (copy == 0) {
      for (std::size_t o = 0; o < repeat.size(); ++o) {
        store.add(std::span(unit).subspan(150 + o));
      }
      continue;
    }
    for (int r = 0; r < 8; ++r) {
      const std::size_t start = rng.below(150);
      const std::size_t end = 450 + rng.below(150);
      const auto read = std::span(unit).subspan(start, end - start);
      store.add(read);
      store.add(read);
    }
  }
  build_tree(state, store);
}
BENCHMARK(BM_SuffixTreeBuildRepeats)->Arg(4)->Arg(16)->Arg(64);

void BM_PairGeneration(benchmark::State& state) {
  // Reads sampled from one genome => dense overlaps => many pairs.
  util::Prng rng(5);
  const auto genome = random_dna(rng, 20'000);
  seq::FragmentStore store;
  for (int i = 0; i < 400; ++i) {
    const std::size_t start = rng.below(genome.size() - 600);
    store.add(std::vector<seq::Code>(genome.begin() + start,
                                     genome.begin() + start + 600));
  }
  gst::SuffixTree tree(store, gst::GstParams{.min_match = 20});
  for (auto _ : state) {
    gst::PairGenerator gen(tree, {.dup_elim = true});
    gst::PromisingPair p;
    std::uint64_t count = 0;
    while (gen.next(p)) ++count;
    benchmark::DoNotOptimize(count);
    state.counters["pairs"] = static_cast<double>(count);
    state.counters["ns_per_pair"] = ns_per(static_cast<double>(count));
  }
}
BENCHMARK(BM_PairGeneration);

void BM_UnionFind(benchmark::State& state) {
  util::Prng rng(6);
  const std::size_t n = 1 << 16;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges(n);
  for (auto& e : edges) {
    e = {static_cast<std::uint32_t>(rng.below(n)),
         static_cast<std::uint32_t>(rng.below(n))};
  }
  for (auto _ : state) {
    util::UnionFind uf(n);
    for (const auto& [a, b] : edges) uf.unite(a, b);
    benchmark::DoNotOptimize(uf.num_sets());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_UnionFind);

void BM_ReverseComplement(benchmark::State& state) {
  util::Prng rng(7);
  const auto s = random_dna(rng, 1 << 16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(seq::reverse_complement(s));
  }
  state.SetBytesProcessed(state.iterations() * s.size());
}
BENCHMARK(BM_ReverseComplement);

/// Per-position baseline: every 16-mer of a 64 kbp text re-encoded from
/// scratch by the canonical_kmer definition.
void BM_CanonicalKmers(benchmark::State& state) {
  util::Prng rng(8);
  const auto s = random_dna(rng, 1 << 16);
  for (auto _ : state) {
    std::uint64_t acc = 0, key = 0;
    for (std::uint32_t p = 0; p + 16 <= s.size(); ++p) {
      if (preprocess::RepeatMasker::canonical_kmer(s, p, 16, &key)) acc ^= key;
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetBytesProcessed(state.iterations() * s.size());
  state.counters["ns_per_base"] = ns_per(static_cast<double>(s.size()));
}
BENCHMARK(BM_CanonicalKmers);

/// The same keys from the rolling enumerator preprocessing uses.
void BM_RollingCanonicalKmers(benchmark::State& state) {
  util::Prng rng(8);
  const auto s = random_dna(rng, 1 << 16);
  for (auto _ : state) {
    std::uint64_t acc = 0;
    preprocess::for_each_canonical_kmer(
        s, 16, [&](std::uint32_t, std::uint64_t key) { acc ^= key; });
    benchmark::DoNotOptimize(acc);
  }
  state.SetBytesProcessed(state.iterations() * s.size());
  state.counters["ns_per_base"] = ns_per(static_cast<double>(s.size()));
}
BENCHMARK(BM_RollingCanonicalKmers);

/// Whole preprocess() of a simulated 8X shotgun run of a 60 kbp genome:
/// quality trim, vector screen, spectrum from a 1/8 sample, masking.
void BM_Preprocess(benchmark::State& state) {
  const auto genome = sim::simulate_genome(sim::shotgun_like(60'000, 205));
  util::Prng rng(206);
  sim::ReadSet reads;
  sim::sample_wgs(reads, genome, 8.0, {.len_mean = 550, .len_spread = 120},
                  rng);
  preprocess::PreprocessParams params;
  params.repeat.sample_fraction = 1.0 / 8.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        preprocess::preprocess(reads.store, sim::vector_library(), params));
  }
  state.SetBytesProcessed(state.iterations() * reads.store.total_length());
  state.counters["ns_per_base"] =
      ns_per(static_cast<double>(reads.store.total_length()));
}
BENCHMARK(BM_Preprocess);

void BM_VmpiPingPong(benchmark::State& state) {
  const std::size_t bytes = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    vmpi::Runtime rt(2);
    rt.run([&](vmpi::Comm& c) {
      std::vector<std::uint8_t> buf(bytes, 1);
      for (int i = 0; i < 50; ++i) {
        if (c.rank() == 0) {
          c.send_vector(1, 1, buf);
          buf = c.recv_vector<std::uint8_t>(1, 2);
        } else {
          buf = c.recv_vector<std::uint8_t>(0, 1);
          c.send_vector(0, 2, buf);
        }
      }
    });
  }
  state.SetBytesProcessed(state.iterations() * 100 * bytes);
}
BENCHMARK(BM_VmpiPingPong)->Arg(64)->Arg(4096)->Arg(65536);

void BM_Alltoallv(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  for (auto _ : state) {
    vmpi::Runtime rt(ranks);
    rt.run([&](vmpi::Comm& c) {
      std::vector<std::vector<std::uint32_t>> out(c.size());
      for (int d = 0; d < c.size(); ++d) out[d].assign(1024, d);
      benchmark::DoNotOptimize(c.staged_alltoallv(out));
    });
  }
}
BENCHMARK(BM_Alltoallv)->Arg(4)->Arg(8);

// The acceptance bar for instrumenting hot paths: a span on a disabled
// tracer must cost a single relaxed load + branch (sub-nanosecond), so the
// vmpi/cluster/gst layers can stay instrumented unconditionally.
void BM_TracerDisabledSpan(benchmark::State& state) {
  obs::tracer().set_enabled(false);
  for (auto _ : state) {
    obs::Span sp = obs::span(0, "bench", "obs");
    benchmark::DoNotOptimize(sp);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TracerDisabledSpan);

void BM_TracerEnabledSpan(benchmark::State& state) {
  obs::tracer().clear();
  obs::tracer().set_enabled(true);
  for (auto _ : state) {
    obs::Span sp = obs::span(0, "bench", "obs");
    benchmark::DoNotOptimize(sp);
  }
  obs::tracer().set_enabled(false);
  obs::tracer().clear();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TracerEnabledSpan);

void BM_RegistryCounterInc(benchmark::State& state) {
  obs::registry().clear();
  auto& c = obs::registry().counter("bench.counter", 0, "");
  for (auto _ : state) c.inc();
  benchmark::DoNotOptimize(c.value());
  obs::registry().clear();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RegistryCounterInc);

void BM_RegistryHistogramObserve(benchmark::State& state) {
  obs::registry().clear();
  auto& h = obs::registry().histogram("bench.histogram", 0, "");
  std::uint64_t v = 1;
  for (auto _ : state) {
    h.observe(v);
    v = v * 3 + 1;  // walk the buckets
  }
  benchmark::DoNotOptimize(h.count());
  obs::registry().clear();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RegistryHistogramObserve);

}  // namespace

// BENCHMARK_MAIN(), except runs default to a JSON sidecar
// (BENCH_micro_kernels.json) next to the console table; an explicit
// --benchmark_out on the command line takes precedence.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag = "--benchmark_out=BENCH_micro_kernels.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).rfind("--benchmark_out=", 0) == 0) has_out = true;
  }
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  if (!has_out) std::cerr << "wrote BENCH_micro_kernels.json\n";
  benchmark::Shutdown();
  return 0;
}
