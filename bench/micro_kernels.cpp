// Micro-benchmarks of the framework's kernels (google-benchmark): the
// overlap and linear-space alignment kernels, GST construction,
// promising-pair generation, union-find, reverse complement, k-mer
// extraction, vmpi messaging, and the obs tracer/registry hot paths.
// Results also land in
// BENCH_micro_kernels.json (google-benchmark's JSON schema).
#include <benchmark/benchmark.h>

#include <iostream>
#include <string>
#include <vector>

#include "align/linear_space.hpp"
#include "align/overlap.hpp"
#include "align/pairwise.hpp"
#include "align/workspace.hpp"
#include "gst/pair_generator.hpp"
#include "gst/suffix_tree.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "preprocess/repeat_masker.hpp"
#include "seq/fragment_store.hpp"
#include "util/prng.hpp"
#include "util/union_find.hpp"
#include "vmpi/runtime.hpp"

namespace {

using namespace pgasm;

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
}
BENCHMARK(BM_BandedOverlapAlign)->Arg(4)->Arg(10)->Arg(24);

void BM_SuffixTreeBuild(benchmark::State& state) {
  util::Prng rng(4);
  seq::FragmentStore store;
  const auto n = static_cast<std::size_t>(state.range(0));
  for (std::size_t i = 0; i < n; ++i) store.add(random_dna(rng, 600));
  for (auto _ : state) {
    gst::SuffixTree tree(store, gst::GstParams{.min_match = 20});
    benchmark::DoNotOptimize(tree.num_nodes());
  }
  state.SetBytesProcessed(state.iterations() * store.total_length());
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
  for (auto _ : state) {
    gst::SuffixTree tree(store, gst::GstParams{.min_match = 20});
    benchmark::DoNotOptimize(tree.num_nodes());
  }
  state.SetBytesProcessed(state.iterations() * store.total_length());
}
BENCHMARK(BM_SuffixTreeBuildCovered)->Arg(100)->Arg(400)->Arg(1600);

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
  }
}
BENCHMARK(BM_PairGeneration);

void BM_MyersEditDistance(benchmark::State& state) {
  util::Prng rng(12);
  const auto len = static_cast<std::size_t>(state.range(0));
  const auto a = random_dna(rng, len);
  auto b = a;
  for (auto& c : b) {
    if (rng.chance(0.05)) c = static_cast<seq::Code>((c + 1) % 4);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(align::myers_edit_distance(a, b));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MyersEditDistance)->Arg(200)->Arg(800)->Arg(3200);

void BM_MyersBounded(benchmark::State& state) {
  util::Prng rng(13);
  const auto a = random_dna(rng, 800);
  const auto b = random_dna(rng, 800);  // unrelated: bound exits early
  for (auto _ : state) {
    benchmark::DoNotOptimize(align::myers_edit_distance_bounded(a, b, 40));
  }
}
BENCHMARK(BM_MyersBounded);

void BM_HirschbergAlign(benchmark::State& state) {
  util::Prng rng(14);
  const auto len = static_cast<std::size_t>(state.range(0));
  const auto a = random_dna(rng, len);
  auto b = a;
  for (auto& c : b) {
    if (rng.chance(0.05)) c = static_cast<seq::Code>((c + 1) % 4);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(align::hirschberg_align(a, b, align::Scoring{}));
  }
}
BENCHMARK(BM_HirschbergAlign)->Arg(400)->Arg(1600);

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
}
BENCHMARK(BM_CanonicalKmers);

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
