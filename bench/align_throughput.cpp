// Micro-benchmark for the suffix–prefix alignment kernels, full-matrix and
// banded, with and without workspace reuse: pairs per second, the unit cost
// in MCUPS (million DP cells per second, cells counted before timing), and
// heap bytes per pair.
//
// The "reference" variant is the scalar allocating banded kernel
// (banded_overlap_align_reference), bit-identical to the anti-diagonal SIMD
// workspace kernel: the same cells, so the checksums match and the speedup
// is the kernel's alone. Heap traffic is measured for real by counting every
// global operator new in the process — after warmup the reuse variants must
// report zero bytes per pair. The banded workspace variants run the sweep
// build banded_overlap_align picks on this CPU (AVX2 or 16-byte vectors);
// its name is the JSON's "sweep" param.
//
//   ./align_throughput --pairs 4000 --len 600 --overlap 120 --band 12
//
// Writes BENCH_align_throughput.json.
#include <cstdint>
#include <cstdlib>
#include <new>

// Global allocation counters. The bench is single-threaded; plain counters
// are fine, and keeping the hooks trivial avoids distorting the timing.
namespace {
std::uint64_t g_heap_bytes = 0;
std::uint64_t g_heap_allocs = 0;
}  // namespace

void* operator new(std::size_t n) {
  g_heap_bytes += n;
  ++g_heap_allocs;
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#include <functional>
#include <string>
#include <vector>

#include "align/overlap.hpp"
#include "align/workspace.hpp"
#include "bench_util.hpp"
#include "util/timer.hpp"

using namespace pgasm;

namespace {

struct BenchPair {
  std::vector<seq::Code> a, b;
  std::int32_t shift = 0;
};

/// Deterministic suffix–prefix overlap pairs: b's prefix repeats a's suffix
/// (with ~2% substitutions), lengths jittered so buffer shapes vary the way
/// a real promising-pair stream varies them.
std::vector<BenchPair> make_pairs(std::size_t n, std::size_t len,
                                  std::size_t overlap, std::uint64_t seed) {
  util::Prng rng(seed);
  std::vector<BenchPair> pairs;
  pairs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    BenchPair p;
    const std::size_t la = len / 2 + rng.below(len);
    const std::size_t lb = len / 2 + rng.below(len);
    const std::size_t ov = std::min({overlap / 2 + rng.below(overlap), la, lb});
    p.a.resize(la);
    for (auto& c : p.a) c = static_cast<seq::Code>(rng.below(4));
    p.b.resize(lb);
    const std::size_t s = la - ov;  // b starts at a[s]
    for (std::size_t j = 0; j < lb; ++j) {
      if (j < ov && rng.below(100) >= 2) {
        p.b[j] = p.a[s + j];
      } else {
        p.b[j] = static_cast<seq::Code>(rng.below(4));
      }
    }
    p.shift = -static_cast<std::int32_t>(s);
    pairs.push_back(std::move(p));
  }
  return pairs;
}

struct Measurement {
  double seconds = 0;
  std::uint64_t cells = 0;  // DP cells over all measured passes
  std::uint64_t heap_bytes = 0;
  std::uint64_t heap_allocs = 0;
  std::uint64_t pairs = 0;
  long long checksum = 0;  // defeats dead-code elimination; printed for diffs

  double pairs_per_sec() const {
    return seconds > 0 ? static_cast<double>(pairs) / seconds : 0;
  }
  double mcups() const {
    return seconds > 0 ? static_cast<double>(cells) / seconds / 1e6 : 0;
  }
  double bytes_per_pair() const {
    return pairs ? static_cast<double>(heap_bytes) /
                       static_cast<double>(pairs)
                 : 0;
  }
  double allocs_per_pair() const {
    return pairs ? static_cast<double>(heap_allocs) /
                       static_cast<double>(pairs)
                 : 0;
  }
};

/// One warmup pass (grows any persistent workspace to its high-water mark),
/// then `reps` measured passes over the whole pair list, each filling
/// `cells_per_pass` DP cells.
Measurement run_variant(const std::vector<BenchPair>& pairs, std::size_t reps,
                        std::uint64_t cells_per_pass,
                        const std::function<long long(const BenchPair&)>& fn) {
  Measurement m;
  for (const BenchPair& p : pairs) m.checksum += fn(p);
  m.checksum = 0;
  const std::uint64_t bytes0 = g_heap_bytes;
  const std::uint64_t allocs0 = g_heap_allocs;
  util::WallTimer t;
  for (std::size_t r = 0; r < reps; ++r) {
    for (const BenchPair& p : pairs) m.checksum += fn(p);
  }
  m.seconds = t.elapsed();
  m.heap_bytes = g_heap_bytes - bytes0;
  m.heap_allocs = g_heap_allocs - allocs0;
  m.pairs = static_cast<std::uint64_t>(pairs.size()) * reps;
  m.cells = cells_per_pass * reps;
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const std::size_t n_pairs = flags.get_u64("pairs", 4000);
  const std::size_t len = flags.get_u64("len", 600);
  const std::size_t overlap = flags.get_u64("overlap", 120);
  const std::uint32_t band = static_cast<std::uint32_t>(flags.get_u64("band", 12));
  const std::size_t reps = flags.get_u64("reps", 3);
  const std::uint64_t seed = flags.get_u64("seed", 17);
  flags.finish();

  bench::print_header(
      "Alignment hot path — overlap kernels",
      "pairs/sec, MCUPS and heap bytes/pair, full vs banded, "
      "with/without reuse");

  const auto pairs = make_pairs(n_pairs, len, overlap, seed);
  const align::Scoring sc;
  std::uint64_t banded_cells = 0, full_cells = 0;
  for (const BenchPair& p : pairs) {
    banded_cells += bench::band_cells(p.a.size(), p.b.size(), p.shift, band);
    full_cells += static_cast<std::uint64_t>(p.a.size() + 1) * (p.b.size() + 1);
  }

  struct Variant {
    const char* name;
    Measurement m;
  };
  std::vector<Variant> variants;

  {  // Scalar allocating reference kernel (fresh buffers every call).
    variants.push_back({"banded_reference",
                        run_variant(pairs, reps, banded_cells,
                                    [&](const BenchPair& p) {
                          return static_cast<long long>(
                              align::banded_overlap_align_reference(
                                  p.a, p.b, sc, p.shift, band)
                                  .aln.score);
                        })});
  }
  {  // Workspace kernel, but a fresh workspace per pair (reuse disabled).
    variants.push_back({"banded_fresh_ws",
                        run_variant(pairs, reps, banded_cells,
                                    [&](const BenchPair& p) {
                          align::Workspace ws;
                          return static_cast<long long>(
                              align::banded_overlap_align(p.a, p.b, sc,
                                                          p.shift, band, ws)
                                  .aln.score);
                        })});
  }
  {  // Workspace kernel with one persistent workspace (the engine path).
    align::Workspace ws;
    variants.push_back({"banded_reuse",
                        run_variant(pairs, reps, banded_cells,
                                    [&](const BenchPair& p) {
                          return static_cast<long long>(
                              align::banded_overlap_align(p.a, p.b, sc,
                                                          p.shift, band, ws)
                                  .aln.score);
                        })});
  }
  {  // Full-matrix end-free alignment, fresh workspace per pair.
    variants.push_back({"full_fresh_ws",
                        run_variant(pairs, reps, full_cells,
                                    [&](const BenchPair& p) {
                          align::Workspace ws;
                          return static_cast<long long>(
                              align::overlap_align(p.a, p.b, sc, ws)
                                  .aln.score);
                        })});
  }
  {  // Full-matrix with one persistent workspace.
    align::Workspace ws;
    variants.push_back({"full_reuse",
                        run_variant(pairs, reps, full_cells,
                                    [&](const BenchPair& p) {
                          return static_cast<long long>(
                              align::overlap_align(p.a, p.b, sc, ws)
                                  .aln.score);
                        })});
  }

  util::Table t({"variant", "pairs/s", "MCUPS", "B/pair", "allocs/pair",
                 "seconds", "checksum"});
  for (const Variant& v : variants) {
    t.add_row({v.name, util::fmt_count(static_cast<std::uint64_t>(
                           v.m.pairs_per_sec())),
               util::fmt_double(v.m.mcups(), 1),
               util::fmt_double(v.m.bytes_per_pair(), 1),
               util::fmt_double(v.m.allocs_per_pair(), 3),
               util::fmt_double(v.m.seconds, 3),
               std::to_string(v.m.checksum)});
  }
  t.print();

  const Measurement& ref = variants[0].m;
  const Measurement& reuse = variants[2].m;
  const double speedup =
      ref.pairs_per_sec() > 0 ? reuse.pairs_per_sec() / ref.pairs_per_sec()
                              : 0;
  const char* sweep =
      align::detail::sweep_name(align::detail::selected_sweep());
  std::printf("\nbanded reuse vs allocating reference: %.2fx pairs/sec, "
              "%.0f -> %.0f heap bytes/pair (%s sweep)\n",
              speedup, ref.bytes_per_pair(), reuse.bytes_per_pair(), sweep);

  bench::BenchJson bj("align_throughput", {"variant"});
  bj.param("pairs", n_pairs);
  bj.param("len", len);
  bj.param("overlap", overlap);
  bj.param("band", static_cast<std::uint64_t>(band));
  bj.param("sweep", sweep);
  bj.param("reps", reps);
  bj.param("seed", seed);
  bj.param("banded_speedup_vs_reference", speedup);
  for (const Variant& v : variants) {
    auto& pt = bj.point();
    pt.set("variant", v.name)
        .set("pairs", v.m.pairs)
        .set("seconds", v.m.seconds)
        .set("pairs_per_sec", v.m.pairs_per_sec())
        .set("mcups", v.m.mcups())
        .set("heap_bytes_per_pair", v.m.bytes_per_pair())
        .set("heap_allocs_per_pair", v.m.allocs_per_pair())
        .set("checksum", static_cast<std::int64_t>(v.m.checksum));
  }
  bj.write();
  return 0;
}
