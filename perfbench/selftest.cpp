// Known-answer tests for the benchmark's derived metrics, on hand-built
// layouts and times. Run by perfbench/test_perfbench.py; exits 1 on the
// first failure.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "measures.hpp"

using perfbench::ContigLoci;
using perfbench::Locus;

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

void test_genome_frac() {
  const std::vector<std::uint64_t> len = {1000, 500};
  // Overlapping members [0,300) and [200,500) cover 500 bases of genome 0;
  // a second contig adds [450,600) (100 new bases) and genome 1's [0,100).
  const std::vector<ContigLoci> contigs = {
      {{0, 0, 300}, {0, 200, 500}},
      {{0, 450, 600}, {1, 0, 100}},
      {{0, 800, 1000}},  // singleton contig: not counted
  };
  expect(near(perfbench::genome_frac(contigs, len), 700.0 / 1500.0),
         "genome_frac: union of multi-fragment member intervals");
  expect(near(perfbench::genome_frac({}, len), 0.0), "genome_frac: empty");
  expect(near(perfbench::genome_frac({{{0, 0, 1000}, {0, 0, 1000}}},
                                     std::vector<std::uint64_t>{1000}),
              1.0),
         "genome_frac: full cover");
}

void test_misjoins() {
  const std::vector<ContigLoci> contigs = {
      // overlap, abut (end == begin), then a jump: one misjoin
      {{0, 0, 100}, {0, 50, 150}, {0, 150, 250}, {0, 900, 1000}},
      // different genomes at the same coordinates: a misjoin
      {{0, 0, 100}, {1, 0, 100}},
      // a one-base gap is neither overlap nor abutment
      {{0, 0, 100}, {0, 101, 200}},
      {{0, 5, 10}},
  };
  expect(perfbench::misjoins(contigs) == 3, "misjoins: known layouts");
  expect(perfbench::misjoins({}) == 0, "misjoins: empty");
}

void test_round_robin() {
  const std::vector<double> t = {5, 4, 3, 2, 1};
  const auto rr = perfbench::round_robin(t, 4);
  // rank 0 gets clusters 0 and 4: 5 + 1 = 6; total 15 over 4 ranks.
  expect(near(rr.makespan, 6.0), "rr_makespan: clusters 0 and 4 on rank 0");
  expect(near(rr.imbalance, 6.0 / 3.75), "rr_imbalance");
  const auto two = perfbench::round_robin(t, 2);
  expect(near(two.makespan, 9.0), "rr_makespan: two ranks");
  const auto none = perfbench::round_robin({}, 4);
  expect(near(none.makespan, 0.0) && near(none.imbalance, 1.0),
         "rr: no clusters");
}

void test_banded_cells() {
  // Equal lengths, zero shift: rows 0..3 of a 3x3 problem, band 1.
  // row 0: cols 0..1, rows 1..2: 3 cols each, row 3: cols 2..3.
  expect(perfbench::banded_cells(3, 3, 0, 1) == 10, "banded_cells: small");
  // A shift past the end of b leaves no cells.
  expect(perfbench::banded_cells(3, 3, 10, 1) == 0, "banded_cells: off band");
}

}  // namespace

int main() {
  test_genome_frac();
  test_misjoins();
  test_round_robin();
  test_banded_cells();
  if (failures == 0) std::printf("perfbench selftest: all passed\n");
  return failures == 0 ? 0 : 1;
}
