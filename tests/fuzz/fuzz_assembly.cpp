// Fuzz harness: assembly gather decode (distributed assembly phase).
//
// try_decode_assemblies must be total over arbitrary bytes: a typed
// WireError or a list of records, never a crash or a count-sized
// allocation. Every accepted record must name a cluster below the bound
// rank 0 indexes with, and re-encoding what was decoded must decode to the
// same bytes again.
#include <cstdio>
#include <cstdlib>
#include <span>
#include <vector>

#include "core/wire.hpp"
#include "fuzz_driver.hpp"

namespace {

constexpr std::size_t kClusters = 4;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "fuzz_assembly property violated: %s\n", what);
    std::abort();
  }
}

pgasm::olc::AssemblyResult sample_assembly() {
  pgasm::olc::AssemblyResult ar;
  ar.stats = {.overlaps_considered = 9, .overlaps_accepted = 3,
              .layout_conflicts = 1};
  pgasm::olc::Contig c;
  c.consensus = {0, 1, 2, 3, 4};
  c.layout.push_back({.fragment = 2, .flip = false, .offset = 0, .length = 5});
  c.layout.push_back({.fragment = 5, .flip = true, .offset = 2, .length = 3});
  ar.contigs.push_back(c);
  return ar;
}

std::vector<std::uint8_t> encode_all(
    const std::vector<pgasm::core::ClusterAssembly>& recs) {
  std::vector<std::uint8_t> out;
  for (const auto& r : recs) {
    pgasm::core::encode_assembly(out, r.cluster, r.result);
  }
  return out;
}

}  // namespace

std::vector<std::vector<std::uint8_t>> pgasm_fuzz_seeds() {
  std::vector<std::vector<std::uint8_t>> seeds;
  std::vector<std::uint8_t> valid;
  pgasm::core::encode_assembly(valid, 1, sample_assembly());
  pgasm::core::encode_assembly(valid, 3, pgasm::olc::AssemblyResult{});
  seeds.push_back(valid);
  seeds.emplace_back();
  // Invalid by construction: a cluster index past the bound.
  std::vector<std::uint8_t> bad_index;
  pgasm::core::encode_assembly(bad_index, kClusters, sample_assembly());
  seeds.push_back(bad_index);
  for (std::size_t cut : {std::size_t{4}, valid.size() / 2,
                          valid.size() - 1}) {
    seeds.emplace_back(valid.begin(),
                       valid.begin() + static_cast<std::ptrdiff_t>(cut));
  }
  for (std::size_t flip : {std::size_t{5}, std::size_t{35},
                           valid.size() - 1}) {
    auto bytes = valid;
    bytes[flip] ^= 0x40;
    seeds.push_back(std::move(bytes));
  }
  return seeds;
}

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  auto decoded = pgasm::core::try_decode_assemblies(
      std::span<const std::uint8_t>(data, size), kClusters);
  if (!decoded) return 0;
  const auto recs = std::move(decoded).take_or_throw();
  for (const auto& r : recs) {
    check(r.cluster < kClusters, "decoder accepted an out-of-range cluster");
  }
  const auto bytes = encode_all(recs);
  auto again = pgasm::core::try_decode_assemblies(
      std::span<const std::uint8_t>(bytes), kClusters);
  check(again.has_value(), "re-encoded records failed to decode");
  check(encode_all(again.value()) == bytes,
        "assembly round trip changed contents");
  return 0;
}
