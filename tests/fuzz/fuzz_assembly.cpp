// Fuzz harness: assembly gather decode (distributed assembly phase).
//
// The first input byte picks the sending rank (of kRanks); the rest is its
// gather buffer. try_decode_assemblies must be total over arbitrary bytes:
// a typed WireError or a list of records, never a crash or a count-sized
// allocation. An accepted buffer must hold exactly the sender's own
// clusters — rank, rank + kRanks, ... below kClusters, in that order — so
// rank 0 fills every slot once. Re-encoding what was decoded must decode
// to the same bytes again.
#include <cstdio>
#include <cstdlib>
#include <span>
#include <vector>

#include "core/wire.hpp"
#include "fuzz_driver.hpp"

namespace {

constexpr std::size_t kRanks = 3;
constexpr std::size_t kClusters = 7;

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

std::vector<std::byte> encode_all(
    const std::vector<pgasm::core::ClusterAssembly>& recs) {
  std::vector<std::byte> out;
  for (const auto& r : recs) {
    pgasm::core::encode_assembly(out, r.cluster, r.result);
  }
  return out;
}

/// Seed: the sending rank's byte, then its buffer of `clusters`.
std::vector<std::uint8_t> seed(std::uint8_t rank,
                               const std::vector<std::uint32_t>& clusters) {
  std::vector<std::byte> bytes;
  for (const std::uint32_t c : clusters) {
    const auto ar = c % 2 ? sample_assembly() : pgasm::olc::AssemblyResult{};
    pgasm::core::encode_assembly(bytes, c, ar);
  }
  std::vector<std::uint8_t> out = seed_of(bytes);
  out.insert(out.begin(), rank);
  return out;
}

}  // namespace

std::vector<std::vector<std::uint8_t>> pgasm_fuzz_seeds() {
  std::vector<std::vector<std::uint8_t>> seeds;
  const auto valid = seed(1, {1, 4});
  seeds.push_back(valid);
  seeds.push_back(seed(0, {0, 3, 6}));
  seeds.push_back(seed(2, {2, 5}));
  // Invalid by construction: an omitted, a foreign, a repeated and an
  // out-of-range cluster.
  seeds.push_back(seed(1, {1}));
  seeds.push_back(seed(1, {1, 2}));
  seeds.push_back(seed(1, {1, 4, 4}));
  seeds.push_back(seed(1, {1, 4, 7}));
  for (std::size_t cut : {std::size_t{5}, valid.size() / 2,
                          valid.size() - 1}) {
    seeds.emplace_back(valid.begin(),
                       valid.begin() + static_cast<std::ptrdiff_t>(cut));
  }
  for (std::size_t flip : {std::size_t{6}, std::size_t{36},
                           valid.size() - 1}) {
    auto bytes = valid;
    bytes[flip] ^= 0x40;
    seeds.push_back(std::move(bytes));
  }
  return seeds;
}

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size == 0) return 0;
  const std::size_t rank = data[0] % kRanks;
  auto decoded = pgasm::core::try_decode_assemblies(
      wire_bytes(data + 1, size - 1), rank, kRanks, kClusters);
  if (!decoded) return 0;
  const auto recs = std::move(decoded).take_or_throw();
  std::size_t want = rank;
  for (const auto& r : recs) {
    check(r.cluster == want, "decoder accepted a cluster the rank lacks");
    want += kRanks;
  }
  check(want >= kClusters, "decoder accepted a buffer missing an own cluster");
  const auto bytes = encode_all(recs);
  auto again = pgasm::core::try_decode_assemblies(bytes, rank, kRanks,
                                                  kClusters);
  check(again.has_value(), "re-encoded records failed to decode");
  check(encode_all(again.value()) == bytes,
        "assembly round trip changed contents");
  return 0;
}
