// Fuzz harness: run-manifest decode (pipeline recovery supervisor).
//
// try_decode_manifest must be total over arbitrary bytes: a typed
// WireError or a valid manifest, never a crash. Every manifest the decoder
// accepts must satisfy the documented invariants the supervisor relies on
// (phase ids < 64, no duplicate phase entries) and must survive a
// re-encode/decode round trip unchanged — the property that makes a
// persisted manifest trustworthy across restarts.
#include <cstdio>
#include <cstdlib>
#include <span>
#include <vector>

#include "core/wire.hpp"
#include "fuzz_driver.hpp"

namespace {

using pgasm::core::PhaseEntry;
using pgasm::core::RunManifest;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "fuzz_manifest property violated: %s\n", what);
    std::abort();
  }
}

RunManifest sample_manifest() {
  RunManifest m;
  m.generation = 7;
  m.input_hash = 0x1122334455667788ULL;
  m.params_hash = 0x99aabbccddeeff00ULL;
  m.phases.push_back(PhaseEntry{.phase = 0, .attempts = 1, .completed = 1});
  m.phases.push_back(PhaseEntry{.phase = 1, .attempts = 3, .completed = 1});
  m.phases.push_back(PhaseEntry{.phase = 4, .attempts = 2, .degraded = 1});
  return m;
}

}  // namespace

std::vector<std::vector<std::uint8_t>> pgasm_fuzz_seeds() {
  std::vector<std::vector<std::uint8_t>> seeds;
  seeds.push_back(seed_of(pgasm::core::encode_manifest(sample_manifest())));
  seeds.push_back(seed_of(pgasm::core::encode_manifest(RunManifest{})));
  // Invalid by construction: duplicate phase and out-of-range phase id.
  RunManifest dup = sample_manifest();
  dup.phases.push_back(PhaseEntry{.phase = 1, .attempts = 1});
  seeds.push_back(seed_of(pgasm::core::encode_manifest(dup)));
  RunManifest huge = sample_manifest();
  huge.phases.push_back(PhaseEntry{.phase = 64, .attempts = 1});
  seeds.push_back(seed_of(pgasm::core::encode_manifest(huge)));
  // Truncations and bit flips of a valid encoding.
  const auto valid = seeds.front();
  for (std::size_t cut : {std::size_t{0}, std::size_t{4}, valid.size() / 2,
                          valid.size() - 1}) {
    seeds.emplace_back(valid.begin(),
                       valid.begin() + static_cast<std::ptrdiff_t>(cut));
  }
  for (std::size_t flip : {std::size_t{0}, valid.size() / 2,
                           valid.size() - 1}) {
    auto bytes = valid;
    bytes[flip] ^= 0x40;
    seeds.push_back(std::move(bytes));
  }
  return seeds;
}

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  auto decoded = pgasm::core::try_decode_manifest(wire_bytes(data, size));
  if (!decoded) return 0;
  const RunManifest m = std::move(decoded).take_or_throw();

  // Invariants the supervisor depends on when adopting a manifest.
  std::uint64_t seen = 0;
  for (const auto& e : m.phases) {
    check(e.phase < 64, "decoder accepted a phase id >= 64");
    const std::uint64_t bit = 1ULL << e.phase;
    check((seen & bit) == 0, "decoder accepted duplicate phase entries");
    seen |= bit;
  }

  // Round trip: what we persist is what a restarted run reads back.
  const auto bytes = pgasm::core::encode_manifest(m);
  auto again = pgasm::core::try_decode_manifest(bytes);
  check(again.has_value(), "re-encoded manifest failed to decode");
  const RunManifest m2 = std::move(again).take_or_throw();
  check(m2.generation == m.generation && m2.input_hash == m.input_hash &&
            m2.params_hash == m.params_hash &&
            m2.phases.size() == m.phases.size(),
        "manifest round trip changed contents");
  for (std::size_t i = 0; i < m.phases.size(); ++i) {
    check(m2.phases[i].phase == m.phases[i].phase &&
              m2.phases[i].attempts == m.phases[i].attempts &&
              m2.phases[i].completed == m.phases[i].completed &&
              m2.phases[i].degraded == m.phases[i].degraded,
          "manifest round trip changed a phase entry");
  }
  return 0;
}
