// Shared scaffolding for the fuzz harnesses under tests/fuzz/.
//
// Each harness defines the standard libFuzzer entry point plus a builtin
// seed provider:
//
//   extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size);
//   std::vector<std::vector<std::uint8_t>> pgasm_fuzz_seeds();
//
// Build modes:
//   * default (any compiler): fuzz_driver.cpp supplies main() — a bounded,
//     fully deterministic mutational loop over the builtin seeds and any
//     corpus files passed as arguments. This is what the `fuzz-smoke` CI
//     stage runs on every push; it needs no libFuzzer support in the
//     toolchain.
//   * -DPGASM_LIBFUZZER=ON (clang only): the same harness sources are
//     linked with -fsanitize=fuzzer for open-ended coverage-guided runs;
//     the driver main is compiled out.
//
// Harnesses must be total: reject bad input via typed errors/exceptions
// they catch themselves, and never crash, assert, or trip a sanitizer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size);

/// Builtin seed corpus: valid (and near-valid) inputs the mutator starts
/// from, so the bounded smoke run reaches deep decode paths immediately.
std::vector<std::vector<std::uint8_t>> pgasm_fuzz_seeds();

/// The fuzz input as the std::byte span the wire decoders read.
inline std::span<const std::byte> wire_bytes(const std::uint8_t* data,
                                             std::size_t size) {
  return std::as_bytes(std::span(data, size));
}

/// A wire encoder's output as a seed.
inline std::vector<std::uint8_t> seed_of(const std::vector<std::byte>& bytes) {
  std::vector<std::uint8_t> out(bytes.size());
  for (std::size_t i = 0; i < bytes.size(); ++i)
    out[i] = std::to_integer<std::uint8_t>(bytes[i]);
  return out;
}
