// Fragment preprocessing (paper Section 8, Table 2): quality trimming and
// vector screening (the paper uses Lucy), then repeat masking against known
// and statistically-defined repeats. Fragments that end up too short or
// almost entirely masked are invalidated — exactly the effect Table 2
// reports (shotgun loses ~60-65% of fragments to repeats while
// gene-enriched fragments mostly survive).
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "preprocess/repeat_masker.hpp"
#include "seq/fragment_store.hpp"

namespace pgasm::preprocess {

struct PreprocessParams {
  // Quality trimming: trim each end while a sliding window's mean quality
  // is below the threshold. Skipped for stores without quality values.
  std::uint32_t qual_window = 10;
  std::uint32_t qual_min = 20;

  // Vector screening: exact k-mer hits against the vector library within
  // this distance of either end cause trimming past the hit.
  std::uint32_t vector_k = 12;  ///< in [1, 32], like repeat.k
  std::uint32_t vector_search_window = 80;

  RepeatMaskParams repeat{};
  bool mask_repeats = true;  ///< ablation switch (Section 9.1)

  // Invalidation rules.
  std::uint32_t min_len = 100;  ///< >= 1
  double max_masked_fraction = 0.60;
};

struct TypeStats {
  std::uint64_t fragments_before = 0;
  std::uint64_t bases_before = 0;
  std::uint64_t fragments_after = 0;
  std::uint64_t bases_after = 0;  ///< unmasked bases of surviving fragments
};

struct PreprocessStats {
  std::map<seq::FragType, TypeStats> by_type;  ///< Table 2 rows
  std::uint64_t quality_trimmed_bases = 0;
  std::uint64_t vector_trimmed_bases = 0;
  std::uint64_t masked_bases = 0;
  std::uint64_t discarded_short = 0;
  std::uint64_t discarded_masked = 0;
  std::size_t repetitive_kmers = 0;
  /// FNV-1a fold over the key-ordered repetitive-kmer spectrum: a
  /// run-stable fingerprint of what the masker learned. Equal input +
  /// params must yield equal fingerprints at every rank count and
  /// transport — test_determinism asserts exactly that.
  std::uint64_t repeat_spectrum_fingerprint = 0;
};

struct PreprocessResult {
  seq::FragmentStore store;            ///< surviving fragments, masked
  /// The same fragments without repeat masking (still quality/vector
  /// trimmed): clustering runs on the masked store, per-cluster assembly
  /// on the unmasked one (the paper hands CAP3 the original fragments).
  seq::FragmentStore unmasked_store;
  std::vector<std::uint32_t> kept_ids; ///< index into the input store
  PreprocessStats stats;
};

/// Throws std::invalid_argument unless repeat.k and vector_k lie in [1, 32]
/// and min_len >= 1.
void validate_preprocess_params(const PreprocessParams& params);

/// Run the full preprocessing chain (validating `params` first). `vectors` is the cloning-vector
/// library to screen against (see sim::vector_library()).
PreprocessResult preprocess(
    const seq::FragmentStore& input,
    const std::vector<std::vector<seq::Code>>& vectors,
    const PreprocessParams& params);

}  // namespace pgasm::preprocess
