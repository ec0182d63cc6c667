// Statistical repeat detection and masking (paper Sections 8, 9.1).
//
// "Repeats can be identified through their statistical over-representation
// in a random sample. Because WGS fragments themselves comprise a random
// sample, we used ... randomly chosen fragments (0.1X coverage) to predict
// high-copy sequences." We do the same: count canonical k-mers over a
// random subsample of the input fragments; k-mers whose count exceeds a
// threshold (a multiple of the sample mean) are called repetitive, and any
// window of a fragment dominated by repetitive k-mers is masked. An
// optional library of known repeat/vector sequences is screened the same
// way (exact k-mer membership). Every read is scanned once with a rolling
// k-mer (kmer_set.hpp); the spectrum is a radix-sorted, run-length counted
// key list, so it is key-ordered by construction.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "preprocess/kmer_set.hpp"
#include "seq/fragment_store.hpp"

namespace pgasm::preprocess {

struct RepeatMaskParams {
  std::uint32_t k = 16;  ///< in [1, 32]: a key packs k bases in 64 bits
  /// Fraction of fragments sampled to build the k-mer spectrum. Keep the
  /// *sampled coverage* shallow (~0.1-1X, i.e. fraction ~= 1/coverage): the
  /// paper deliberately samples 0.1X so that any k-mer seen several times
  /// is statistically over-represented. Deep samples shift the statistic
  /// into coverage-peak detection, which is noisier.
  double sample_fraction = 0.1;
  /// A k-mer is repetitive when count >= threshold_multiple * mean count
  /// (and >= min_count). 0 disables statistical masking.
  double threshold_multiple = 4.0;
  std::uint32_t min_count = 4;
  /// Non-zero: skip the statistic entirely and use this absolute count.
  std::uint32_t fixed_threshold = 0;
  std::uint64_t seed = 0x5eed;
  /// Build the spectrum only from uniformly-sampled fragment types (WGS /
  /// ENV). The paper derives statistical repeats from "randomly chosen
  /// [WGS] fragments (0.1X coverage)" precisely because gene-enriched
  /// fragments oversample genic k-mers and would poison the statistic.
  /// Falls back to all fragments when no uniform types are present.
  bool uniform_sample_only = true;
};

class RepeatMasker {
 public:
  /// Learn the repetitive k-mer set from a subsample of `store`. Throws
  /// std::invalid_argument unless 1 <= params.k <= 32.
  RepeatMasker(const seq::FragmentStore& store, const RepeatMaskParams& params);

  /// Add every k-mer of a known repeat/vector sequence to the mask set.
  void add_library_sequence(std::span<const seq::Code> sequence);

  /// Mask all positions of fragment `id` covered by a repetitive k-mer.
  /// Returns the number of newly masked bases.
  std::uint64_t mask_fragment(seq::FragmentStore& store,
                              seq::FragmentId id) const;

  std::size_t num_repetitive_kmers() const noexcept { return repetitive_.size(); }
  std::uint32_t threshold() const noexcept { return threshold_; }

  /// The repetitive k-mer set in ascending key order. The set is stored
  /// sorted, so every consumer that iterates the spectrum (the preprocess
  /// fingerprint, reports) sees one fixed order.
  const std::vector<std::uint64_t>& repetitive_kmers() const noexcept {
    return repetitive_.keys();
  }

  /// Canonical (strand-independent) encoding of the k-mer at text[pos..).
  /// Returns false if the window contains a masked base. The per-window
  /// definition that for_each_canonical_kmer rolls; hot paths use that.
  static bool canonical_kmer(std::span<const seq::Code> text,
                             std::uint32_t pos, std::uint32_t k,
                             std::uint64_t* out) noexcept;

 private:
  std::uint32_t k_;
  std::uint32_t threshold_ = 0;
  KmerSet repetitive_;
};

}  // namespace pgasm::preprocess
