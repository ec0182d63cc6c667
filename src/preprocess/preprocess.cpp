#include "preprocess/preprocess.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "preprocess/kmer_set.hpp"

namespace pgasm::preprocess {

namespace {

/// Quality trim: returns [lo, hi) — the largest range whose leading and
/// trailing windows clear the threshold. Empty range means discard.
std::pair<std::uint32_t, std::uint32_t> quality_range(
    std::span<const std::uint8_t> qual, std::uint32_t window,
    std::uint32_t min_q) {
  const std::uint32_t n = static_cast<std::uint32_t>(qual.size());
  if (n < window) return {0, 0};
  auto window_ok = [&](std::uint32_t start) {
    std::uint32_t sum = 0;
    for (std::uint32_t i = 0; i < window; ++i) sum += qual[start + i];
    return sum >= min_q * window;
  };
  std::uint32_t lo = 0;
  while (lo + window <= n && !window_ok(lo)) ++lo;
  if (lo + window > n) return {0, 0};
  std::uint32_t hi = n;
  while (hi >= lo + window && !window_ok(hi - window)) --hi;
  if (hi < lo + window) return {0, 0};
  // Refine: drop individual sub-threshold bases still inside the windows.
  while (lo < hi && qual[lo] < min_q) ++lo;
  while (hi > lo && qual[hi - 1] < min_q) --hi;
  return {lo, hi};
}

class VectorScreen {
 public:
  VectorScreen(const std::vector<std::vector<seq::Code>>& vectors,
               std::uint32_t k)
      : k_(k) {
    std::vector<std::uint64_t> keys;
    for (const auto& v : vectors) {
      for_each_canonical_kmer(v, k_, [&](std::uint32_t, std::uint64_t key) {
        keys.push_back(key);
      });
    }
    kmers_ = KmerSet(std::move(keys));
  }

  /// Trim vector-contaminated ends: returns [lo, hi) within [0, len).
  std::pair<std::uint32_t, std::uint32_t> clean_range(
      std::span<const seq::Code> text, std::uint32_t search_window) const {
    const std::uint32_t n = static_cast<std::uint32_t>(text.size());
    if (n < k_ || kmers_.empty()) return {0, n};
    // A hit among the first search_window k-mers trims through its end; a
    // hit among the last search_window k-mers trims from its start.
    std::uint32_t lo = 0, hi = n;
    const std::uint32_t front_end = std::min(search_window, n - k_ + 1);
    for_each_canonical_kmer(
        text.first(front_end + k_ - 1), k_,
        [&](std::uint32_t p, std::uint64_t key) {
          if (kmers_.contains(key)) lo = p + k_;
        });
    const std::uint32_t back_start =
        n - k_ + 1 > search_window ? n - k_ + 1 - search_window : 0;
    for_each_canonical_kmer(
        text.subspan(back_start), k_, [&](std::uint32_t p, std::uint64_t key) {
          if (kmers_.contains(key)) hi = std::min(hi, back_start + p);
        });
    if (lo >= hi) return {0, 0};
    return {lo, hi};
  }

 private:
  std::uint32_t k_;
  KmerSet kmers_;
};

}  // namespace

void validate_preprocess_params(const PreprocessParams& params) {
  validate_kmer_length(params.repeat.k, "preprocess params: repeat.k");
  validate_kmer_length(params.vector_k, "preprocess params: vector_k");
  // A fragment trimmed to nothing would pass a zero length floor and then
  // reach FragmentStore::add as an empty span, which reads as "no
  // qualities" on a store that has them.
  if (params.min_len == 0)
    throw std::invalid_argument("preprocess params: min_len must be >= 1");
}

PreprocessResult preprocess(
    const seq::FragmentStore& input,
    const std::vector<std::vector<seq::Code>>& vectors,
    const PreprocessParams& params) {
  validate_preprocess_params(params);
  PreprocessResult result;
  PreprocessStats& stats = result.stats;

  for (seq::FragmentId id = 0; id < input.size(); ++id) {
    auto& ts = stats.by_type[input.type(id)];
    ++ts.fragments_before;
    ts.bases_before += input.length(id);
  }

  // Pass 1: quality trim + vector screen into an intermediate store.
  const VectorScreen screen(vectors, params.vector_k);
  seq::FragmentStore trimmed;
  std::vector<std::uint32_t> trimmed_src;
  for (seq::FragmentId id = 0; id < input.size(); ++id) {
    const auto text = input.seq(id);
    std::uint32_t lo = 0, hi = static_cast<std::uint32_t>(text.size());
    if (input.has_quality()) {
      const auto [qlo, qhi] = quality_range(input.quality(id),
                                            params.qual_window, params.qual_min);
      stats.quality_trimmed_bases += text.size() - (qhi - qlo);
      lo = qlo;
      hi = qhi;
    }
    if (hi > lo) {
      const auto [vlo, vhi] =
          screen.clean_range(text.subspan(lo, hi - lo),
                             params.vector_search_window);
      stats.vector_trimmed_bases += (hi - lo) - (vhi - vlo);
      hi = lo + vhi;
      lo = lo + vlo;
    }
    if (hi - lo < params.min_len) {
      ++stats.discarded_short;
      continue;
    }
    if (input.has_quality()) {
      trimmed.add(text.subspan(lo, hi - lo), input.type(id), input.name(id),
                  input.quality(id).subspan(lo, hi - lo));
    } else {
      trimmed.add(text.subspan(lo, hi - lo), input.type(id), input.name(id));
    }
    trimmed_src.push_back(id);
  }

  // Pass 2: learn the repeat spectrum from the trimmed survivors, mask a
  // copy, and invalidate fragments that are mostly repetitive. The
  // unmasked trimmed text of each survivor is kept for assembly.
  seq::FragmentStore masked = trimmed;
  if (params.mask_repeats) {
    RepeatMasker masker(trimmed, params.repeat);
    stats.repetitive_kmers = masker.num_repetitive_kmers();
    // Fingerprint over the key-ordered spectrum (W016), so equal spectra
    // fold to equal fingerprints on every run.
    std::uint64_t fp = 1469598103934665603ull;  // FNV-1a offset basis
    for (const std::uint64_t kmer : masker.repetitive_kmers()) {
      fp ^= kmer;
      fp *= 1099511628211ull;  // FNV-1a prime
    }
    stats.repeat_spectrum_fingerprint = fp;
    for (seq::FragmentId id = 0; id < masked.size(); ++id) {
      stats.masked_bases += masker.mask_fragment(masked, id);
    }
  }

  for (seq::FragmentId id = 0; id < masked.size(); ++id) {
    if (masked.masked_fraction(id) > params.max_masked_fraction) {
      ++stats.discarded_masked;
      continue;
    }
    result.store.add(masked.seq(id), masked.type(id), masked.name(id),
                     masked.quality(id));
    result.unmasked_store.add(trimmed.seq(id), trimmed.type(id),
                              trimmed.name(id), trimmed.quality(id));
    result.kept_ids.push_back(trimmed_src[id]);
    auto& ts = stats.by_type[masked.type(id)];
    ++ts.fragments_after;
    const auto s = masked.seq(id);
    for (seq::Code c : s) ts.bases_after += seq::is_base(c);
  }
  return result;
}

}  // namespace pgasm::preprocess
