#include "preprocess/repeat_masker.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/prng.hpp"
#include "util/radix_sort.hpp"

namespace pgasm::preprocess {

bool RepeatMasker::canonical_kmer(std::span<const seq::Code> text,
                                  std::uint32_t pos, std::uint32_t k,
                                  std::uint64_t* out) noexcept {
  std::uint64_t fwd = 0, rev = 0;
  for (std::uint32_t i = 0; i < k; ++i) {
    const seq::Code c = text[pos + i];
    if (!seq::is_base(c)) return false;
    fwd = (fwd << 2) | c;
    rev |= static_cast<std::uint64_t>(seq::complement(c)) << (2 * i);
  }
  *out = std::min(fwd, rev);
  return true;
}

RepeatMasker::RepeatMasker(const seq::FragmentStore& store,
                           const RepeatMaskParams& params)
    : k_(params.k) {
  validate_kmer_length(k_, "repeat mask params: k");
  if (params.threshold_multiple <= 0) return;
  util::Prng rng(params.seed);
  // Restrict the sample to uniformly-sampled fragment types when present.
  auto is_uniform = [](seq::FragType t) {
    return t == seq::FragType::kWGS || t == seq::FragType::kEnv;
  };
  bool have_uniform = false;
  if (params.uniform_sample_only) {
    for (seq::FragmentId id = 0; id < store.size() && !have_uniform; ++id) {
      have_uniform = is_uniform(store.type(id));
    }
  }
  // One rng draw per eligible fragment, before the length check: the
  // sample, and so the spectrum, depends on that exact draw order.
  std::vector<std::uint64_t> sampled;
  for (seq::FragmentId id = 0; id < store.size(); ++id) {
    if (have_uniform && !is_uniform(store.type(id))) continue;
    if (!rng.chance(params.sample_fraction)) continue;
    const auto text = store.seq(id);
    if (text.size() < k_) continue;
    for_each_canonical_kmer(text, k_, [&](std::uint32_t, std::uint64_t key) {
      sampled.push_back(key);
    });
  }
  if (sampled.empty()) return;
  // The spectrum as (key, count) runs of the sorted sample: key-ordered by
  // construction (W016), so the repetitive set, its fingerprint and
  // repetitive_kmers() see one order everywhere.
  util::radix_sort_u64(sampled);
  std::vector<std::pair<std::uint64_t, std::uint32_t>> spectrum;
  for (std::size_t i = 0; i < sampled.size();) {
    std::size_t j = i + 1;
    while (j < sampled.size() && sampled[j] == sampled[i]) ++j;
    spectrum.emplace_back(sampled[i], static_cast<std::uint32_t>(j - i));
    i = j;
  }
  if (params.fixed_threshold > 0) {
    threshold_ = params.fixed_threshold;
  } else {
    // "Statistical over-representation" baseline (Section 9.1): the unique-
    // sequence coverage peak of the k-mer count histogram. Count-1 k-mers
    // are unreliable (sequencing errors make each errorful k-mer a distinct
    // singleton), so the peak is sought over counts >= 2 and only trusted
    // when it carries real mass relative to the singletons; otherwise the
    // sample is shallow (the paper's 0.1X regime) and the baseline is 1 —
    // any k-mer seen min_count times in a shallow sample is already
    // over-represented.
    constexpr std::size_t kCap = 1024;
    std::vector<std::uint64_t> hist(kCap + 1, 0);
    for (const auto& [key, count] : spectrum) {
      ++hist[std::min<std::size_t>(count, kCap)];
    }
    // Interior coverage peak: the histogram of a shallow sample decays
    // monotonically (unique k-mers are Poisson with mean < ~2), while a
    // deep sample rises again past the error-singleton valley. Only a real
    // rise moves the baseline off 1.
    std::size_t rise = 0;
    for (std::size_t c = 3; c <= kCap; ++c) {
      if (hist[c] > hist[c - 1] && hist[c] * 20 >= hist[1]) {
        rise = c;
        break;
      }
    }
    double baseline = 1.0;
    if (rise != 0) {
      // A genuine coverage peak holds most of the distinct k-mers; an
      // isolated high-copy repeat spike does not — in that case the sample
      // is still "shallow" for unique sequence and the baseline stays 1.
      std::uint64_t mass_from_rise = 0, total_mass = 0;
      for (std::size_t c = 1; c <= kCap; ++c) {
        total_mass += hist[c];
        if (c >= rise) mass_from_rise += hist[c];
      }
      if (mass_from_rise * 4 >= total_mass) {
        std::size_t peak = rise;
        for (std::size_t c = rise; c <= kCap; ++c) {
          if (hist[c] > hist[peak]) peak = c;
        }
        baseline = static_cast<double>(peak);
      }
    }
    threshold_ = std::max<std::uint32_t>(
        params.min_count, static_cast<std::uint32_t>(std::ceil(
                              baseline * params.threshold_multiple)));
  }
  std::vector<std::uint64_t> repetitive;
  for (const auto& [key, count] : spectrum) {
    if (count >= threshold_) repetitive.push_back(key);
  }
  repetitive_ = KmerSet(std::move(repetitive));
}

void RepeatMasker::add_library_sequence(std::span<const seq::Code> sequence) {
  std::vector<std::uint64_t> keys;
  for_each_canonical_kmer(sequence, k_, [&](std::uint32_t, std::uint64_t key) {
    keys.push_back(key);
  });
  repetitive_.insert(keys);
}

std::uint64_t RepeatMasker::mask_fragment(seq::FragmentStore& store,
                                          seq::FragmentId id) const {
  if (repetitive_.empty()) return 0;
  auto text = store.mutable_seq(id);
  // Positions covered by a repetitive k-mer, as maximal runs [lo, hi).
  // Short unmasked holes between hits are bridged: point mutations in
  // diverged repeat copies break individual k-mers but the surrounding
  // sequence is still repeat-derived and must not seed promising pairs. So a
  // hit window joins the open run when at most k unhit positions separate
  // them.
  std::uint64_t masked = 0;
  std::uint32_t lo = 0, hi = 0;
  bool open = false;
  auto flush = [&] {
    for (std::uint32_t p = lo; p < hi; ++p) {
      if (seq::is_base(text[p])) {
        text[p] = seq::kMask;
        ++masked;
      }
    }
  };
  // A flushed run ends at least k positions before the current window, so
  // masking it never changes a base the scan has yet to read.
  for_each_canonical_kmer(text, k_, [&](std::uint32_t p, std::uint64_t key) {
    if (!repetitive_.contains(key)) return;
    if (open && p <= hi + k_) {
      hi = p + k_;
      return;
    }
    flush();  // a no-op before the first run
    lo = p;
    hi = p + k_;
    open = true;
  });
  flush();
  return masked;
}

}  // namespace pgasm::preprocess
