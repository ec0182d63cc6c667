#include "preprocess/kmer_set.hpp"

#include <bit>
#include <stdexcept>
#include <string>

#include "util/radix_sort.hpp"

namespace pgasm::preprocess {

void validate_kmer_length(std::uint32_t k, const char* what) {
  if (k < 1 || k > 32) {
    throw std::invalid_argument(std::string(what) + " must be in [1, 32], got " +
                                std::to_string(k));
  }
}

KmerSet::KmerSet(std::vector<std::uint64_t> keys) : keys_(std::move(keys)) {
  sort_and_index();
}

void KmerSet::insert(std::span<const std::uint64_t> keys) {
  keys_.insert(keys_.end(), keys.begin(), keys.end());
  sort_and_index();
}

void KmerSet::sort_and_index() {
  util::radix_sort_u64(keys_);
  keys_.erase(std::unique(keys_.begin(), keys_.end()), keys_.end());
  // The filter size follows from the key count alone: the next power of
  // two >= 64 bits per key (at least one word), indexed by the top bits of
  // a multiplicative hash. At that density about one miss in 64-128 passes
  // the filter.
  const std::uint64_t bits = std::bit_ceil<std::uint64_t>(
      std::max<std::uint64_t>(64, 64 * static_cast<std::uint64_t>(keys_.size())));
  filter_shift_ = 64 - static_cast<std::uint32_t>(std::countr_zero(bits));
  filter_.assign(bits / 64, 0);
  for (const std::uint64_t key : keys_) {
    const std::uint64_t h = (key * kHashMul) >> filter_shift_;
    filter_[h >> 6] |= std::uint64_t{1} << (h & 63);
  }
}

}  // namespace pgasm::preprocess
