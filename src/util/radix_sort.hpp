// Radix sorts used on hot paths.
//
// The pair-generation phase (paper Section 5, step S2) sorts GST nodes by
// string-depth; depths are bounded by the maximum fragment length, so a
// counting/LSD radix sort beats comparison sorting and keeps the phase O(N).
// Preprocessing sorts its sampled k-mer keys the same way (paper Section 8).
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

namespace pgasm::util {

/// Counting sort of `items` by key(item) in [0, key_bound), stable.
/// Returns the sorted permutation applied to a copy (input untouched).
template <typename T, typename KeyFn>
std::vector<T> counting_sort(std::span<const T> items, std::uint32_t key_bound,
                             KeyFn&& key) {
  std::vector<std::uint32_t> count(key_bound + 1, 0);
  for (const T& it : items) ++count[key(it) + 1];
  for (std::uint32_t k = 1; k <= key_bound; ++k) count[k] += count[k - 1];
  std::vector<T> out(items.size());
  for (const T& it : items) out[count[key(it)]++] = it;
  return out;
}

/// In-place-ish counting sort descending by key in [0, key_bound). Stable
/// within equal keys (preserves input order).
template <typename T, typename KeyFn>
std::vector<T> counting_sort_desc(std::span<const T> items,
                                  std::uint32_t key_bound, KeyFn&& key) {
  std::vector<std::uint32_t> count(key_bound + 1, 0);
  for (const T& it : items) ++count[key(it)];
  // prefix sums from the top down
  std::vector<std::uint32_t> start(key_bound + 1, 0);
  std::uint32_t acc = 0;
  for (std::int64_t k = key_bound; k >= 0; --k) {
    start[static_cast<std::size_t>(k)] = acc;
    acc += count[static_cast<std::size_t>(k)];
  }
  std::vector<T> out(items.size());
  for (const T& it : items) out[start[key(it)]++] = it;
  return out;
}

namespace detail {

struct NoPayload {};

/// LSD radix sort of `keys` over 16-bit digits, ascending and stable;
/// applies the same permutation to `*payload` unless P is NoPayload.
template <typename P>
void radix_sort_u64(std::vector<std::uint64_t>& keys,
                    std::vector<P>* payload) {
  constexpr bool kPayload = !std::is_same_v<P, NoPayload>;
  const std::size_t n = keys.size();
  std::vector<std::uint64_t> kbuf(n);
  std::vector<P> pbuf(kPayload ? n : 0);
  constexpr int kBits = 16;
  constexpr std::size_t kBuckets = 1u << kBits;
  std::vector<std::uint32_t> count(kBuckets);
  for (int pass = 0; pass < 4; ++pass) {
    const int shift = pass * kBits;
    // Skip passes where all digits are equal (common for small keys).
    std::fill(count.begin(), count.end(), 0u);
    bool trivial = true;
    const std::uint64_t first_digit =
        n ? ((keys[0] >> shift) & (kBuckets - 1)) : 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t d = (keys[i] >> shift) & (kBuckets - 1);
      trivial &= (d == first_digit);
      ++count[d];
    }
    if (trivial) continue;
    std::uint32_t sum = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      const std::uint32_t c = count[b];
      count[b] = sum;
      sum += c;
    }
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t d = (keys[i] >> shift) & (kBuckets - 1);
      kbuf[count[d]] = keys[i];
      if constexpr (kPayload) pbuf[count[d]] = (*payload)[i];
      ++count[d];
    }
    keys.swap(kbuf);
    if constexpr (kPayload) payload->swap(pbuf);
  }
}

}  // namespace detail

/// LSD radix sort of 64-bit keys carrying a payload index; ascending.
/// Sorts `keys` and applies the same permutation to `payload`.
template <typename P>
void radix_sort_u64(std::vector<std::uint64_t>& keys, std::vector<P>& payload) {
  detail::radix_sort_u64(keys, &payload);
}

/// LSD radix sort of 64-bit keys alone; ascending.
inline void radix_sort_u64(std::vector<std::uint64_t>& keys) {
  detail::radix_sort_u64<detail::NoPayload>(keys, nullptr);
}

}  // namespace pgasm::util
