#include "gst/suffix.hpp"

#include <algorithm>

#include "util/contract.hpp"

namespace pgasm::gst {

namespace {

/// Calls fn(begin, end) for each maximal run of bases in text[lo, hi), in
/// ascending order. Separators are kMask, so no run crosses a sequence.
template <class Fn>
void for_each_run(std::span<const seq::Code> text, std::uint32_t lo,
                  std::uint32_t hi, Fn fn) {
  std::uint32_t i = lo;
  while (i < hi) {
    while (i < hi && !seq::is_base(text[i])) ++i;
    const std::uint32_t begin = i;
    while (i < hi && seq::is_base(text[i])) ++i;
    if (begin < i) fn(begin, i);
  }
}

}  // namespace

SuffixSite site_of(const seq::FragmentStore& store, Suffix s) noexcept {
  const auto text = store.text();
  SuffixSite site;
  site.seq = store.id_at(s);
  site.pos = s - store.offset(site.seq);
  while (seq::is_base(text[s + site.len])) ++site.len;
  site.cls = class_of(text, s);
  return site;
}

std::vector<Suffix> enumerate_suffixes_range(const seq::FragmentStore& store,
                                             std::uint32_t seq_begin,
                                             std::uint32_t seq_end,
                                             std::uint32_t min_len) {
  if (seq_begin >= seq_end) return {};
  const auto text = store.text();
  const std::uint32_t lo = store.offset(seq_begin);
  const std::uint32_t hi =
      store.offset(seq_end - 1) + store.length(seq_end - 1);
  // Every position of a run is a suffix reaching the end of the run; those
  // at least `m` long are the run's first (length - m + 1). Count them
  // first, so the result is allocated once at its final size.
  const std::uint32_t m = std::max(min_len, std::uint32_t{1});
  std::size_t count = 0;
  for_each_run(text, lo, hi, [&](std::uint32_t b, std::uint32_t e) {
    if (e - b >= m) count += e - b - m + 1;
  });
  std::vector<Suffix> out;
  out.reserve(count);
  for_each_run(text, lo, hi, [&](std::uint32_t b, std::uint32_t e) {
    for (std::uint32_t s = b; e - s >= m; ++s) out.push_back(s);
  });
  return out;
}

std::vector<Suffix> enumerate_suffixes(const seq::FragmentStore& store,
                                       std::uint32_t min_len) {
  return enumerate_suffixes_range(store, 0,
                                  static_cast<std::uint32_t>(store.size()),
                                  min_len);
}

std::uint32_t bucket_of(const seq::FragmentStore& store, Suffix s,
                        std::uint32_t w) noexcept {
  const seq::Code* text = store.text().data() + s;
  // Caller contract: the suffix is at least w unmasked characters long
  // (enumerate_suffixes filters by min_len >= w), so the window below stays
  // inside the fragment and every code is a 2-bit base.
  PGASM_DCHECK(w <= 16, "bucket prefix wider than 16 bases overflows u32");
  std::uint32_t b = 0;
  for (std::uint32_t i = 0; i < w; ++i) {
    PGASM_DCHECK(seq::is_base(text[i]),
                 "bucket window crosses a masked character");
    b = (b << 2) | text[i];
  }
  return b;
}

}  // namespace pgasm::gst
