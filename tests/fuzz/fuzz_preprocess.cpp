// Fuzz harness: preprocess() against a per-position reference.
//
// The reference below is the earlier k-mer layer kept as an oracle: every
// window re-encoded with RepeatMasker::canonical_kmer, the spectrum counted
// in a std::map, the repetitive and vector k-mers held in std::sets. The
// library's rolling scan, radix-sorted spectrum and KmerSet must give the
// same output, field for field.
//
// Input layout: six header bytes, then ops that build a small store.
//   byte 0  repeat k = 1 + b % 32
//   byte 1  vector_k = 1 + b % 32
//   byte 2  sample_fraction = b / 255
//   byte 3  bit 0 qualities, bit 1 mask_repeats, bit 2 uniform_sample_only,
//           bits 3-5 fixed_threshold (0 = the statistic), bits 6-7 pick
//           threshold_multiple from {0 (off), 1, 2, 4}
//   byte 4  min_len = b % 128; vector_search_window = b % 97
//   byte 5  max_masked_fraction = b / 255
// Each op byte's top three bits pick the op and its low five bits are its
// argument:
//   0  new fragment of 4 * (1 + arg) bases, four per following byte;
//   1  identical copy of the fragment the next byte picks (a repeat);
//   2  reverse complement of the fragment the next byte picks;
//   3  slice of 8 + 4 * arg bases of the fragment the next byte picks,
//      starting where the byte after it says;
//   4  a run of 1 + arg / 2 codes in the last fragment, starting where the
//      next byte says, masked when arg is even and else each substituted
//      by the next base (a masked code becomes A);
//   5  low-quality end: 1 + arg bases of quality (next byte) % 20 at the
//      last fragment's 5' end when the byte is even, else its 3' end;
//   6  vector snippet: 8 + arg bases of the library vector the next byte
//      picks, prepended to the last fragment (appended when arg is odd);
//   7  the last fragment's type: arg % 5 over WGS, MF, HC, BAC, ENV.
// Properties (abort on violation):
//   * min_len = 0 is rejected with std::invalid_argument (nothing else is
//     checked for such an input);
//   * preprocess() equals the reference: both stores (codes, types, names,
//     qualities), kept_ids and every PreprocessStats field;
//   * a RepeatMasker built on the decoded store, with the vector library
//     added as known repeats, learns the reference's sorted k-mer set and
//     masks every fragment the same way.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "fuzz_driver.hpp"
#include "preprocess/preprocess.hpp"
#include "sim/reads.hpp"
#include "util/prng.hpp"

namespace {

namespace pre = pgasm::preprocess;
namespace seq = pgasm::seq;

constexpr std::size_t kHeader = 6;
constexpr std::size_t kMaxFragments = 16;
constexpr std::size_t kMaxCodes = 4000;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "fuzz_preprocess property violated: %s\n", what);
    std::abort();
  }
}

// --- reference: the per-position k-mer layer --------------------------------

bool ref_kmer(std::span<const seq::Code> text, std::uint32_t pos,
              std::uint32_t k, std::uint64_t* out) {
  return pre::RepeatMasker::canonical_kmer(text, pos, k, out);
}

class RefMasker {
 public:
  RefMasker(const seq::FragmentStore& store, const pre::RepeatMaskParams& p)
      : k_(p.k) {
    if (p.threshold_multiple <= 0) return;
    pgasm::util::Prng rng(p.seed);
    auto is_uniform = [](seq::FragType t) {
      return t == seq::FragType::kWGS || t == seq::FragType::kEnv;
    };
    bool have_uniform = false;
    if (p.uniform_sample_only) {
      for (seq::FragmentId id = 0; id < store.size() && !have_uniform; ++id)
        have_uniform = is_uniform(store.type(id));
    }
    std::map<std::uint64_t, std::uint32_t> counts;
    for (seq::FragmentId id = 0; id < store.size(); ++id) {
      if (have_uniform && !is_uniform(store.type(id))) continue;
      if (!rng.chance(p.sample_fraction)) continue;
      const auto text = store.seq(id);
      if (text.size() < k_) continue;
      for (std::uint32_t q = 0; q + k_ <= text.size(); ++q) {
        std::uint64_t key;
        if (ref_kmer(text, q, k_, &key)) ++counts[key];
      }
    }
    if (counts.empty()) return;
    if (p.fixed_threshold > 0) {
      threshold_ = p.fixed_threshold;
    } else {
      constexpr std::size_t kCap = 1024;
      std::vector<std::uint64_t> hist(kCap + 1, 0);
      for (const auto& [key, count] : counts)
        ++hist[std::min<std::size_t>(count, kCap)];
      std::size_t rise = 0;
      for (std::size_t c = 3; c <= kCap; ++c) {
        if (hist[c] > hist[c - 1] && hist[c] * 20 >= hist[1]) {
          rise = c;
          break;
        }
      }
      double baseline = 1.0;
      if (rise != 0) {
        std::uint64_t from_rise = 0, total = 0;
        for (std::size_t c = 1; c <= kCap; ++c) {
          total += hist[c];
          if (c >= rise) from_rise += hist[c];
        }
        if (from_rise * 4 >= total) {
          std::size_t peak = rise;
          for (std::size_t c = rise; c <= kCap; ++c)
            if (hist[c] > hist[peak]) peak = c;
          baseline = static_cast<double>(peak);
        }
      }
      threshold_ = std::max<std::uint32_t>(
          p.min_count, static_cast<std::uint32_t>(
                           std::ceil(baseline * p.threshold_multiple)));
    }
    for (const auto& [key, count] : counts)
      if (count >= threshold_) repetitive_.insert(key);
  }

  void add_library_sequence(std::span<const seq::Code> s) {
    for (std::uint32_t q = 0; q + k_ <= s.size(); ++q) {
      std::uint64_t key;
      if (ref_kmer(s, q, k_, &key)) repetitive_.insert(key);
    }
  }

  std::uint64_t mask_fragment(seq::FragmentStore& store,
                              seq::FragmentId id) const {
    if (repetitive_.empty()) return 0;
    const auto text = store.seq(id);
    if (text.size() < k_) return 0;
    std::vector<std::uint8_t> hit(text.size(), 0);
    for (std::uint32_t q = 0; q + k_ <= text.size(); ++q) {
      std::uint64_t key;
      if (ref_kmer(text, q, k_, &key) && repetitive_.count(key))
        std::fill(hit.begin() + q, hit.begin() + q + k_, std::uint8_t{1});
    }
    std::size_t last = SIZE_MAX;
    for (std::size_t q = 0; q < hit.size(); ++q) {
      if (!hit[q]) continue;
      if (last != SIZE_MAX && q - last <= k_ + 1)
        std::fill(hit.begin() + last, hit.begin() + q, std::uint8_t{1});
      last = q;
    }
    std::uint64_t masked = 0;
    auto span = store.mutable_seq(id);
    for (std::size_t q = 0; q < hit.size(); ++q) {
      if (hit[q] && seq::is_base(span[q])) {
        span[q] = seq::kMask;
        ++masked;
      }
    }
    return masked;
  }

  const std::set<std::uint64_t>& repetitive() const { return repetitive_; }

 private:
  std::uint32_t k_;
  std::uint32_t threshold_ = 0;
  std::set<std::uint64_t> repetitive_;
};

std::pair<std::uint32_t, std::uint32_t> ref_quality_range(
    std::span<const std::uint8_t> qual, std::uint32_t window,
    std::uint32_t min_q) {
  const auto n = static_cast<std::uint32_t>(qual.size());
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
  while (lo < hi && qual[lo] < min_q) ++lo;
  while (hi > lo && qual[hi - 1] < min_q) --hi;
  return {lo, hi};
}

std::pair<std::uint32_t, std::uint32_t> ref_clean_range(
    const std::set<std::uint64_t>& kmers, std::uint32_t k,
    std::span<const seq::Code> text, std::uint32_t window) {
  const auto n = static_cast<std::uint32_t>(text.size());
  if (n < k || kmers.empty()) return {0, n};
  std::uint32_t lo = 0, hi = n;
  const std::uint32_t front_end = std::min(window, n - k + 1);
  for (std::uint32_t q = 0; q < front_end; ++q) {
    std::uint64_t key;
    if (ref_kmer(text, q, k, &key) && kmers.count(key))
      lo = std::max(lo, q + k);
  }
  const std::uint32_t back_start = n - k + 1 > window ? n - k + 1 - window : 0;
  for (std::uint32_t q = back_start; q + k <= n; ++q) {
    std::uint64_t key;
    if (ref_kmer(text, q, k, &key) && kmers.count(key)) hi = std::min(hi, q);
  }
  if (lo >= hi) return {0, 0};
  return {lo, hi};
}

pre::PreprocessResult ref_preprocess(
    const seq::FragmentStore& input,
    const std::vector<std::vector<seq::Code>>& vectors,
    const pre::PreprocessParams& params) {
  pre::PreprocessResult result;
  pre::PreprocessStats& stats = result.stats;
  for (seq::FragmentId id = 0; id < input.size(); ++id) {
    auto& ts = stats.by_type[input.type(id)];
    ++ts.fragments_before;
    ts.bases_before += input.length(id);
  }
  std::set<std::uint64_t> vector_kmers;
  for (const auto& v : vectors) {
    for (std::uint32_t q = 0; q + params.vector_k <= v.size(); ++q) {
      std::uint64_t key;
      if (ref_kmer(v, q, params.vector_k, &key)) vector_kmers.insert(key);
    }
  }
  seq::FragmentStore trimmed;
  std::vector<std::uint32_t> trimmed_src;
  for (seq::FragmentId id = 0; id < input.size(); ++id) {
    const auto text = input.seq(id);
    std::uint32_t lo = 0, hi = static_cast<std::uint32_t>(text.size());
    if (input.has_quality()) {
      const auto [qlo, qhi] = ref_quality_range(
          input.quality(id), params.qual_window, params.qual_min);
      stats.quality_trimmed_bases += text.size() - (qhi - qlo);
      lo = qlo;
      hi = qhi;
    }
    if (hi > lo) {
      const auto [vlo, vhi] =
          ref_clean_range(vector_kmers, params.vector_k,
                          text.subspan(lo, hi - lo), params.vector_search_window);
      stats.vector_trimmed_bases += (hi - lo) - (vhi - vlo);
      hi = lo + vhi;
      lo = lo + vlo;
    }
    if (hi - lo < params.min_len) {
      ++stats.discarded_short;
      continue;
    }
    trimmed.add(text.subspan(lo, hi - lo), input.type(id), input.name(id),
                input.has_quality() ? input.quality(id).subspan(lo, hi - lo)
                                    : std::span<const std::uint8_t>{});
    trimmed_src.push_back(id);
  }
  seq::FragmentStore masked = trimmed;
  if (params.mask_repeats) {
    const RefMasker masker(trimmed, params.repeat);
    stats.repetitive_kmers = masker.repetitive().size();
    std::uint64_t fp = 1469598103934665603ull;
    for (const std::uint64_t kmer : masker.repetitive()) {
      fp ^= kmer;
      fp *= 1099511628211ull;
    }
    stats.repeat_spectrum_fingerprint = fp;
    for (seq::FragmentId id = 0; id < masked.size(); ++id)
      stats.masked_bases += masker.mask_fragment(masked, id);
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
    for (const seq::Code c : masked.seq(id)) ts.bases_after += seq::is_base(c);
  }
  return result;
}

// --- comparison --------------------------------------------------------------

bool same_store(const seq::FragmentStore& a, const seq::FragmentStore& b) {
  if (a.size() != b.size() || a.has_quality() != b.has_quality()) return false;
  for (seq::FragmentId id = 0; id < a.size(); ++id) {
    const auto sa = a.seq(id), sb = b.seq(id);
    const auto qa = a.quality(id), qb = b.quality(id);
    if (a.type(id) != b.type(id) || a.name(id) != b.name(id) ||
        !std::equal(sa.begin(), sa.end(), sb.begin(), sb.end()) ||
        !std::equal(qa.begin(), qa.end(), qb.begin(), qb.end()))
      return false;
  }
  return true;
}

bool same_type_stats(const std::map<seq::FragType, pre::TypeStats>& a,
                     const std::map<seq::FragType, pre::TypeStats>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const auto& x, const auto& y) {
                      return x.first == y.first &&
                             x.second.fragments_before ==
                                 y.second.fragments_before &&
                             x.second.bases_before == y.second.bases_before &&
                             x.second.fragments_after ==
                                 y.second.fragments_after &&
                             x.second.bases_after == y.second.bases_after;
                    });
}

// --- decoding ----------------------------------------------------------------

struct Decoded {
  seq::FragmentStore store;
  pre::PreprocessParams params;
};

Decoded decode(const std::uint8_t* data, std::size_t size,
               const std::vector<std::vector<seq::Code>>& vectors) {
  Decoded d;
  pre::PreprocessParams& p = d.params;
  p.repeat.k = 1 + data[0] % 32u;
  p.vector_k = 1 + data[1] % 32u;
  p.repeat.sample_fraction = data[2] / 255.0;
  const bool with_quality = data[3] & 1u;
  p.mask_repeats = data[3] & 2u;
  p.repeat.uniform_sample_only = data[3] & 4u;
  p.repeat.fixed_threshold = (data[3] >> 3) & 7u;
  p.repeat.threshold_multiple = std::array{0.0, 1.0, 2.0, 4.0}[data[3] >> 6];
  p.min_len = data[4] % 128u;
  p.vector_search_window = data[4] % 97u;
  p.max_masked_fraction = data[5] / 255.0;

  struct Frag {
    std::vector<seq::Code> codes;
    std::vector<std::uint8_t> qual;
    seq::FragType type = seq::FragType::kWGS;
  };
  std::vector<Frag> frags;
  std::size_t codes = 0, i = kHeader;
  const auto take = [&](std::uint8_t& b) {
    if (i >= size) return false;
    b = data[i++];
    return true;
  };
  const auto fits = [&](std::size_t more) {
    if (codes + more > kMaxCodes) return false;
    codes += more;
    return true;
  };
  std::uint8_t op = 0, b = 0, c = 0;
  while (take(op)) {
    const std::uint32_t arg = op & 31u;
    const std::uint32_t kind = op >> 5;
    if (kind <= 3) {
      Frag f;
      if (kind == 0) {
        for (std::uint32_t n = 0; n <= arg && take(b); ++n)
          for (int s = 0; s < 8; s += 2)
            f.codes.push_back(static_cast<seq::Code>((b >> s) & 3u));
      } else {
        if (frags.empty() || !take(b)) break;
        const Frag& src = frags[b % frags.size()];
        f.codes = src.codes;
        f.type = src.type;
        if (kind == 2) {
          f.codes = seq::reverse_complement(src.codes);
        } else if (kind == 3) {
          if (!take(c)) break;
          const std::size_t at = c % src.codes.size();
          const std::size_t n =
              std::min<std::size_t>(8 + 4 * arg, src.codes.size() - at);
          f.codes.assign(src.codes.begin() + static_cast<std::ptrdiff_t>(at),
                         src.codes.begin() +
                             static_cast<std::ptrdiff_t>(at + n));
        }
      }
      if (f.codes.empty() || frags.size() == kMaxFragments ||
          !fits(f.codes.size()))
        break;
      f.qual.assign(f.codes.size(), 40);
      frags.push_back(std::move(f));
      continue;
    }
    if (frags.empty() || (kind != 7 && !take(b))) break;
    Frag& last = frags.back();
    const std::size_t len = last.codes.size();
    switch (kind) {
      case 4: {
        // Masked runs restart the k-mer scan; substituted runs break the
        // k-mers of a repeat copy and leave holes for the masker to bridge.
        const std::size_t at = b % len;
        const std::size_t end = std::min(len, at + 1 + arg / 2);
        for (std::size_t q = at; q < end; ++q) {
          seq::Code& code = last.codes[q];
          code = arg % 2 ? static_cast<seq::Code>((code + 1) % seq::kSigma)
                         : seq::kMask;
        }
        break;
      }
      case 5: {
        const std::size_t n = std::min<std::size_t>(1 + arg, len);
        const auto q = static_cast<std::uint8_t>(b % 20);
        if (b % 2 == 0) {
          std::fill_n(last.qual.begin(), n, q);
        } else {
          std::fill_n(last.qual.end() - static_cast<std::ptrdiff_t>(n), n, q);
        }
        break;
      }
      case 6: {
        const auto& v = vectors[b % vectors.size()];
        const std::size_t n = std::min<std::size_t>(8 + arg, v.size());
        if (!fits(n)) {
          i = size;  // over the size cap: stop decoding
          break;
        }
        const auto at = (arg % 2) ? last.codes.end() : last.codes.begin();
        const auto qat = (arg % 2) ? last.qual.end() : last.qual.begin();
        last.codes.insert(at, v.begin(),
                          v.begin() + static_cast<std::ptrdiff_t>(n));
        last.qual.insert(qat, n, std::uint8_t{40});
        break;
      }
      default:
        last.type = std::array{seq::FragType::kWGS, seq::FragType::kMF,
                               seq::FragType::kHC, seq::FragType::kBAC,
                               seq::FragType::kEnv}[arg % 5];
    }
  }
  for (std::size_t n = 0; n < frags.size(); ++n) {
    const Frag& f = frags[n];
    d.store.add(f.codes, f.type, "f" + std::to_string(n),
                with_quality ? std::span<const std::uint8_t>(f.qual)
                             : std::span<const std::uint8_t>{});
  }
  return d;
}

/// Seed input: a fragment op with 4 * n bases drawn from `pattern`.
void add_fragment(std::vector<std::uint8_t>& in, std::size_t n,
                  std::size_t pattern) {
  in.push_back(static_cast<std::uint8_t>(n - 1));
  for (std::size_t k = 0; k < n; ++k)
    in.push_back(static_cast<std::uint8_t>(k * pattern * 37 + k / 3));
}

}  // namespace

std::vector<std::vector<std::uint8_t>> pgasm_fuzz_seeds() {
  std::vector<std::vector<std::uint8_t>> seeds;
  // k = 16, vector_k = 12, full sample, qualities and masking on, fixed
  // threshold 4: a repeat in five copies (one reverse-complemented, one
  // masked), vector ends and low-quality ends.
  std::vector<std::uint8_t> repeats{15, 11, 255, 0x63, 40, 150};
  add_fragment(repeats, 30, 5);
  repeats.insert(repeats.end(), {0x20, 0, 0x20, 0, 0x40, 0, 0x20, 0,
                                 0x80 | 4, 50, 0xC0 | 20, 0, 0xA0 | 9, 2});
  add_fragment(repeats, 24, 3);
  repeats.insert(repeats.end(), {0xC0 | 15, 1, 0xE0 | 1, 0xA0 | 11, 3});
  seeds.push_back(repeats);
  // The statistic at k = 32 and k = 1, mixed types, uniform sampling only.
  std::vector<std::uint8_t> mixed{31, 0, 128, 0xC7, 20, 200};
  add_fragment(mixed, 20, 7);
  mixed.insert(mixed.end(), {0xE0 | 1, 0x20, 0, 0x20, 0, 0xE0 | 4, 0x60 | 6,
                             0, 9, 0x20, 1, 0x20, 1});
  seeds.push_back(mixed);
  // k = 8, fixed threshold 2: copies of a repeat with substituted runs of
  // 8 and 9 bases, holes the masker bridges and does not bridge.
  std::vector<std::uint8_t> holes{7, 11, 255, 0x53, 40, 255};
  add_fragment(holes, 32, 11);
  holes.insert(holes.end(), {0x20, 0, 0x80 | 15, 40, 0x20, 0, 0x80 | 17, 60,
                             0x20, 0});
  seeds.push_back(holes);
  seeds.push_back({0, 0, 0, 0, 0, 0});
  return seeds;
}

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size < kHeader) return 0;
  const auto& vectors = pgasm::sim::vector_library();
  const Decoded d = decode(data, size, vectors);
  if (d.params.min_len == 0) {
    bool rejected = false;
    try {
      (void)pre::preprocess(d.store, vectors, d.params);
    } catch (const std::invalid_argument&) {
      rejected = true;
    }
    check(rejected, "min_len 0 rejected");
    return 0;
  }

  const pre::PreprocessResult got = pre::preprocess(d.store, vectors, d.params);
  const pre::PreprocessResult want = ref_preprocess(d.store, vectors, d.params);
  check(same_store(got.store, want.store), "masked store");
  check(same_store(got.unmasked_store, want.unmasked_store), "unmasked store");
  check(got.kept_ids == want.kept_ids, "kept_ids");
  const pre::PreprocessStats& g = got.stats;
  const pre::PreprocessStats& w = want.stats;
  check(same_type_stats(g.by_type, w.by_type), "by_type stats");
  check(g.quality_trimmed_bases == w.quality_trimmed_bases,
        "quality_trimmed_bases");
  check(g.vector_trimmed_bases == w.vector_trimmed_bases,
        "vector_trimmed_bases");
  check(g.masked_bases == w.masked_bases, "masked_bases");
  check(g.discarded_short == w.discarded_short, "discarded_short");
  check(g.discarded_masked == w.discarded_masked, "discarded_masked");
  check(g.repetitive_kmers == w.repetitive_kmers, "repetitive_kmers");
  check(g.repeat_spectrum_fingerprint == w.repeat_spectrum_fingerprint,
        "repeat_spectrum_fingerprint");

  // Library k-mers merged after the spectrum, then masking in place.
  pre::RepeatMasker masker(d.store, d.params.repeat);
  RefMasker ref(d.store, d.params.repeat);
  for (const auto& v : vectors) {
    masker.add_library_sequence(v);
    ref.add_library_sequence(v);
  }
  const auto& keys = masker.repetitive_kmers();
  check(std::equal(keys.begin(), keys.end(), ref.repetitive().begin(),
                   ref.repetitive().end()),
        "repetitive k-mers after library merge");
  seq::FragmentStore a = d.store, b = d.store;
  for (seq::FragmentId id = 0; id < a.size(); ++id) {
    check(masker.mask_fragment(a, id) == ref.mask_fragment(b, id),
          "masked base count");
  }
  check(same_store(a, b), "masked fragments");
  return 0;
}
