#include "seq/fragment_store.hpp"

#include <algorithm>
#include <stdexcept>

namespace pgasm::seq {

const char* frag_type_name(FragType t) noexcept {
  switch (t) {
    case FragType::kWGS: return "WGS";
    case FragType::kMF: return "MF";
    case FragType::kHC: return "HC";
    case FragType::kBAC: return "BAC";
    case FragType::kEnv: return "ENV";
    case FragType::kUnknown: return "?";
  }
  return "?";
}

FragmentId FragmentStore::add(std::span<const Code> codes, FragType type,
                              std::string name,
                              std::span<const std::uint8_t> qual) {
  if (!qual.empty() && qual.size() != codes.size())
    throw std::invalid_argument("FragmentStore::add: quality length mismatch");
  // The first non-empty fragment decides whether the store has qualities:
  // an empty one carries none either way.
  if (!qual_.empty() && qual.empty() && !codes.empty())
    throw std::invalid_argument(
        "FragmentStore::add: store has qualities, fragment does not");
  if (qual_.empty() && !qual.empty() && total_length() > 0)
    throw std::invalid_argument(
        "FragmentStore::add: store has no qualities, fragment does");

  if (!text_fits(offsets_.size() + 1, total_length() + codes.size()))
    throw std::length_error("FragmentStore::add: text passes 2^32 codes");

  if (text_.empty()) text_.push_back(kMask);
  const auto id = static_cast<FragmentId>(offsets_.size());
  offsets_.push_back(static_cast<std::uint32_t>(text_.size()));
  lengths_.push_back(static_cast<std::uint32_t>(codes.size()));
  types_.push_back(type);
  names_.push_back(std::move(name));
  // The codes, then the separator after them.
  const std::size_t at = text_.size();
  text_.resize(at + codes.size() + 1, kMask);
  std::transform(codes.begin(), codes.end(), text_.begin() + at,
                 [](Code c) { return std::min(c, kMask); });
  while (block_first_.size() * std::uint64_t{kIdBlock} < text_.size())
    block_first_.push_back(id);
  if (!qual.empty()) qual_.insert(qual_.end(), qual.begin(), qual.end());
  max_length_ = std::max(max_length_, static_cast<std::uint32_t>(codes.size()));
  return id;
}

FragmentId FragmentStore::add_ascii(std::string_view dna, FragType type,
                                    std::string name) {
  const auto codes = encode(dna);
  return add(codes, type, std::move(name));
}

std::string FragmentStore::to_ascii(FragmentId id) const {
  const auto s = seq(id);
  return decode(s.data(), s.size());
}

void FragmentStore::mask(FragmentId id, std::uint32_t begin,
                         std::uint32_t end) {
  end = std::min(end, lengths_[id]);
  auto s = mutable_seq(id);
  for (std::uint32_t i = begin; i < end; ++i) s[i] = kMask;
}

double FragmentStore::masked_fraction(FragmentId id) const noexcept {
  const auto s = seq(id);
  if (s.empty()) return 0.0;
  std::size_t masked = 0;
  for (Code c : s) masked += !is_base(c);
  return static_cast<double>(masked) / static_cast<double>(s.size());
}

std::uint64_t FragmentStore::unmasked_length() const noexcept {
  std::uint64_t n = 0;
  for (Code c : text_) n += is_base(c);
  return n;
}

void FragmentStore::reserve(std::size_t fragments, std::uint64_t chars) {
  offsets_.reserve(fragments);
  lengths_.reserve(fragments);
  types_.reserve(fragments);
  names_.reserve(fragments);
  text_.reserve(chars + fragments + 1);
  block_first_.reserve((chars + fragments + 1) / kIdBlock + 1);
}

std::uint64_t FragmentStore::total_length_of_type(FragType t) const noexcept {
  std::uint64_t sum = 0;
  for (FragmentId i = 0; i < size(); ++i)
    if (types_[i] == t) sum += lengths_[i];
  return sum;
}

std::size_t FragmentStore::count_of_type(FragType t) const noexcept {
  std::size_t n = 0;
  for (FragType ft : types_) n += (ft == t);
  return n;
}

FragmentStore make_doubled_store(const FragmentStore& in) {
  FragmentStore out;
  out.reserve(in.size() * 2, in.total_length() * 2);
  for (FragmentId i = 0; i < in.size(); ++i) {
    const auto fwd = in.seq(i);
    out.add(fwd, in.type(i));
    const auto rc = reverse_complement(fwd.data(), fwd.size());
    out.add(rc, in.type(i));
  }
  return out;
}

}  // namespace pgasm::seq
