#include "core/wire.hpp"

#include <array>
#include <cstdio>
#include <cstring>
#include <type_traits>

#include <unistd.h>  // fsync — durable rename needs the data on disk first

namespace pgasm::core {

namespace {

constexpr std::uint32_t kCheckpointMagic = 0x4b434750;  // "PGCK"
constexpr std::uint32_t kCheckpointVersion = 2;  // v2: input/params hashes

// CRC-32 lookup table (IEEE 802.3 reflected polynomial), built once at
// compile time so crc32 itself is allocation- and lock-free.
constexpr std::array<std::uint32_t, 256> make_crc32_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}

constexpr std::array<std::uint32_t, 256> kCrc32Table = make_crc32_table();

void append_bytes(std::vector<std::byte>& out, const void* data,
                  std::size_t n) {
  const std::size_t base = out.size();
  out.resize(base + n);
  if (n) std::memcpy(out.data() + base, data, n);
}

template <typename T>
void append_pod(std::vector<std::byte>& out, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  append_bytes(out, &v, sizeof(T));
}

template <typename T>
void append_vec(std::vector<std::byte>& out, const std::vector<T>& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  append_pod(out, static_cast<std::uint32_t>(v.size()));
  append_bytes(out, v.data(), v.size() * sizeof(T));
}

// Bounds-checked reader over a received payload. Every read_* either
// succeeds or records a WireError and makes all subsequent reads no-ops, so
// decoders are straight-line code with one failure check at the end.
class Cursor {
 public:
  explicit Cursor(std::span<const std::byte> in) : in_(in) {}

  bool ok() const noexcept { return !failed_; }
  const WireError& error() const noexcept { return err_; }
  std::size_t offset() const noexcept { return off_; }
  bool at_end() const noexcept { return off_ == in_.size(); }

  bool fail(WireErrc code, const char* detail) noexcept {
    if (!failed_) {
      failed_ = true;
      err_ = WireError{code, off_, detail};
    }
    return false;
  }

  template <typename T>
  bool read(T& v, const char* what) noexcept {
    static_assert(std::is_trivially_copyable_v<T>);
    if (failed_) return false;
    if (sizeof(T) > in_.size() - off_) {
      return fail(WireErrc::kTruncated, what);
    }
    std::memcpy(&v, in_.data() + off_, sizeof(T));
    off_ += sizeof(T);
    return true;
  }

  template <typename T>
  bool read_vec(std::vector<T>& v, const char* what) {
    std::uint32_t n = 0;
    return read(n, what) && read_run(v, n, what);
  }

  /// Read `n` elements whose count was decoded separately.
  template <typename T>
  bool read_run(std::vector<T>& v, std::uint64_t n, const char* what) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (!fits(n, sizeof(T), what)) return false;
    v.resize(static_cast<std::size_t>(n));
    if (n) std::memcpy(v.data(), in_.data() + off_, v.size() * sizeof(T));
    off_ += v.size() * sizeof(T);
    return true;
  }

  /// Can `n` elements of at least `min_bytes` each still follow? Checked
  /// BEFORE allocating: a corrupt count must produce a typed error, not a
  /// multi-gigabyte resize. n <= 2^64 / min_bytes guards the product.
  bool fits(std::uint64_t n, std::size_t min_bytes, const char* what) noexcept {
    if (failed_) return false;
    const std::uint64_t left = in_.size() - off_;
    if (n > left / min_bytes) return fail(WireErrc::kTruncated, what);
    return true;
  }

  bool expect_tag(std::uint8_t want, const char* what) noexcept {
    std::uint8_t got = 0;
    if (!read(got, what)) return false;
    if (got != want) {
      // Report the tag's own offset, not the post-read position.
      --off_;
      return fail(WireErrc::kBadTag, what);
    }
    return true;
  }

  bool expect_end(const char* what) noexcept {
    if (failed_) return false;
    if (!at_end()) return fail(WireErrc::kOversized, what);
    return true;
  }

 private:
  std::span<const std::byte> in_;
  std::size_t off_ = 0;
  bool failed_ = false;
  WireError err_{};
};

/// Read a [magic][version] header, failing with kBadMagic / kBadVersion.
void expect_header(Cursor& cur, std::uint32_t magic, std::uint32_t version,
                   const char* what_magic, const char* what_version) {
  std::uint32_t got_magic = 0;
  std::uint32_t got_version = 0;
  if (cur.read(got_magic, what_magic) && got_magic != magic) {
    cur.fail(WireErrc::kBadMagic, what_magic);
  }
  if (cur.read(got_version, what_version) && got_version != version) {
    cur.fail(WireErrc::kBadVersion, what_version);
  }
}

}  // namespace

const char* wire_errc_name(WireErrc code) noexcept {
  switch (code) {
    case WireErrc::kTruncated: return "truncated";
    case WireErrc::kOversized: return "oversized";
    case WireErrc::kBadTag: return "bad_tag";
    case WireErrc::kBadMagic: return "bad_magic";
    case WireErrc::kBadVersion: return "bad_version";
    case WireErrc::kCountMismatch: return "count_mismatch";
    case WireErrc::kBadValue: return "bad_value";
    case WireErrc::kBadCrc: return "bad_crc";
    case WireErrc::kIo: return "io";
  }
  return "unknown";
}

std::string WireError::message() const {
  std::string out = "wire: ";
  out += wire_errc_name(code);
  out += " at offset ";
  out += std::to_string(offset);
  if (detail != nullptr && detail[0] != '\0') {
    out += " (";
    out += detail;
    out += ")";
  }
  return out;
}

std::vector<std::byte> encode_report(const WorkerReport& r) {
  std::vector<std::byte> out;
  out.reserve(22 + r.results.size() * sizeof(ResultMsg) +
              r.new_pairs.size() * sizeof(PairMsg) +
              r.progress.size() * sizeof(RoleProgress));
  append_pod(out, kWireKindReport);
  append_pod(out, r.seq);
  append_vec(out, r.results);
  append_vec(out, r.new_pairs);
  append_vec(out, r.progress);
  append_pod(out, r.exhausted);
  return out;
}

WireResult<WorkerReport> try_decode_report(std::span<const std::byte> bytes) {
  Cursor cur(bytes);
  WorkerReport r;
  cur.expect_tag(kWireKindReport, "report kind tag");
  cur.read(r.seq, "report seq");
  cur.read_vec(r.results, "report results");
  cur.read_vec(r.new_pairs, "report new_pairs");
  cur.read_vec(r.progress, "report progress");
  cur.read(r.exhausted, "report exhausted flag");
  cur.expect_end("report trailing bytes");
  if (!cur.ok()) return cur.error();
  return r;
}

std::vector<std::byte> encode_reply(const MasterReply& r) {
  std::vector<std::byte> out;
  out.reserve(23 + r.batch.size() * sizeof(PairMsg) +
              r.takeovers.size() * sizeof(TakeoverOrder));
  append_pod(out, kWireKindReply);
  append_pod(out, r.seq);
  append_vec(out, r.batch);
  append_vec(out, r.takeovers);
  append_pod(out, r.request_r);
  append_pod(out, r.terminate);
  append_pod(out, r.park);
  return out;
}

WireResult<MasterReply> try_decode_reply(std::span<const std::byte> bytes) {
  Cursor cur(bytes);
  MasterReply r;
  cur.expect_tag(kWireKindReply, "reply kind tag");
  cur.read(r.seq, "reply seq");
  cur.read_vec(r.batch, "reply batch");
  cur.read_vec(r.takeovers, "reply takeovers");
  cur.read(r.request_r, "reply request_r");
  cur.read(r.terminate, "reply terminate flag");
  cur.read(r.park, "reply park flag");
  cur.expect_end("reply trailing bytes");
  if (!cur.ok()) return cur.error();
  return r;
}

std::vector<std::byte> encode_checkpoint(const ClusterCheckpoint& c) {
  std::vector<std::byte> out;
  out.reserve(64 + c.labels.size() * 4 + c.pending.size() * sizeof(PairMsg) +
              c.progress.size() * sizeof(RoleProgress));
  append_pod(out, kCheckpointMagic);
  append_pod(out, kCheckpointVersion);
  append_pod(out, c.epoch);
  append_pod(out, c.num_ranks);
  append_pod(out, c.n_fragments);
  append_pod(out, c.input_hash);
  append_pod(out, c.params_hash);
  append_vec(out, c.labels);
  append_vec(out, c.pending);
  append_vec(out, c.progress);
  append_pod(out, c.pairs_generated);
  append_pod(out, c.pairs_selected);
  append_pod(out, c.pairs_aligned);
  append_pod(out, c.pairs_accepted);
  append_pod(out, c.merges);
  append_pod(out, c.merges_rejected_inconsistent);
  return out;
}

WireResult<ClusterCheckpoint> try_decode_checkpoint(
    std::span<const std::byte> bytes) {
  Cursor cur(bytes);
  expect_header(cur, kCheckpointMagic, kCheckpointVersion, "checkpoint magic",
                "checkpoint version");
  ClusterCheckpoint c;
  cur.read(c.epoch, "checkpoint epoch");
  cur.read(c.num_ranks, "checkpoint num_ranks");
  cur.read(c.n_fragments, "checkpoint n_fragments");
  cur.read(c.input_hash, "checkpoint input_hash");
  cur.read(c.params_hash, "checkpoint params_hash");
  cur.read_vec(c.labels, "checkpoint labels");
  cur.read_vec(c.pending, "checkpoint pending");
  cur.read_vec(c.progress, "checkpoint progress");
  cur.read(c.pairs_generated, "checkpoint pairs_generated");
  cur.read(c.pairs_selected, "checkpoint pairs_selected");
  cur.read(c.pairs_aligned, "checkpoint pairs_aligned");
  cur.read(c.pairs_accepted, "checkpoint pairs_accepted");
  cur.read(c.merges, "checkpoint merges");
  cur.read(c.merges_rejected_inconsistent, "checkpoint merges_rejected");
  cur.expect_end("checkpoint trailing bytes");
  if (!cur.ok()) return cur.error();
  // Semantic validation: restore indexes `first[label]` over n_fragments
  // slots, so a label count or value out of range would corrupt memory long
  // after the decode "succeeded". Reject it here, as a typed error.
  if (c.labels.size() != c.n_fragments) {
    return WireError{WireErrc::kCountMismatch, cur.offset(),
                     "checkpoint label count != n_fragments"};
  }
  for (const std::uint32_t l : c.labels) {
    if (l >= c.n_fragments) {
      return WireError{WireErrc::kBadValue, cur.offset(),
                       "checkpoint label out of range"};
    }
  }
  return c;
}

std::uint32_t crc32(std::span<const std::byte> bytes) noexcept {
  std::uint32_t c = 0xFFFFFFFFu;
  for (const std::byte b : bytes) {
    c = kCrc32Table[(c ^ std::to_integer<std::uint32_t>(b)) & 0xFFu] ^
        (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

std::size_t save_frame_atomic(const std::string& path,
                              std::span<const std::byte> payload) {
  std::vector<std::byte> frame;
  frame.reserve(5 + payload.size());
  append_pod(frame, kFrameVersion);
  append_pod(frame, crc32(payload));
  frame.insert(frame.end(), payload.begin(), payload.end());

  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (!f) throw std::runtime_error("frame: cannot open " + tmp);
  const std::size_t written = std::fwrite(frame.data(), 1, frame.size(), f);
  const bool flushed = std::fflush(f) == 0;
  // A rename is only atomic-durable if the temp file's data already hit the
  // disk; otherwise a crash can leave the final name pointing at garbage.
  const bool synced = flushed && ::fsync(::fileno(f)) == 0;
  std::fclose(f);
  if (written != frame.size() || !synced) {
    std::remove(tmp.c_str());
    throw std::runtime_error("frame: short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("frame: rename failed for " + path);
  }
  return frame.size();
}

WireResult<std::vector<std::byte>> try_load_frame(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return WireError{WireErrc::kIo, 0, "frame file unreadable"};
  std::vector<std::byte> bytes;
  std::byte buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
    bytes.insert(bytes.end(), buf, buf + n);
  const bool read_ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!read_ok) {
    return WireError{WireErrc::kIo, bytes.size(), "frame read error"};
  }
  if (bytes.size() < 5) {
    return WireError{WireErrc::kTruncated, bytes.size(), "frame header"};
  }
  if (std::to_integer<std::uint8_t>(bytes[0]) != kFrameVersion) {
    return WireError{WireErrc::kBadVersion, 0, "frame version"};
  }
  std::uint32_t want = 0;
  std::memcpy(&want, bytes.data() + 1, 4);
  std::vector<std::byte> payload(bytes.begin() + 5, bytes.end());
  if (crc32(payload) != want) {
    return WireError{WireErrc::kBadCrc, 5, "frame payload checksum"};
  }
  return payload;
}

std::size_t save_checkpoint(const std::string& path,
                            const ClusterCheckpoint& c) {
  return save_frame_atomic(path, encode_checkpoint(c));
}

WireResult<ClusterCheckpoint> try_load_checkpoint(const std::string& path) {
  auto frame = try_load_frame(path);
  if (!frame) return frame.error();
  return try_decode_checkpoint(frame.value());
}

void encode_assembly(std::vector<std::byte>& out, std::uint32_t cluster,
                     const olc::AssemblyResult& ar) {
  append_pod(out, cluster);
  append_pod(out, static_cast<std::uint32_t>(ar.contigs.size()));
  append_pod(out, ar.stats.overlaps_considered);
  append_pod(out, ar.stats.overlaps_accepted);
  append_pod(out, ar.stats.layout_conflicts);
  for (const auto& contig : ar.contigs) {
    append_pod(out, static_cast<std::uint64_t>(contig.consensus.size()));
    append_bytes(out, contig.consensus.data(), contig.consensus.size());
    append_pod(out, static_cast<std::uint32_t>(contig.layout.size()));
    for (const auto& pl : contig.layout) {
      append_pod(out, pl.fragment);
      append_pod(out, static_cast<std::uint8_t>(pl.flip ? 1 : 0));
      append_pod(out, pl.offset);
      append_pod(out, pl.length);
    }
  }
}

WireResult<std::vector<ClusterAssembly>> try_decode_assemblies(
    std::span<const std::byte> bytes, std::size_t rank, std::size_t ranks,
    std::size_t n_clusters) {
  // Smallest encodings: a contig is its two counts, a placement 17 bytes.
  constexpr std::size_t kMinContig = 8 + 4;
  constexpr std::size_t kMinPlacement = 4 + 1 + 8 + 4;
  Cursor cur(bytes);
  std::vector<ClusterAssembly> out;
  // Round-robin ownership: rank r assembled clusters r, r + ranks, ...
  for (std::size_t want = rank;
       cur.ok() && (want < n_clusters || !cur.at_end()); want += ranks) {
    if (cur.at_end()) {
      return WireError{WireErrc::kCountMismatch, cur.offset(),
                       "assembly buffer ends before the rank's last cluster"};
    }
    ClusterAssembly rec;
    std::uint32_t n_contigs = 0;
    if (cur.read(rec.cluster, "assembly cluster") &&
        (want >= n_clusters || rec.cluster != want)) {
      return WireError{WireErrc::kBadValue, cur.offset() - 4,
                       "assembly cluster not the rank's next own cluster"};
    }
    cur.read(n_contigs, "assembly contig count");
    auto& stats = rec.result.stats;
    cur.read(stats.overlaps_considered, "assembly overlaps_considered");
    cur.read(stats.overlaps_accepted, "assembly overlaps_accepted");
    cur.read(stats.layout_conflicts, "assembly layout_conflicts");
    if (!cur.fits(n_contigs, kMinContig, "assembly contig count")) break;
    rec.result.contigs.resize(n_contigs);
    for (auto& contig : rec.result.contigs) {
      std::uint64_t len = 0;
      std::uint32_t n_layout = 0;
      cur.read(len, "assembly consensus length");
      cur.read_run(contig.consensus, len, "assembly consensus");
      cur.read(n_layout, "assembly placement count");
      if (!cur.fits(n_layout, kMinPlacement, "assembly placement count")) {
        break;
      }
      contig.layout.resize(n_layout);
      for (auto& pl : contig.layout) {
        std::uint8_t flip = 0;
        cur.read(pl.fragment, "assembly placement fragment");
        cur.read(flip, "assembly placement flip");
        cur.read(pl.offset, "assembly placement offset");
        cur.read(pl.length, "assembly placement length");
        pl.flip = flip != 0;
      }
    }
    out.push_back(std::move(rec));
  }
  if (!cur.ok()) return cur.error();
  return out;
}

}  // namespace pgasm::core
