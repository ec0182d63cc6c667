// Wire format for the master-worker clustering protocol (paper Fig. 6).
//
// One worker->master message carries AR (alignment results for the last
// allocated batch) plus NP (a batch of freshly generated promising pairs)
// plus the worker's active/passive flag and per-role generator progress; one
// master->worker reply carries AW (the next alignment batch) plus r (how
// many new pairs to send next) plus any generator-takeover orders.
//
// ClusterCheckpoint serializes the master's recoverable state (union-find
// labels, pending pairs, generator progress) so a killed run can resume.
//
// One encoder and one non-throwing try_decode_* per format, all on
// std::byte: the bytes an encoder returns are what vmpi moves and what the
// CRC frame stores. Error discipline (DESIGN.md section 10): every decoder
// is bounds-checked and total — a truncated, oversized, mistagged, or
// internally inconsistent payload produces a typed WireError, never a read
// past the buffer and never an assert. WireResult::take_or_throw turns that
// error into a WireFormatError (a std::runtime_error) where a caller wants
// one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "olc/assembler.hpp"

namespace pgasm::core {

/// A promising pair in global doubled-store ids. POD for send_vector.
struct PairMsg {
  std::uint32_t seq_a = 0, pos_a = 0;
  std::uint32_t seq_b = 0, pos_b = 0;
  std::uint32_t match_len = 0;
};

/// An alignment outcome reported to the master. Carries the implied
/// relative placement (orientation flags + oriented-frame offset) so the
/// master can run the inconsistent-overlap resolution extension.
struct ResultMsg {
  std::uint32_t frag_a = 0;
  std::uint32_t frag_b = 0;
  std::int32_t delta = 0;  ///< start of b's oriented seq relative to a's
  std::uint8_t accepted = 0;
  std::uint8_t rc_a = 0;
  std::uint8_t rc_b = 0;
  std::uint8_t pad = 0;
};

/// Progress of one pair-generation role (a role = one rank's GST portion;
/// roles migrate to survivors when their owner dies). `emitted` is the
/// absolute position in the role's deterministic pair stream, so a takeover
/// can rebuild the portion and fast-forward to exactly where the dead
/// worker left off.
struct RoleProgress {
  std::uint32_t role = 0;
  std::uint32_t done = 0;
  std::uint64_t emitted = 0;
};

/// Master -> worker order to adopt a dead worker's generation role.
struct TakeoverOrder {
  std::uint32_t role = 0;
  std::uint32_t pad = 0;
  std::uint64_t resume_at = 0;  ///< pairs of the role's stream to skip
};

struct WorkerReport {
  /// 1-based per-worker report sequence number. A retransmitted report
  /// (reply lost or overdue) carries the same seq, so the master can
  /// discard the duplicate and re-send its cached reply instead of folding
  /// the results twice. 0 = unsequenced (never matches a duplicate).
  std::uint64_t seq = 0;
  std::vector<ResultMsg> results;     ///< AR
  std::vector<PairMsg> new_pairs;     ///< NP
  std::vector<RoleProgress> progress; ///< per generation role held
  std::uint8_t exhausted = 0;         ///< all held generators done (passive)
};

struct MasterReply {
  std::uint64_t seq = 0;  ///< echoes the report seq this reply answers
  std::vector<PairMsg> batch;           ///< AW
  std::vector<TakeoverOrder> takeovers; ///< roles to adopt (usually empty)
  std::uint32_t request_r = 0;          ///< pairs to send in the next report
  std::uint8_t terminate = 0;
  /// Passive worker, nothing to align: wait for the next dispatch or
  /// terminate. The report is acknowledged, so the worker's retransmits
  /// while parked are uncapped keepalives, not a countdown to giving up.
  std::uint8_t park = 0;
};

// --- Typed decode errors ----------------------------------------------------

enum class WireErrc : std::uint8_t {
  kTruncated = 1,   ///< payload ends before a field or element run
  kOversized,       ///< trailing bytes after a complete message
  kBadTag,          ///< leading message-kind tag is not the expected one
  kBadMagic,        ///< checkpoint file does not start with "PGCK"
  kBadVersion,      ///< checkpoint format version not understood
  kCountMismatch,   ///< declared element count contradicts another field
  kBadValue,        ///< a decoded field is outside its legal domain
  kBadCrc,          ///< file frame CRC32 does not match the payload
  kIo,              ///< file missing/unreadable (try_load_* only)
};

/// Stable lowercase name for an error code ("truncated", "bad_tag", ...).
const char* wire_errc_name(WireErrc code) noexcept;

struct WireError {
  WireErrc code = WireErrc::kTruncated;
  std::size_t offset = 0;   ///< byte offset at which decoding failed
  const char* detail = "";  ///< static description of the failed check

  /// "wire: truncated at offset 12 (report results)" — for logs/exceptions.
  std::string message() const;
};

/// Thrown by WireResult::take_or_throw; carries the structured error so
/// catch sites can still branch on the code.
class WireFormatError : public std::runtime_error {
 public:
  explicit WireFormatError(const WireError& e)
      : std::runtime_error(e.message()), error_(e) {}
  const WireError& error() const noexcept { return error_; }

 private:
  WireError error_;
};

/// Minimal std::expected-style carrier for decode results (the toolchain is
/// C++20; std::expected arrives in C++23). Holds either the decoded value
/// or a WireError, never both.
template <typename T>
class [[nodiscard]] WireResult {
 public:
  WireResult(T value) : value_(std::move(value)) {}  // NOLINT(*-explicit-*)
  WireResult(WireError error) : error_(error) {}     // NOLINT(*-explicit-*)

  explicit operator bool() const noexcept { return value_.has_value(); }
  bool has_value() const noexcept { return value_.has_value(); }

  T& value() & { return *value_; }
  const T& value() const& { return *value_; }
  T&& value() && { return *std::move(value_); }

  const WireError& error() const noexcept { return error_; }

  /// Unwrap, raising WireFormatError when this holds an error.
  T take_or_throw() && {
    if (!value_.has_value()) throw WireFormatError(error_);
    return *std::move(value_);
  }

 private:
  std::optional<T> value_;
  WireError error_{};
};

// --- Codecs -----------------------------------------------------------------
//
// Every message starts with a one-byte kind tag (kWireKindReport /
// kWireKindReply; checkpoints carry their magic+version header instead), so
// a payload routed to the wrong decoder fails fast with WireErrc::kBadTag
// instead of being misread as a plausible message.

inline constexpr std::uint8_t kWireKindReport = 0x52;  // 'R'
inline constexpr std::uint8_t kWireKindReply = 0x59;   // 'Y'

// Encoders build the final payload in one exact-size allocation (POD
// batches memcpy'd from their spans), so it can be MOVED into the
// destination mailbox via Comm::send_payload; decoders read straight from
// the received buffer.
std::vector<std::byte> encode_report(const WorkerReport& r);
WireResult<WorkerReport> try_decode_report(std::span<const std::byte> bytes);
std::vector<std::byte> encode_reply(const MasterReply& r);
WireResult<MasterReply> try_decode_reply(std::span<const std::byte> bytes);

/// Master-side recoverable state, written periodically during a run.
/// Invariant at write time: every pair the master has ever received is
/// either reflected in `labels` (merged), filtered out (redundant), or
/// present in `pending` (which includes batches in flight to workers), so
/// resuming loses no work and re-aligns nothing already merged.
struct ClusterCheckpoint {
  std::uint64_t epoch = 0;      ///< checkpoint sequence number, 1-based
  std::uint32_t num_ranks = 0;  ///< ranks of the writing run
  std::uint32_t n_fragments = 0;
  /// Content hash of the input fragment store and of the partition-relevant
  /// clustering parameters (cluster_input_hash / cluster_params_hash).
  /// Resume refuses a checkpoint whose hashes do not match the run's — a
  /// stale file from a different input or configuration would otherwise be
  /// resumed silently and produce a wrong partition. 0 = unknown (hand-built
  /// checkpoints), which skips the check.
  std::uint64_t input_hash = 0;
  std::uint64_t params_hash = 0;
  std::vector<std::uint32_t> labels;  ///< union-find dense labeling
  std::vector<PairMsg> pending;       ///< selected pairs not yet folded
  std::vector<RoleProgress> progress; ///< per-role generation positions
  std::uint64_t pairs_generated = 0;
  std::uint64_t pairs_selected = 0;
  std::uint64_t pairs_aligned = 0;
  std::uint64_t pairs_accepted = 0;
  std::uint64_t merges = 0;
  std::uint64_t merges_rejected_inconsistent = 0;
};

std::vector<std::byte> encode_checkpoint(const ClusterCheckpoint& c);

/// Beyond framing, validates the semantic invariants a resume relies on:
/// labels.size() == n_fragments and every label value < n_fragments (a
/// corrupt label would index out of bounds in MasterScheduler::restore).
WireResult<ClusterCheckpoint> try_decode_checkpoint(
    std::span<const std::byte> bytes);

// --- CRC-protected file frame ----------------------------------------------
//
// Every durable artifact (the PGCK cluster checkpoint) is stored inside
// one on-disk frame:
//
//   [u8 frame_version][u32 crc32(payload)][payload bytes]
//
// The frame is written atomically — temp file, fwrite, fflush, fsync,
// rename — and a load first verifies the CRC before any payload decoder
// runs, so a truncated or bit-flipped file surfaces as a typed
// kBadCrc/kTruncated error and is never trusted. This is the only
// sanctioned way to write checkpoint files (pgasm-lint W011).

inline constexpr std::uint8_t kFrameVersion = 1;

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over `bytes`.
std::uint32_t crc32(std::span<const std::byte> bytes) noexcept;

/// Atomically write `payload` to `path` wrapped in the CRC frame; returns
/// the bytes written (payload + 5-byte header). Throws std::runtime_error
/// on any filesystem failure (the temp file is removed before throwing).
std::size_t save_frame_atomic(const std::string& path,
                              std::span<const std::byte> payload);

/// Read a CRC frame back; returns the verified payload bytes. kIo for
/// filesystem problems, kTruncated for a file shorter than the header,
/// kBadVersion for an unknown frame version, kBadCrc on checksum mismatch.
WireResult<std::vector<std::byte>> try_load_frame(const std::string& path);

/// The only writer of checkpoint files: atomic CRC-framed write, returning
/// the frame bytes written (for recovery.checkpoint_bytes). The load
/// reports a missing file as kIo and a torn or corrupt one as kBadCrc.
std::size_t save_checkpoint(const std::string& path,
                            const ClusterCheckpoint& c);
WireResult<ClusterCheckpoint> try_load_checkpoint(const std::string& path);

// --- Assembly results (distributed assembly phase) ---------------------------

/// One cluster's assembly as a worker rank ships it to rank 0.
struct ClusterAssembly {
  std::uint32_t cluster = 0;  ///< index into the run's assembled clusters
  olc::AssemblyResult result;
};

/// Append one record to a gather buffer; a buffer is records back to back,
/// with no tag or count in front. Record layout (native byte order):
///   [u32 cluster][u32 n_contigs][u64 overlaps_considered]
///   [u64 overlaps_accepted][u64 layout_conflicts]
///   n_contigs × ([u64 len][len consensus codes][u32 n_layout]
///                n_layout × [u32 fragment][u8 flip][i64 offset][u32 length])
void encode_assembly(std::vector<std::byte>& out, std::uint32_t cluster,
                     const olc::AssemblyResult& ar);

/// Decode the whole gather buffer of `rank` out of `ranks`. Clusters are
/// dealt round-robin, so the buffer must hold exactly clusters rank,
/// rank + ranks, ... below n_clusters, in that order: a foreign, repeated
/// or out-of-order index is kBadValue and a buffer that ends before the
/// last owned cluster is kCountMismatch. Total over arbitrary bytes: a
/// contig, placement or consensus count that cannot fit in the remaining
/// bytes is kTruncated, checked before anything is allocated.
WireResult<std::vector<ClusterAssembly>> try_decode_assemblies(
    std::span<const std::byte> bytes, std::size_t rank, std::size_t ranks,
    std::size_t n_clusters);

}  // namespace pgasm::core
