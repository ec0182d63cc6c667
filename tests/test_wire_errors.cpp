// Regression tests for the typed wire-decode error discipline (DESIGN.md
// section 10): truncated/mistagged/corrupt payloads must surface as
// WireError values (or WireFormatError from take_or_throw), never as
// out-of-bounds reads, and the protocol layer must recover from duplicates
// and drops via the seq/cached-reply mechanism.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "core/cluster_protocol.hpp"
#include "core/cluster_scheduler.hpp"
#include "core/wire.hpp"
#include "vmpi/runtime.hpp"

namespace pgasm::core {
namespace {

WorkerReport sample_report() {
  WorkerReport r;
  r.seq = 3;
  r.results.push_back(ResultMsg{1, 2, -5, 1, 0, 1, 0});
  r.results.push_back(ResultMsg{3, 4, 9, 0, 1, 0, 0});
  r.new_pairs.push_back(PairMsg{10, 11, 12, 13, 14});
  r.progress.push_back(RoleProgress{1, 0, 77});
  r.exhausted = 1;
  return r;
}

MasterReply sample_reply() {
  MasterReply r;
  r.seq = 3;
  r.batch.push_back(PairMsg{1, 2, 3, 4, 5});
  r.takeovers.push_back(TakeoverOrder{2, 0, 1000});
  r.request_r = 64;
  r.park = 1;
  return r;
}

ClusterCheckpoint sample_checkpoint() {
  ClusterCheckpoint c;
  c.epoch = 4;
  c.num_ranks = 3;
  c.n_fragments = 5;
  c.labels = {0, 1, 1, 0, 4};
  c.pending.push_back(PairMsg{1, 2, 3, 4, 5});
  c.progress.push_back(RoleProgress{1, 1, 50});
  c.pairs_generated = 9;
  return c;
}

// Every strict prefix of a valid payload must decode to a typed error (all
// kTruncated except the empty/1-byte prefixes of the kind tag itself).
TEST(WireErrors, TruncatedReportPrefixesYieldTypedErrors) {
  const auto bytes = encode_report(sample_report());
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    auto r = try_decode_report(std::span(bytes.data(), cut));
    ASSERT_FALSE(r.has_value()) << "prefix of " << cut << " bytes decoded";
    EXPECT_EQ(r.error().code, WireErrc::kTruncated) << "cut=" << cut;
  }
  // The full payload still round-trips.
  auto ok = try_decode_report(bytes);
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(encode_report(ok.value()), bytes);
}

TEST(WireErrors, TruncatedReplyPrefixesYieldTypedErrors) {
  const auto bytes = encode_reply(sample_reply());
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    auto r = try_decode_reply(std::span(bytes.data(), cut));
    ASSERT_FALSE(r.has_value()) << "prefix of " << cut << " bytes decoded";
    EXPECT_EQ(r.error().code, WireErrc::kTruncated) << "cut=" << cut;
  }
  auto ok = try_decode_reply(bytes);
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(encode_reply(ok.value()), bytes);
}

TEST(WireErrors, GarbageKindTagIsBadTag) {
  auto report_bytes = encode_report(sample_report());
  report_bytes[0] = std::byte{0x00};
  auto r = try_decode_report(report_bytes);
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error().code, WireErrc::kBadTag);

  // A reply payload routed to the report decoder (the misrouting the kind
  // byte exists to catch) also fails with kBadTag, not a misparse.
  const auto reply_bytes = encode_reply(sample_reply());
  auto misrouted = try_decode_report(reply_bytes);
  ASSERT_FALSE(misrouted.has_value());
  EXPECT_EQ(misrouted.error().code, WireErrc::kBadTag);

  auto reply_as_reply = try_decode_reply(report_bytes);
  ASSERT_FALSE(reply_as_reply.has_value());
  EXPECT_EQ(reply_as_reply.error().code, WireErrc::kBadTag);
}

TEST(WireErrors, TrailingBytesAreOversized) {
  auto bytes = encode_report(sample_report());
  bytes.push_back(std::byte{0xAB});
  auto r = try_decode_report(bytes);
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error().code, WireErrc::kOversized);
  EXPECT_EQ(r.error().offset, bytes.size() - 1);
}

TEST(WireErrors, HugeElementCountFailsBeforeAllocating) {
  // [kind][seq u64][results count u64 = 2^61]: the decoder must reject the
  // count against the remaining buffer size instead of trying to reserve.
  std::vector<std::byte> bytes{std::byte{kWireKindReport}};
  bytes.resize(1 + 8 + 7);  // seq, count's low bytes
  bytes.push_back(std::byte{0x20});  // count's high byte
  auto r = try_decode_report(bytes);
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error().code, WireErrc::kTruncated);
}

TEST(WireErrors, LegacyDecodeThrowsWireFormatErrorWithCode) {
  auto bytes = encode_reply(sample_reply());
  bytes.resize(bytes.size() / 2);
  try {
    (void)try_decode_reply(bytes).take_or_throw();
    FAIL() << "take_or_throw accepted a truncated payload";
  } catch (const WireFormatError& e) {
    EXPECT_EQ(e.error().code, WireErrc::kTruncated);
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos);
  }
}

TEST(WireErrors, CheckpointBadMagicAndStaleVersion) {
  auto bytes = encode_checkpoint(sample_checkpoint());
  {
    auto tampered = bytes;
    tampered[0] = std::byte{'X'};  // magic is the first little-endian u32
    auto r = try_decode_checkpoint(tampered);
    ASSERT_FALSE(r.has_value());
    EXPECT_EQ(r.error().code, WireErrc::kBadMagic);
  }
  {
    auto tampered = bytes;
    tampered[4] = std::byte{0x7F};  // version u32 follows the magic
    auto r = try_decode_checkpoint(tampered);
    ASSERT_FALSE(r.has_value());
    EXPECT_EQ(r.error().code, WireErrc::kBadVersion);
  }
}

TEST(WireErrors, CheckpointLabelCountMismatchIsTyped) {
  auto ck = sample_checkpoint();
  ck.labels.pop_back();  // labels.size() != n_fragments
  const auto bytes = encode_checkpoint(ck);
  auto r = try_decode_checkpoint(bytes);
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error().code, WireErrc::kCountMismatch);
}

TEST(WireErrors, CheckpointLabelOutOfRangeIsTyped) {
  auto ck = sample_checkpoint();
  ck.labels[2] = ck.n_fragments;  // one past the legal label domain
  const auto bytes = encode_checkpoint(ck);
  auto r = try_decode_checkpoint(bytes);
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error().code, WireErrc::kBadValue);
}

// Regression: MasterScheduler::restore must reject hand-built checkpoints
// with out-of-range labels instead of writing past its scratch array (the
// decoder validation above only guards checkpoints that came over the wire).
TEST(WireErrors, RestoreRejectsOutOfRangeLabels) {
  seq::FragmentStore plain;
  plain.add_ascii("ACGTACGTACGTACGT");
  plain.add_ascii("TTTTACGTACGTACGT");
  const auto doubled = seq::make_doubled_store(plain);
  MasterScheduler sched(doubled, ClusterParams{}, /*p=*/2);

  ClusterCheckpoint ck;
  ck.epoch = 1;
  ck.num_ranks = 2;
  ck.n_fragments = 2;
  ck.labels = {0, 1000};  // way out of range
  EXPECT_THROW(sched.restore(ck), std::invalid_argument);

  ClusterCheckpoint short_labels;
  short_labels.epoch = 1;
  short_labels.num_ranks = 2;
  short_labels.n_fragments = 2;
  short_labels.labels = {0};  // count mismatch
  EXPECT_THROW(sched.restore(short_labels), std::invalid_argument);
}

TEST(WireErrors, TryLoadCheckpointMissingFileIsIo) {
  auto r = try_load_checkpoint("/nonexistent/pgasm-ckpt-does-not-exist");
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error().code, WireErrc::kIo);
}

TEST(WireErrors, TryLoadCheckpointRoundTripsThroughDisk) {
  const auto ck = sample_checkpoint();
  const std::string path =
      testing::TempDir() + "/pgasm_wire_errors_ckpt.bin";
  save_checkpoint(path, ck);
  auto r = try_load_checkpoint(path);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r.value().epoch, ck.epoch);
  EXPECT_EQ(r.value().labels, ck.labels);
  std::remove(path.c_str());
}

// --- CRC-protected file frame ----------------------------------------------

// A checkpoint file with flipped payload bits must be rejected with kBadCrc
// (typed, loud) — before this frame existed, a flipped label bit inside an
// otherwise well-formed PGCK payload decoded silently into a wrong
// partition on resume.
TEST(WireErrors, BitFlippedCheckpointFileIsBadCrc) {
  const auto ck = sample_checkpoint();
  const std::string path = testing::TempDir() + "/pgasm_crc_flip.pgck";
  save_checkpoint(path, ck);

  // Flip one bit in every payload byte position in turn; each corruption
  // must surface as kBadCrc (the version byte yields kBadVersion instead).
  const auto original = [&] {
    auto frame = try_load_frame(path);
    EXPECT_TRUE(frame.has_value());
    return std::move(frame).take_or_throw();
  }();
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::vector<std::byte> file_bytes(original.size() + 5);
  ASSERT_EQ(std::fread(file_bytes.data(), 1, file_bytes.size(), f),
            file_bytes.size());
  std::fclose(f);

  for (const std::size_t pos :
       {std::size_t{5}, std::size_t{9}, file_bytes.size() - 1}) {
    auto tampered = file_bytes;
    tampered[pos] ^= std::byte{0x01};
    // pgasm-lint: allow(raw-ckpt-write): deliberately corrupting a frame on
    // disk to prove the loader rejects it.
    std::FILE* out = std::fopen(path.c_str(), "wb");
    ASSERT_NE(out, nullptr);
    ASSERT_EQ(std::fwrite(tampered.data(), 1, tampered.size(), out),
              tampered.size());
    std::fclose(out);
    auto r = try_load_checkpoint(path);
    ASSERT_FALSE(r.has_value()) << "bit flip at " << pos << " accepted";
    EXPECT_EQ(r.error().code, WireErrc::kBadCrc) << "pos=" << pos;
  }
  std::remove(path.c_str());
}

TEST(WireErrors, TruncatedCheckpointFileIsTyped) {
  const auto ck = sample_checkpoint();
  const std::string path = testing::TempDir() + "/pgasm_crc_trunc.pgck";
  save_checkpoint(path, ck);
  auto frame = try_load_frame(path);
  ASSERT_TRUE(frame.has_value());
  const auto payload = std::move(frame).take_or_throw();

  std::vector<std::byte> file_bytes;
  file_bytes.push_back(std::byte{kFrameVersion});
  const std::uint32_t crc = crc32(payload);
  for (int i = 0; i < 4; ++i)
    file_bytes.push_back(static_cast<std::byte>(crc >> (8 * i)));
  file_bytes.insert(file_bytes.end(), payload.begin(), payload.end());

  for (const std::size_t cut : {std::size_t{0}, std::size_t{3},
                                file_bytes.size() / 2,
                                file_bytes.size() - 1}) {
    // pgasm-lint: allow(raw-ckpt-write): writing a deliberately truncated
    // frame to prove the loader rejects it.
    std::FILE* out = std::fopen(path.c_str(), "wb");
    ASSERT_NE(out, nullptr);
    ASSERT_EQ(std::fwrite(file_bytes.data(), 1, cut, out), cut);
    std::fclose(out);
    auto r = try_load_checkpoint(path);
    ASSERT_FALSE(r.has_value()) << "truncation at " << cut << " accepted";
    EXPECT_TRUE(r.error().code == WireErrc::kTruncated ||
                r.error().code == WireErrc::kBadCrc)
        << "cut=" << cut << ": " << wire_errc_name(r.error().code);
  }
  std::remove(path.c_str());
}

TEST(WireErrors, UnknownFrameVersionIsTyped) {
  const std::string path = testing::TempDir() + "/pgasm_crc_ver.pgck";
  save_checkpoint(path, sample_checkpoint());
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  const std::uint8_t bogus = 0x7E;
  ASSERT_EQ(std::fwrite(&bogus, 1, 1, f), 1u);
  std::fclose(f);
  auto r = try_load_checkpoint(path);
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error().code, WireErrc::kBadVersion);
  std::remove(path.c_str());
}

TEST(WireErrors, Crc32MatchesKnownVector) {
  // The standard reflected CRC-32 of "123456789" (check value).
  const char* s = "123456789";
  const auto crc = crc32(std::as_bytes(std::span(s, 9)));
  EXPECT_EQ(crc, 0xCBF43926u);
}

// --- Run manifest & GST checkpoint codecs -----------------------------------

RunManifest sample_manifest() {
  RunManifest m;
  m.generation = 7;
  m.input_hash = 0x1111222233334444ULL;
  m.params_hash = 0x5555666677778888ULL;
  m.phases.push_back(PhaseEntry{0, 1, 1, 0, 0, 0});
  m.phases.push_back(PhaseEntry{1, 3, 1, 0, 0, 0});
  m.phases.push_back(PhaseEntry{3, 3, 0, 1, 0, 0});
  return m;
}

TEST(WireErrors, ManifestRoundTripsThroughDisk) {
  const auto m = sample_manifest();
  const std::string path = testing::TempDir() + "/pgasm_manifest.pgmf";
  save_manifest(path, m);
  auto r = try_load_manifest(path);
  ASSERT_TRUE(r.has_value()) << r.error().message();
  EXPECT_EQ(r.value().generation, 7u);
  EXPECT_EQ(r.value().input_hash, m.input_hash);
  ASSERT_EQ(r.value().phases.size(), 3u);
  EXPECT_EQ(r.value().phases[1].attempts, 3u);
  EXPECT_EQ(r.value().phases[2].degraded, 1u);
  std::remove(path.c_str());
}

TEST(WireErrors, ManifestDuplicatePhaseIsBadValue) {
  auto m = sample_manifest();
  m.phases.push_back(m.phases[0]);
  const auto bytes = encode_manifest(m);
  auto r = try_decode_manifest(bytes);
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error().code, WireErrc::kBadValue);
}

TEST(WireErrors, ManifestHugePhaseIdIsBadValue) {
  auto m = sample_manifest();
  m.phases[0].phase = 64;
  const auto bytes = encode_manifest(m);
  auto r = try_decode_manifest(bytes);
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error().code, WireErrc::kBadValue);
}

TEST(WireErrors, ErrorMessageNamesCodeAndOffset) {
  const auto bytes = encode_report(sample_report());
  auto r = try_decode_report(std::span(bytes.data(), bytes.size() - 1));
  ASSERT_FALSE(r.has_value());
  const std::string msg = r.error().message();
  EXPECT_NE(msg.find("truncated"), std::string::npos) << msg;
  EXPECT_NE(msg.find("offset"), std::string::npos) << msg;
  EXPECT_STREQ(wire_errc_name(WireErrc::kBadMagic), "bad_magic");
}

// --- Assembly gather codec ----------------------------------------------------

olc::AssemblyResult sample_assembly() {
  olc::AssemblyResult ar;
  ar.stats = {.overlaps_considered = 5, .overlaps_accepted = 4,
              .layout_conflicts = 1};
  olc::Contig c;
  c.consensus = {0, 1, 2};
  c.layout.push_back({.fragment = 7, .flip = true, .offset = -2, .length = 3});
  ar.contigs.push_back(c);
  ar.contigs.push_back(olc::Contig{});  // empty consensus and layout
  return ar;
}

TEST(WireErrors, AssemblyByteFormatIsStable) {
  olc::AssemblyResult ar = sample_assembly();
  ar.contigs.pop_back();
  std::vector<std::byte> bytes;
  encode_assembly(bytes, 1, ar);
  const std::vector<std::uint8_t> want{
      1, 0, 0, 0,  1, 0, 0, 0,                      // cluster, n_contigs
      5, 0, 0, 0, 0, 0, 0, 0,  4, 0, 0, 0, 0, 0, 0, 0,
      1, 0, 0, 0, 0, 0, 0, 0,                       // stats
      3, 0, 0, 0, 0, 0, 0, 0,  0, 1, 2,             // consensus
      1, 0, 0, 0,                                   // n_layout
      7, 0, 0, 0,  1,  0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
      3, 0, 0, 0};                                  // placement
  ASSERT_EQ(bytes.size(), want.size());
  EXPECT_EQ(std::memcmp(bytes.data(), want.data(), want.size()), 0);
}

// Rank 0 of 2 owns clusters 0 and 2 of 3, in that order.
TEST(WireErrors, AssemblyGatherRoundTrips) {
  std::vector<std::byte> bytes;
  encode_assembly(bytes, 0, olc::AssemblyResult{});
  encode_assembly(bytes, 2, sample_assembly());
  auto r = try_decode_assemblies(bytes, 0, 2, 3);
  ASSERT_TRUE(r.has_value()) << r.error().message();
  ASSERT_EQ(r.value().size(), 2u);
  EXPECT_EQ(r.value()[0].cluster, 0u);
  EXPECT_EQ(r.value()[1].cluster, 2u);
  const auto& got = r.value()[1].result;
  ASSERT_EQ(got.contigs.size(), 2u);
  EXPECT_EQ(got.contigs[0].consensus, sample_assembly().contigs[0].consensus);
  EXPECT_EQ(got.contigs[0].layout[0].offset, -2);
  EXPECT_TRUE(got.contigs[0].layout[0].flip);
  EXPECT_EQ(got.stats.layout_conflicts, 1u);
  std::vector<std::byte> again;
  for (const auto& rec : r.value()) encode_assembly(again, rec.cluster, rec.result);
  EXPECT_EQ(again, bytes);
  // A rank that owns no cluster (rank 3 of 4, 3 clusters) sends an empty
  // buffer.
  auto none = try_decode_assemblies({}, 3, 4, 3);
  ASSERT_TRUE(none.has_value());
  EXPECT_TRUE(none.value().empty());
}

// A buffer from rank 1 of 2 over 4 clusters must hold clusters 1 and 3.
// Holding only cluster 1 used to decode fine, and rank 0 then kept an empty
// AssemblyResult for cluster 3 and reported success.
TEST(WireErrors, AssemblyGatherMissingOwnClusterIsCountMismatch) {
  std::vector<std::byte> bytes;
  encode_assembly(bytes, 1, sample_assembly());
  auto r = try_decode_assemblies(bytes, 1, 2, 4);
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error().code, WireErrc::kCountMismatch);
  EXPECT_EQ(r.error().offset, bytes.size());
  // A rank that owns clusters but sends nothing is short too.
  auto empty = try_decode_assemblies({}, 1, 2, 4);
  ASSERT_FALSE(empty.has_value());
  EXPECT_EQ(empty.error().code, WireErrc::kCountMismatch);
}

// Foreign, repeated and out-of-order cluster indices are each kBadValue at
// the offending record.
TEST(WireErrors, AssemblyGatherForeignRepeatedOrReorderedIsBadValue) {
  const auto decode = [](const std::vector<std::uint32_t>& clusters) {
    std::vector<std::byte> bytes;
    for (const std::uint32_t c : clusters)
      encode_assembly(bytes, c, olc::AssemblyResult{});
    return try_decode_assemblies(bytes, 1, 2, 4);
  };
  constexpr std::size_t kRecord = 4 + 4 + 3 * 8;  // an empty assembly
  for (const auto& [clusters, bad_at] :
       std::vector<std::pair<std::vector<std::uint32_t>, std::size_t>>{
           {{0, 3}, 0},         // foreign: rank 0's cluster
           {{1, 2}, kRecord},   // foreign: rank 0's cluster
           {{1, 1}, kRecord},   // repeated
           {{3, 1}, 0},         // out of order
           {{1, 3, 3}, 2 * kRecord},  // repeated past the last own cluster
           {{1, 3, 5}, 2 * kRecord},  // the rank's stride, but past n
       }) {
    auto r = decode(clusters);
    ASSERT_FALSE(r.has_value());
    EXPECT_EQ(r.error().code, WireErrc::kBadValue);
    EXPECT_EQ(r.error().offset, bad_at);
  }
  ASSERT_TRUE(decode({1, 3}).has_value());
}

TEST(WireErrors, TruncatedAssemblyPrefixesYieldTypedErrors) {
  std::vector<std::byte> bytes;
  encode_assembly(bytes, 1, sample_assembly());
  for (std::size_t cut = 1; cut < bytes.size(); ++cut) {
    auto r = try_decode_assemblies(std::span(bytes.data(), cut), 1, 2, 2);
    ASSERT_FALSE(r.has_value()) << "prefix of " << cut << " bytes decoded";
    EXPECT_EQ(r.error().code, WireErrc::kTruncated) << "cut=" << cut;
  }
}

TEST(WireErrors, AssemblyClusterIndexOutOfRangeIsBadValue) {
  std::vector<std::byte> bytes;
  encode_assembly(bytes, 0, sample_assembly());
  const std::size_t second = bytes.size();
  encode_assembly(bytes, 3, sample_assembly());
  auto r = try_decode_assemblies(bytes, 0, 1, 3);
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error().code, WireErrc::kBadValue);
  EXPECT_EQ(r.error().offset, second);
}

TEST(WireErrors, HugeAssemblyCountsFailBeforeAllocating) {
  std::vector<std::byte> bytes;
  encode_assembly(bytes, 0, sample_assembly());
  {
    auto bad = bytes;
    for (int k = 4; k < 8; ++k) bad[k] = std::byte{0xff};  // n_contigs 2^32-1
    auto r = try_decode_assemblies(bad, 0, 1, 1);
    ASSERT_FALSE(r.has_value());
    EXPECT_EQ(r.error().code, WireErrc::kTruncated);
  }
  {
    auto bad = bytes;
    for (int k = 43; k < 47; ++k) bad[k] = std::byte{0xff};  // n_layout
    auto r = try_decode_assemblies(bad, 0, 1, 1);
    ASSERT_FALSE(r.has_value());
    EXPECT_EQ(r.error().code, WireErrc::kTruncated);
  }
  {
    auto bad = bytes;
    // Consensus length 2^64 - 1.
    for (int k = 32; k < 40; ++k) bad[k] = std::byte{0xff};
    auto r = try_decode_assemblies(bad, 0, 1, 1);
    ASSERT_FALSE(r.has_value());
    EXPECT_EQ(r.error().code, WireErrc::kTruncated);
  }
}

// A retransmitted report (same seq) must not be folded twice: the
// ReplyChannel discards the duplicate and answers with the cached reply —
// byte-identical to the original — so the worker recovers from a lost
// reply without the master double-counting results.
TEST(WireErrors, DuplicateSeqReportGetsCachedReply) {
  vmpi::Runtime rt(2);
  int folds = 0;
  std::vector<MasterReply> worker_got;
  rt.run([&](vmpi::Comm& c) {
    if (c.rank() == 0) {
      ReplyChannel channel(c.size());
      for (int round = 0; round < 2; ++round) {
        auto decoded = recv_report(c, 1);
        ASSERT_TRUE(decoded.has_value());
        const WorkerReport& rep = decoded.value();
        if (channel.is_duplicate(1, rep.seq)) {
          channel.resend_cached(c, 1);
          continue;
        }
        channel.note_seq(1, rep.seq);
        ++folds;  // stand-in for MasterScheduler::fold_report
        MasterReply reply = sample_reply();
        channel.send(c, 1, reply);
      }
    } else {
      WorkerReport rep = sample_report();
      rep.seq = 41;
      for (int round = 0; round < 2; ++round) {
        c.send_payload(0, kTagReport, encode_report(rep));
        const auto raw = c.recv(0, kTagReply);
        auto reply = try_decode_reply(raw);
        ASSERT_TRUE(reply.has_value());
        worker_got.push_back(std::move(reply).take_or_throw());
      }
    }
  });
  EXPECT_EQ(folds, 1) << "duplicate report was folded twice";
  ASSERT_EQ(worker_got.size(), 2u);
  EXPECT_EQ(worker_got[0].seq, 41u);
  EXPECT_EQ(worker_got[1].seq, 41u);
  EXPECT_EQ(worker_got[0].batch.size(), worker_got[1].batch.size());
  EXPECT_EQ(worker_got[0].request_r, worker_got[1].request_r);
}

// A corrupt report payload is dropped with a typed error (and counted), not
// decoded into garbage: recv_report surfaces the WireError to the caller.
TEST(WireErrors, RecvReportSurfacesCorruptPayloadAsTypedError) {
  vmpi::Runtime rt(2);
  rt.run([&](vmpi::Comm& c) {
    if (c.rank() == 0) {
      auto decoded = recv_report(c, 1);
      ASSERT_FALSE(decoded.has_value());
      EXPECT_EQ(decoded.error().code, WireErrc::kTruncated);
      // The retransmitted (healthy) report then decodes fine.
      auto retry = recv_report(c, 1);
      ASSERT_TRUE(retry.has_value());
      EXPECT_EQ(retry.value().seq, 41u);
      c.send_value<int>(1, 99, 1);
    } else {
      auto bytes = encode_report([] {
        WorkerReport r;
        r.seq = 41;
        return r;
      }());
      auto corrupt = bytes;
      corrupt.resize(corrupt.size() - 2);
      c.send_payload(0, kTagReport, std::move(corrupt));
      c.send_payload(0, kTagReport, std::move(bytes));
      (void)c.recv_value<int>(0, 99);
    }
  });
}

}  // namespace
}  // namespace pgasm::core
