// Fuzz harness: wire decoders for the clustering protocol.
//
// The first input byte routes to one of the three decoders; the rest is the
// payload. Properties enforced (abort on violation):
//   1. Totality — decoding arbitrary bytes either succeeds or returns a
//      typed WireError; it never crashes, throws, or reads out of bounds
//      (the UBSan/ASan build legs check the latter).
//   2. Canonical round-trip — when a decode succeeds, re-encoding the
//      decoded message reproduces the input bytes exactly. The wire format
//      has one canonical serialization, so decode followed by encode is the
//      identity on valid payloads.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <vector>

#include "core/wire.hpp"
#include "fuzz_driver.hpp"

namespace {

using pgasm::core::ClusterCheckpoint;
using pgasm::core::MasterReply;
using pgasm::core::PairMsg;
using pgasm::core::ResultMsg;
using pgasm::core::RoleProgress;
using pgasm::core::TakeoverOrder;
using pgasm::core::WorkerReport;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "fuzz_wire property violated: %s\n", what);
    std::abort();
  }
}

void fuzz_report(std::span<const std::byte> payload) {
  auto decoded = pgasm::core::try_decode_report(payload);
  if (!decoded) return;
  const auto re = pgasm::core::encode_report(decoded.value());
  check(re.size() == payload.size() &&
            std::equal(re.begin(), re.end(), payload.begin()),
        "report decode/encode round-trip is not the identity");
}

void fuzz_reply(std::span<const std::byte> payload) {
  auto decoded = pgasm::core::try_decode_reply(payload);
  if (!decoded) return;
  const auto re = pgasm::core::encode_reply(decoded.value());
  check(re.size() == payload.size() &&
            std::equal(re.begin(), re.end(), payload.begin()),
        "reply decode/encode round-trip is not the identity");
}

void fuzz_checkpoint(std::span<const std::byte> payload) {
  auto decoded = pgasm::core::try_decode_checkpoint(payload);
  if (!decoded) return;
  const auto re = pgasm::core::encode_checkpoint(decoded.value());
  check(re.size() == payload.size() &&
            std::equal(re.begin(), re.end(), payload.begin()),
        "checkpoint decode/encode round-trip is not the identity");
}

WorkerReport sample_report() {
  WorkerReport r;
  r.seq = 7;
  r.results.push_back(ResultMsg{1, 2, -3, 1, 0, 1, 0});
  r.new_pairs.push_back(PairMsg{4, 5, 6, 7, 8});
  r.progress.push_back(RoleProgress{1, 0, 42});
  r.exhausted = 0;
  return r;
}

MasterReply sample_reply() {
  MasterReply r;
  r.seq = 7;
  r.batch.push_back(PairMsg{9, 8, 7, 6, 5});
  r.takeovers.push_back(TakeoverOrder{2, 0, 1000});
  r.request_r = 64;
  return r;
}

ClusterCheckpoint sample_checkpoint() {
  ClusterCheckpoint c;
  c.epoch = 3;
  c.num_ranks = 4;
  c.n_fragments = 5;
  c.input_hash = 0x1234;
  c.params_hash = 0x5678;
  c.labels = {0, 1, 1, 0, 2};
  c.pending.push_back(PairMsg{1, 2, 3, 4, 5});
  c.progress.push_back(RoleProgress{1, 1, 99});
  c.pairs_generated = 10;
  return c;
}

}  // namespace

std::vector<std::vector<std::uint8_t>> pgasm_fuzz_seeds() {
  std::vector<std::vector<std::uint8_t>> seeds;
  auto tagged = [&seeds](std::uint8_t route,
                         const std::vector<std::byte>& payload) {
    std::vector<std::uint8_t> s = seed_of(payload);
    s.insert(s.begin(), route);
    seeds.push_back(std::move(s));
  };
  tagged(0, pgasm::core::encode_report(sample_report()));
  tagged(0, pgasm::core::encode_report(WorkerReport{}));
  tagged(1, pgasm::core::encode_reply(sample_reply()));
  tagged(1, pgasm::core::encode_reply(MasterReply{}));
  tagged(2, pgasm::core::encode_checkpoint(sample_checkpoint()));
  tagged(2, pgasm::core::encode_checkpoint(ClusterCheckpoint{}));
  return seeds;
}

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size == 0) return 0;
  const auto payload = wire_bytes(data + 1, size - 1);
  switch (data[0] % 3) {
    case 0: fuzz_report(payload); break;
    case 1: fuzz_reply(payload); break;
    case 2: fuzz_checkpoint(payload); break;
  }
  return 0;
}
