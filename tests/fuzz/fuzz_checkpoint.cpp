// Fuzz harness: checkpoint decode + master resume.
//
// Stage 1 fuzzes try_decode_checkpoint over arbitrary bytes (totality: a
// typed WireError or a valid checkpoint, never a crash). Stage 2 feeds
// every successfully decoded checkpoint into MasterScheduler::restore
// against a small fixed fragment store — the path a real resume takes —
// and requires that restore either completes or rejects the checkpoint
// with std::invalid_argument. Historically this path could write out of
// bounds on corrupt labels; this harness is the regression guard.
#include <cstdio>
#include <cstdlib>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/cluster_params.hpp"
#include "core/cluster_scheduler.hpp"
#include "core/wire.hpp"
#include "fuzz_driver.hpp"
#include "seq/fragment_store.hpp"

namespace {

using pgasm::core::ClusterCheckpoint;
using pgasm::core::PairMsg;
using pgasm::core::RoleProgress;

constexpr std::uint32_t kFragments = 4;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "fuzz_checkpoint property violated: %s\n", what);
    std::abort();
  }
}

const pgasm::seq::FragmentStore& doubled_store() {
  static const pgasm::seq::FragmentStore store = [] {
    pgasm::seq::FragmentStore plain;
    plain.add_ascii("ACGTACGTACGT");
    plain.add_ascii("TTTTACGTACGT");
    plain.add_ascii("GGGGACGTACGT");
    plain.add_ascii("CCCCACGTACGT");
    return pgasm::seq::make_doubled_store(plain);
  }();
  return store;
}

ClusterCheckpoint sample_checkpoint() {
  ClusterCheckpoint c;
  c.epoch = 2;
  c.num_ranks = 3;
  c.n_fragments = kFragments;
  c.labels = {0, 0, 2, 3};
  c.pending.push_back(PairMsg{0, 1, 0, 0, 12});
  c.progress.push_back(RoleProgress{1, 0, 5});
  c.progress.push_back(RoleProgress{2, 1, 9});
  c.pairs_generated = 14;
  c.pairs_selected = 12;
  c.pairs_aligned = 11;
  c.pairs_accepted = 6;
  c.merges = 2;
  return c;
}

}  // namespace

std::vector<std::vector<std::uint8_t>> pgasm_fuzz_seeds() {
  std::vector<std::vector<std::uint8_t>> seeds;
  using pgasm::core::encode_checkpoint;
  seeds.push_back(seed_of(encode_checkpoint(sample_checkpoint())));
  seeds.push_back(seed_of(encode_checkpoint(ClusterCheckpoint{})));
  ClusterCheckpoint wrong_count = sample_checkpoint();
  wrong_count.n_fragments = kFragments + 1;
  wrong_count.labels.push_back(0);
  seeds.push_back(seed_of(encode_checkpoint(wrong_count)));
  return seeds;
}

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  auto decoded = pgasm::core::try_decode_checkpoint(wire_bytes(data, size));
  if (!decoded) return 0;
  const ClusterCheckpoint ck = std::move(decoded).take_or_throw();

  // Anything the decoder accepted must be safe to resume from (or be
  // rejected with the typed mismatch error) — never memory-unsafe.
  pgasm::core::MasterScheduler sched(doubled_store(), pgasm::core::ClusterParams{},
                                     /*p=*/3);
  try {
    sched.restore(ck);
  } catch (const std::invalid_argument&) {
    return 0;  // fragment-count / label mismatch: the typed rejection path
  }
  check(ck.n_fragments == kFragments,
        "restore accepted a checkpoint for a different fragment count");
  return 0;
}
