#include "gst/parallel_build.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/contract.hpp"

namespace pgasm::gst {

namespace {

/// Step 5 of the build: the rank's suffixes, in arrival order, go to the
/// one tree constructor, over the global store.
void build_tree(DistributedGst& result, const seq::FragmentStore& global,
                std::vector<Suffix> local_suffixes, int role,
                const ParallelGstParams& params) {
  result.stats.local_suffixes = local_suffixes.size();
  result.stats.local_buckets = static_cast<std::uint64_t>(
      std::ranges::count(result.bucket_owner, role));
  result.tree = std::make_unique<SuffixTree>(global, std::move(local_suffixes),
                                             params.gst);
  result.stats.tree_nodes = result.tree->num_nodes();
}

/// Publish one rank's build stats and memory ledger to the obs registry.
void publish_gst_obs(int rank, const DistributedGst& result) {
  const GstBuildStats& stats = result.stats;
  if (!obs::tracer().enabled()) return;
  auto& reg = obs::registry();
  const char* phase = obs::current_phase();
  reg.counter("gst.local_suffixes", rank, phase).inc(stats.local_suffixes);
  reg.counter("gst.local_buckets", rank, phase).inc(stats.local_buckets);
  reg.counter("gst.tree_nodes", rank, phase).inc(stats.tree_nodes);
  reg.counter("gst.bytes_sent", rank, phase).inc(stats.bytes_sent);
  reg.gauge("gst.compute_seconds", rank, phase).add(stats.compute_seconds);
  reg.gauge("gst.comm_seconds", rank, phase).add(stats.comm_seconds);
  reg.gauge("mem.gst_suffix_bytes", rank, phase)
      .add(static_cast<double>(result.tree->suffix_bytes()));
  reg.gauge("mem.gst_node_bytes", rank, phase)
      .add(static_cast<double>(result.tree->node_bytes()));
}

}  // namespace

std::vector<std::uint32_t> partition_store(const seq::FragmentStore& store,
                                           int num_ranks) {
  // Greedy sweep: cut whenever the running character count passes the next
  // multiple of N/p. Contiguous and deterministic.
  PGASM_ASSERT(num_ranks >= 1, "partition needs at least one rank");
  if (num_ranks < 1) return {0, static_cast<std::uint32_t>(store.size())};
  const std::uint64_t total = store.total_length();
  const std::uint64_t per_rank = std::max<std::uint64_t>(1, total / num_ranks);
  std::vector<std::uint32_t> slice_begin(static_cast<std::size_t>(num_ranks) + 1,
                                         static_cast<std::uint32_t>(store.size()));
  slice_begin[0] = 0;
  std::uint64_t acc = 0;
  int next_cut = 1;
  for (std::uint32_t s = 0; s < store.size() && next_cut < num_ranks; ++s) {
    acc += store.length(s);
    if (acc >= per_rank * static_cast<std::uint64_t>(next_cut)) {
      slice_begin[next_cut++] = s + 1;
    }
  }
  for (int r = next_cut; r < num_ranks; ++r)
    slice_begin[r] = slice_begin[next_cut - 1];
  slice_begin[num_ranks] = static_cast<std::uint32_t>(store.size());
  // Ensure monotonicity (degenerate inputs).
  for (int r = 1; r <= num_ranks; ++r)
    slice_begin[r] = std::max(slice_begin[r], slice_begin[r - 1]);
  return slice_begin;
}

std::vector<std::int32_t> assign_buckets(
    const std::vector<std::uint64_t>& global_histogram, int num_ranks) {
  std::vector<std::int32_t> owner(global_histogram.size(), -1);
  // Greedy LPT: heaviest bucket first onto the least-loaded rank.
  std::vector<std::uint32_t> idx;
  idx.reserve(global_histogram.size());
  for (std::uint32_t b = 0; b < global_histogram.size(); ++b)
    if (global_histogram[b] > 0) idx.push_back(b);
  std::stable_sort(idx.begin(), idx.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return global_histogram[a] > global_histogram[b];
                   });
  std::vector<std::uint64_t> load(static_cast<std::size_t>(num_ranks), 0);
  for (std::uint32_t b : idx) {
    int best = 0;
    for (int r = 1; r < num_ranks; ++r)
      if (load[r] < load[best]) best = r;
    owner[b] = best;
    load[best] += global_histogram[b];
  }
  return owner;
}

DistributedGst build_distributed_gst(vmpi::Comm& comm,
                                     const seq::FragmentStore& global,
                                     const ParallelGstParams& params) {
  const int p = comm.size();
  const int rank = comm.rank();
  const std::uint32_t w = params.gst.prefix_w;
  if (w == 0 || w > std::min(params.gst.min_match, 12u))
    throw std::runtime_error(
        "parallel GST requires 0 < prefix_w <= min(psi, 12)");

  DistributedGst result;
  GstBuildStats& stats = result.stats;
  const auto ledger_before = comm.ledger();

  // ---- Step 1: enumerate suffixes of the local slice. -------------------
  const auto slice = partition_store(global, p);
  std::vector<Suffix> my_suffixes;
  {
    obs::Span sp = obs::span(rank, "enumerate_suffixes", "gst");
    auto scope = comm.compute_scope();
    my_suffixes = enumerate_suffixes_range(global, slice[rank], slice[rank + 1],
                                           params.gst.min_match);
    sp.arg("suffixes", my_suffixes.size());
  }

  // ---- Step 2: global bucket histogram and deterministic assignment. ----
  std::vector<std::int32_t> bucket_owner;
  {
    obs::Span sp = obs::span(rank, "bucket_histogram", "gst");
    std::vector<std::uint64_t> hist(num_buckets(w), 0);
    {
      auto scope = comm.compute_scope();
      for (const Suffix s : my_suffixes) ++hist[bucket_of(global, s, w)];
    }
    hist = comm.allreduce_vector(std::move(hist),
                                 [](std::uint64_t a, std::uint64_t b) {
                                   return a + b;
                                 });
    auto scope = comm.compute_scope();
    if (params.exclude_rank0 && p > 1) {
      bucket_owner = assign_buckets(hist, p - 1);
      for (auto& o : bucket_owner)
        if (o >= 0) ++o;  // shift workers to ranks 1..p-1
    } else {
      bucket_owner = assign_buckets(hist, p);
    }
    result.bucket_owner = bucket_owner;
  }

  // ---- Step 3: redistribute suffixes to bucket owners. ------------------
  obs::Span redist_span = obs::span(rank, "redistribute", "gst");
  const std::uint64_t bytes_before_redist = comm.ledger().bytes_sent;
  std::vector<std::vector<Suffix>> outgoing(static_cast<std::size_t>(p));
  {
    auto scope = comm.compute_scope();
    std::vector<std::size_t> count(static_cast<std::size_t>(p), 0);
    for (const Suffix s : my_suffixes)
      ++count[bucket_owner[bucket_of(global, s, w)]];
    for (int d = 0; d < p; ++d) outgoing[d].reserve(count[d]);
    for (const Suffix s : my_suffixes)
      outgoing[bucket_owner[bucket_of(global, s, w)]].push_back(s);
    my_suffixes.clear();
    my_suffixes.shrink_to_fit();
  }
  auto incoming = comm.staged_alltoallv(outgoing);
  outgoing.clear();
  redist_span.arg("bytes_sent", comm.ledger().bytes_sent - bytes_before_redist);
  redist_span.finish();

  // ---- Step 5: build the local subtrees over `global`. ------------------
  // The paper's step 4 ships each rank its buckets' text; every rank holds
  // `global` already, so none travels. The incoming suffixes, concatenated
  // by source rank, ascend by global offset.
  {
    obs::Span sp = obs::span(rank, "build_subtrees", "gst");
    auto scope = comm.compute_scope();
    std::vector<Suffix> local_suffixes;
    std::size_t total = 0;
    for (const auto& v : incoming) total += v.size();
    local_suffixes.reserve(total);
    for (auto& v : incoming) {
      local_suffixes.insert(local_suffixes.end(), v.begin(), v.end());
      v = {};
    }
    sp.arg("suffixes", local_suffixes.size());
    build_tree(result, global, std::move(local_suffixes), rank, params);
    sp.arg("buckets", stats.local_buckets);
  }

  const auto& ledger_after = comm.ledger();
  stats.compute_seconds =
      ledger_after.compute_seconds - ledger_before.compute_seconds;
  stats.comm_seconds = ledger_after.comm_seconds - ledger_before.comm_seconds;
  stats.bytes_sent = ledger_after.bytes_sent - ledger_before.bytes_sent;

  // Publish this rank's build stats so GstBuildStats and the obs export
  // agree. Safe from rank threads: instrument updates are atomic.
  publish_gst_obs(rank, result);
  return result;
}

DistributedGst rebuild_rank_portion(
    const seq::FragmentStore& global,
    const std::vector<std::int32_t>& bucket_owner, int role,
    const ParallelGstParams& params) {
  const std::uint32_t w = params.gst.prefix_w;
  if (num_buckets(w) != bucket_owner.size())
    throw std::runtime_error("rebuild_rank_portion: bucket table mismatch");

  DistributedGst result;

  // Enumerate the full store (equals the concatenation of every rank's
  // slice enumeration) and keep only the role's buckets, preserving order.
  std::vector<Suffix> local_suffixes;
  {
    auto all = enumerate_suffixes(global, params.gst.min_match);
    local_suffixes.reserve(all.size() / 4 + 1);
    for (const Suffix s : all) {
      if (bucket_owner[bucket_of(global, s, w)] == role)
        local_suffixes.push_back(s);
    }
  }
  result.bucket_owner = bucket_owner;
  build_tree(result, global, std::move(local_suffixes), role, params);
  return result;
}

}  // namespace pgasm::gst
