#include "gst/parallel_build.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/contract.hpp"

namespace pgasm::gst {

namespace {

/// Local ids, shared by both build paths so that a rebuilt portion is the
/// one its rank built: they number the distinct sequences of `suffixes` in
/// ascending global order. `suffixes` holds global text offsets in
/// ascending order, so one merge walk over the global offsets finds each
/// suffix's sequence. Sets `result.local_to_global`, reserves the local
/// store for those sequences and rebases each suffix onto the text the
/// local store will hold once they are added in local-id order.
void assign_local_ids(DistributedGst& result, const seq::FragmentStore& global,
                      std::vector<Suffix>& suffixes) {
  auto& needed = result.local_to_global;
  const auto n = static_cast<std::uint32_t>(global.size());
  std::uint32_t gid = 0;
  std::uint32_t local_start = 0;  // offset of local sequence needed.back()
  std::uint32_t next_start = 1;   // offset the next local sequence gets
  PGASM_DCHECK(std::ranges::is_sorted(suffixes),
               "suffixes arrive in ascending global offset");
  for (Suffix& s : suffixes) {
    while (gid + 1 < n && global.offset(gid + 1) <= s) ++gid;
    if (needed.empty() || needed.back() != gid) {
      needed.push_back(gid);
      local_start = next_start;
      next_start += global.length(gid) + 1;
    }
    s = local_start + (s - global.offset(gid));
  }
  std::uint64_t needed_chars = 0;
  for (std::uint32_t g : needed) needed_chars += global.length(g);
  result.local_store->reserve(needed.size(), needed_chars);
}

/// Step 5 of the build: the rank's suffixes, in arrival order, go to the
/// one tree constructor.
void build_tree(DistributedGst& result, std::vector<Suffix> local_suffixes,
                int role, const ParallelGstParams& params) {
  result.stats.local_buckets = static_cast<std::uint64_t>(
      std::ranges::count(result.bucket_owner, role));
  result.tree = std::make_unique<SuffixTree>(
      *result.local_store, std::move(local_suffixes), params.gst);
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
  reg.counter("gst.fetched_fragments", rank, phase)
      .inc(stats.fetched_fragments);
  reg.counter("gst.tree_nodes", rank, phase).inc(stats.tree_nodes);
  reg.counter("gst.bytes_sent", rank, phase).inc(stats.bytes_sent);
  reg.gauge("gst.compute_seconds", rank, phase).add(stats.compute_seconds);
  reg.gauge("gst.comm_seconds", rank, phase).add(stats.comm_seconds);
  reg.gauge("mem.gst_suffix_bytes", rank, phase)
      .add(static_cast<double>(result.tree->suffix_bytes()));
  reg.gauge("mem.gst_node_bytes", rank, phase)
      .add(static_cast<double>(result.tree->node_bytes()));
  reg.gauge("mem.gst_text_bytes", rank, phase)
      .add(static_cast<double>(result.local_store->text().size()));
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
  // Routing a suffix also records its sequence for the destination: each
  // destination gets the distinct sequences of its suffixes, ascending.
  obs::Span redist_span = obs::span(rank, "redistribute", "gst");
  const std::uint64_t bytes_before_redist = comm.ledger().bytes_sent;
  std::vector<std::vector<Suffix>> outgoing(static_cast<std::size_t>(p));
  std::vector<std::vector<std::uint32_t>> ship(static_cast<std::size_t>(p));
  {
    auto scope = comm.compute_scope();
    std::vector<std::size_t> count(static_cast<std::size_t>(p), 0);
    for (const Suffix s : my_suffixes)
      ++count[bucket_owner[bucket_of(global, s, w)]];
    for (int d = 0; d < p; ++d) outgoing[d].reserve(count[d]);
    std::uint32_t gid = slice[rank];
    for (const Suffix s : my_suffixes) {
      while (gid + 1 < slice[rank + 1] && global.offset(gid + 1) <= s) ++gid;
      const int d = bucket_owner[bucket_of(global, s, w)];
      outgoing[d].push_back(s);
      if (ship[d].empty() || ship[d].back() != gid) ship[d].push_back(gid);
    }
    my_suffixes.clear();
    my_suffixes.shrink_to_fit();
  }
  auto incoming = comm.staged_alltoallv(outgoing);
  outgoing.clear();
  redist_span.arg("bytes_sent", comm.ledger().bytes_sent - bytes_before_redist);
  redist_span.finish();

  std::vector<Suffix> local_suffixes;
  {
    obs::Span sp = obs::span(rank, "assign_local_ids", "gst");
    auto scope = comm.compute_scope();
    std::size_t total = 0;
    for (const auto& v : incoming) total += v.size();
    local_suffixes.reserve(total);
    for (auto& v : incoming) {
      local_suffixes.insert(local_suffixes.end(), v.begin(), v.end());
      v.clear();
      v.shrink_to_fit();
    }
    assign_local_ids(result, global, local_suffixes);
  }
  stats.local_suffixes = local_suffixes.size();

  // ---- Step 4: ship the text the local subtrees need. -------------------
  // Each slice owner sends every rank the codes of the sequences it routed
  // suffixes of there, concatenated in id order. The receiver's needed ids
  // ascend and slices are contiguous in rank order, so the payload from
  // rank s holds exactly its needed ids in s's slice, in order, and their
  // lengths split it.
  {
    obs::Span sp = obs::span(rank, "ship_text", "gst");
    const std::uint64_t bytes_before = comm.ledger().bytes_sent;
    std::vector<std::vector<seq::Code>> text_out(static_cast<std::size_t>(p));
    {
      auto scope = comm.compute_scope();
      for (int d = 0; d < p; ++d) {
        std::size_t chars = 0;
        for (const std::uint32_t g : ship[d]) chars += global.length(g);
        text_out[d].reserve(chars);
        for (const std::uint32_t g : ship[d]) {
          const auto codes = global.seq(g);
          text_out[d].insert(text_out[d].end(), codes.begin(), codes.end());
        }
      }
      ship.clear();
    }
    auto text_in = comm.staged_alltoallv(text_out);
    text_out.clear();
    sp.arg("bytes_sent", comm.ledger().bytes_sent - bytes_before);

    auto scope = comm.compute_scope();
    const std::vector<std::uint32_t>& needed = result.local_to_global;
    auto next = needed.begin();
    for (int s = 0; s < p; ++s) {
      const auto end = std::lower_bound(next, needed.end(), slice[s + 1]);
      std::uint64_t chars = 0;
      for (auto it = next; it != end; ++it) chars += global.length(*it);
      if (text_in[s].size() != chars)
        throw std::runtime_error(
            "build_distributed_gst: rank " + std::to_string(s) + " shipped " +
            std::to_string(text_in[s].size()) + " codes, expected " +
            std::to_string(chars));
      if (s != rank)
        stats.fetched_fragments += static_cast<std::uint64_t>(end - next);
      const std::span<const seq::Code> codes = text_in[s];
      for (std::size_t off = 0; next != end; ++next) {
        const std::uint32_t len = global.length(*next);
        result.local_store->add(codes.subspan(off, len), global.type(*next));
        off += len;
      }
      text_in[s] = {};
    }
  }

  // ---- Step 5: build the local subtrees. --------------------------------
  {
    obs::Span sp = obs::span(rank, "build_subtrees", "gst");
    auto scope = comm.compute_scope();
    sp.arg("suffixes", local_suffixes.size());
    build_tree(result, std::move(local_suffixes), rank, params);
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
  result.stats.local_suffixes = local_suffixes.size();
  result.bucket_owner = bucket_owner;

  assign_local_ids(result, global, local_suffixes);
  for (std::uint32_t g : result.local_to_global)
    result.local_store->add(global.seq(g), global.type(g));
  build_tree(result, std::move(local_suffixes), role, params);
  return result;
}

}  // namespace pgasm::gst
