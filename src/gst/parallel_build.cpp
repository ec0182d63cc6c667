#include "gst/parallel_build.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/contract.hpp"

namespace pgasm::gst {

namespace {

/// Owner rank of a global sequence id under a contiguous partition.
int owner_of(const std::vector<std::uint32_t>& slice_begin,
             std::uint32_t seq_id) {
  const auto it =
      std::upper_bound(slice_begin.begin(), slice_begin.end(), seq_id);
  return static_cast<int>(it - slice_begin.begin()) - 1;
}

/// Fill `result`'s local store and id map from the global store for the
/// suffixes in `local_suffixes` (global seq ids, canonical order), then
/// remap the suffixes to local ids. Local ids are assigned in sorted
/// global-id order — the same rule the distributed fetch path uses, so a
/// portion built this way is bit-identical to the one the owning rank
/// would have built.
void materialize_from_global(DistributedGst& result,
                             const seq::FragmentStore& global,
                             std::vector<Suffix>& local_suffixes) {
  std::vector<std::uint32_t> needed;
  needed.reserve(local_suffixes.size() / 4 + 1);
  for (const Suffix& s : local_suffixes) needed.push_back(s.seq);
  std::sort(needed.begin(), needed.end());
  needed.erase(std::unique(needed.begin(), needed.end()), needed.end());
  result.local_to_global = needed;

  std::uint64_t needed_chars = 0;
  for (std::uint32_t g : needed) needed_chars += global.length(g);
  result.local_store.reserve(needed.size(), needed_chars);
  for (std::uint32_t g : needed)
    result.local_store.add(global.seq(g), global.type(g));

  for (Suffix& s : local_suffixes) {
    s.seq = static_cast<std::uint32_t>(
        std::lower_bound(needed.begin(), needed.end(), s.seq) -
        needed.begin());
  }
}

/// Group remapped suffixes by bucket (dense relabel in first-seen order +
/// counting sort) and build the subtree forest — step 5 of the build,
/// shared by the collective and serial-rebuild paths so both produce
/// identical trees from identical suffix streams.
void group_and_build(DistributedGst& result,
                     std::vector<Suffix> local_suffixes,
                     const ParallelGstParams& params) {
  const std::uint32_t w = params.gst.prefix_w;
  const std::uint32_t nbuckets = num_buckets(w);
  std::vector<std::uint32_t> bucket_ids(local_suffixes.size());
  std::vector<std::uint32_t> mine;  // this rank's non-empty buckets
  {
    // Dense relabel of owned buckets.
    std::vector<std::int32_t> dense(nbuckets, -1);
    for (std::size_t i = 0; i < local_suffixes.size(); ++i) {
      const std::uint32_t b =
          bucket_of(result.local_store, local_suffixes[i], w);
      if (dense[b] < 0) {
        dense[b] = static_cast<std::int32_t>(mine.size());
        mine.push_back(b);
      }
      bucket_ids[i] = static_cast<std::uint32_t>(dense[b]);
    }
  }
  result.stats.local_buckets = mine.size();
  std::vector<std::uint32_t> count(mine.size() + 1, 0);
  for (std::uint32_t b : bucket_ids) ++count[b + 1];
  for (std::size_t i = 1; i < count.size(); ++i) count[i] += count[i - 1];
  std::vector<std::uint32_t> bucket_begin(count.begin(), count.end() - 1);
  std::vector<Suffix> grouped(local_suffixes.size());
  for (std::size_t i = 0; i < local_suffixes.size(); ++i) {
    grouped[count[bucket_ids[i]]++] = local_suffixes[i];
  }
  local_suffixes.clear();
  local_suffixes.shrink_to_fit();

  result.tree = std::make_unique<SuffixTree>(
      result.local_store, std::move(grouped), bucket_begin, w, params.gst);
  result.stats.tree_nodes = result.tree->num_nodes();
}

/// Publish one rank's build stats to the obs registry.
void publish_gst_obs(int rank, const GstBuildStats& stats) {
  if (!obs::tracer().enabled()) return;
  auto& reg = obs::registry();
  const char* phase = obs::current_phase();
  reg.counter("gst.local_suffixes", rank, phase).inc(stats.local_suffixes);
  reg.counter("gst.local_buckets", rank, phase).inc(stats.local_buckets);
  reg.counter("gst.fetched_fragments", rank, phase)
      .inc(stats.fetched_fragments);
  reg.counter("gst.fetch_rounds", rank, phase).inc(stats.fetch_rounds);
  reg.counter("gst.tree_nodes", rank, phase).inc(stats.tree_nodes);
  reg.counter("gst.bytes_sent", rank, phase).inc(stats.bytes_sent);
  reg.gauge("gst.compute_seconds", rank, phase).add(stats.compute_seconds);
  reg.gauge("gst.comm_seconds", rank, phase).add(stats.comm_seconds);
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
  if (w == 0 || w > params.gst.min_match)
    throw std::runtime_error("parallel GST requires 0 < prefix_w <= psi");

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
  const std::uint32_t nbuckets = num_buckets(w);
  std::vector<std::uint64_t> hist(nbuckets, 0);
  {
    obs::Span sp = obs::span(rank, "bucket_histogram", "gst");
    {
      auto scope = comm.compute_scope();
      for (const Suffix& s : my_suffixes) ++hist[bucket_of(global, s, w)];
    }
    hist = comm.allreduce_vector(std::move(hist),
                                 [](std::uint64_t a, std::uint64_t b) {
                                   return a + b;
                                 });
  }
  std::vector<std::int32_t> bucket_owner;
  {
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
    for (const Suffix& s : my_suffixes) {
      outgoing[bucket_owner[bucket_of(global, s, w)]].push_back(s);
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
    auto scope = comm.compute_scope();
    std::size_t total = 0;
    for (const auto& v : incoming) total += v.size();
    local_suffixes.reserve(total);
    for (auto& v : incoming) {
      local_suffixes.insert(local_suffixes.end(), v.begin(), v.end());
      v.clear();
      v.shrink_to_fit();
    }
  }
  stats.local_suffixes = local_suffixes.size();

  // ---- Step 4: fetch the fragments the local subtrees need. -------------
  // Needed global ids, sorted.
  std::vector<std::uint32_t> needed;
  {
    auto scope = comm.compute_scope();
    needed.reserve(local_suffixes.size() / 4 + 1);
    for (const Suffix& s : local_suffixes) needed.push_back(s.seq);
    std::sort(needed.begin(), needed.end());
    needed.erase(std::unique(needed.begin(), needed.end()), needed.end());
  }

  // Local ids are assigned in sorted global-id order.
  result.local_to_global = needed;
  std::uint64_t needed_chars = 0;
  for (std::uint32_t g : needed) needed_chars += global.length(g);
  result.local_store.reserve(needed.size(), needed_chars);

  // Batched request/serve rounds. Each round: Alltoallv of requested ids,
  // then Alltoallv of serialized fragment payloads [id, len, codes...].
  const std::uint64_t batch_chars =
      params.fetch_batch_chars == 0
          ? std::numeric_limits<std::uint64_t>::max()
          : params.fetch_batch_chars;
  std::size_t cursor = 0;  // into `needed`
  // Fetched payloads keyed by global id (filled across rounds).
  std::vector<std::vector<seq::Code>> fetched(needed.size());
  // Map global id -> local index for fill-in.
  auto local_index_of = [&](std::uint32_t g) {
    return static_cast<std::size_t>(
        std::lower_bound(needed.begin(), needed.end(), g) - needed.begin());
  };

  for (;;) {
    obs::Span round_span = obs::span(rank, "fetch_round", "gst");
    round_span.arg("round", stats.fetch_rounds);
    // Build this round's batch of requests (own-slice ids are read directly
    // from the global store: no message needed for data we already own).
    std::vector<std::vector<std::uint32_t>> req(static_cast<std::size_t>(p));
    std::uint64_t batch_acc = 0;
    {
      auto scope = comm.compute_scope();
      while (cursor < needed.size() && batch_acc < batch_chars) {
        const std::uint32_t g = needed[cursor];
        const int own = owner_of(slice, g);
        if (own != rank) {
          req[own].push_back(g);
          batch_acc += global.length(g);
        } else {
          const auto s = global.seq(g);
          fetched[local_index_of(g)].assign(s.begin(), s.end());
        }
        ++cursor;
      }
    }
    const std::uint64_t remaining = needed.size() - cursor;
    const std::uint64_t any_left = comm.allreduce_max<std::uint64_t>(remaining);

    // Request round.
    auto requests = comm.staged_alltoallv(req);
    // Serve round: serialize [id u32][len u32][codes ...] per fragment.
    std::vector<std::vector<std::uint8_t>> serve(static_cast<std::size_t>(p));
    {
      auto scope = comm.compute_scope();
      for (int d = 0; d < p; ++d) {
        for (std::uint32_t g : requests[d]) {
          const auto s = global.seq(g);
          const std::uint32_t len = static_cast<std::uint32_t>(s.size());
          auto& buf = serve[d];
          const std::size_t base = buf.size();
          buf.resize(base + 8 + s.size());
          std::memcpy(buf.data() + base, &g, 4);
          std::memcpy(buf.data() + base + 4, &len, 4);
          if (!s.empty())
            std::memcpy(buf.data() + base + 8, s.data(), s.size());
        }
      }
    }
    auto payloads = comm.staged_alltoallv(serve);
    {
      auto scope = comm.compute_scope();
      for (const auto& buf : payloads) {
        std::size_t off = 0;
        while (off < buf.size()) {
          std::uint32_t g, len;
          std::memcpy(&g, buf.data() + off, 4);
          std::memcpy(&len, buf.data() + off + 4, 4);
          auto& dst = fetched[local_index_of(g)];
          dst.resize(len);
          if (len != 0) std::memcpy(dst.data(), buf.data() + off + 8, len);
          off += 8 + len;
          ++stats.fetched_fragments;
        }
      }
    }
    ++stats.fetch_rounds;
    if (any_left == 0) break;
  }

  // Materialize the local store in local-id order.
  {
    auto scope = comm.compute_scope();
    for (std::size_t i = 0; i < needed.size(); ++i) {
      result.local_store.add(fetched[i], global.type(needed[i]));
      fetched[i].clear();
      fetched[i].shrink_to_fit();
    }
  }

  // ---- Step 5: remap suffixes to local ids, group by bucket, build. -----
  {
    obs::Span sp = obs::span(rank, "build_subtrees", "gst");
    auto scope = comm.compute_scope();
    for (Suffix& s : local_suffixes) {
      s.seq = static_cast<std::uint32_t>(local_index_of(s.seq));
    }
    sp.arg("suffixes", local_suffixes.size());
    group_and_build(result, std::move(local_suffixes), params);
    sp.arg("buckets", stats.local_buckets);
  }

  const auto& ledger_after = comm.ledger();
  stats.compute_seconds =
      ledger_after.compute_seconds - ledger_before.compute_seconds;
  stats.comm_seconds = ledger_after.comm_seconds - ledger_before.comm_seconds;
  stats.bytes_sent = ledger_after.bytes_sent - ledger_before.bytes_sent;

  // Publish this rank's build stats so GstBuildStats and the obs export
  // agree. Safe from rank threads: instrument updates are atomic.
  publish_gst_obs(rank, stats);
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
    for (const Suffix& s : all) {
      if (bucket_owner[bucket_of(global, s, w)] == role)
        local_suffixes.push_back(s);
    }
  }
  result.stats.local_suffixes = local_suffixes.size();
  result.bucket_owner = bucket_owner;

  materialize_from_global(result, global, local_suffixes);
  group_and_build(result, std::move(local_suffixes), params);
  return result;
}

}  // namespace pgasm::gst
