#include "measures.hpp"

#include <algorithm>
#include <cstring>
#include <map>

#include "pipeline/validation.hpp"

namespace perfbench {

using namespace pgasm;

namespace {

template <typename T>
void put(std::string& out, const T& v) {
  char buf[sizeof(T)];
  std::memcpy(buf, &v, sizeof(T));
  out.append(buf, sizeof(T));
}

}  // namespace

std::string store_difference(const seq::FragmentStore& a,
                             const seq::FragmentStore& b) {
  if (a.size() != b.size()) {
    return "fragment count " + std::to_string(a.size()) + " vs " +
           std::to_string(b.size());
  }
  if (a.has_quality() != b.has_quality()) return "quality presence differs";
  for (seq::FragmentId i = 0; i < a.size(); ++i) {
    const auto sa = a.seq(i), sb = b.seq(i);
    const auto qa = a.quality(i), qb = b.quality(i);
    const std::string at = " of fragment " + std::to_string(i);
    if (!std::equal(sa.begin(), sa.end(), sb.begin(), sb.end()))
      return "sequence" + at;
    if (!std::equal(qa.begin(), qa.end(), qb.begin(), qb.end()))
      return "qualities" + at;
    if (a.type(i) != b.type(i)) return "type" + at;
  }
  return {};
}

std::vector<std::vector<std::uint32_t>> ordered_cluster_sets(
    const util::UnionFind& clusters) {
  auto sets = clusters.extract_sets();
  std::stable_sort(sets.begin(), sets.end(), [](const auto& a, const auto& b) {
    if (a.size() != b.size()) return a.size() > b.size();
    return a.front() < b.front();
  });
  return sets;
}

std::string partition_bytes(
    const std::vector<std::vector<std::uint32_t>>& cluster_sets) {
  std::string out;
  put(out, static_cast<std::uint64_t>(cluster_sets.size()));
  for (const auto& members : cluster_sets) {
    put(out, static_cast<std::uint64_t>(members.size()));
    for (const auto m : members) put(out, m);
  }
  return out;
}

std::string contig_bytes(const std::vector<olc::AssemblyResult>& assemblies) {
  std::string out;
  put(out, static_cast<std::uint64_t>(assemblies.size()));
  for (const auto& ar : assemblies) {
    put(out, static_cast<std::uint64_t>(ar.contigs.size()));
    for (const auto& c : ar.contigs) {
      put(out, static_cast<std::uint64_t>(c.consensus.size()));
      out.append(reinterpret_cast<const char*>(c.consensus.data()),
                 c.consensus.size());
      put(out, static_cast<std::uint64_t>(c.layout.size()));
      for (const auto& pl : c.layout) {
        put(out, pl.fragment);
        put(out, static_cast<std::uint8_t>(pl.flip));
        put(out, pl.offset);
      }
    }
  }
  return out;
}

std::vector<ContigLoci> contig_loci(
    const std::vector<std::vector<std::uint32_t>>& cluster_sets,
    const std::vector<olc::AssemblyResult>& assemblies,
    const std::vector<sim::ReadTruth>& truth) {
  std::vector<ContigLoci> out;
  for (std::size_t ci = 0; ci < assemblies.size(); ++ci) {
    for (const auto& contig : assemblies[ci].contigs) {
      auto layout = contig.layout;
      std::stable_sort(layout.begin(), layout.end(),
                       [](const auto& x, const auto& y) {
                         return x.offset < y.offset;
                       });
      ContigLoci loci;
      for (const auto& pl : layout) {
        const sim::ReadTruth& t = truth[cluster_sets[ci][pl.fragment]];
        loci.push_back({t.genome_id, t.begin, t.end});
      }
      out.push_back(std::move(loci));
    }
  }
  return out;
}

double genome_frac(const std::vector<ContigLoci>& contigs,
                   std::span<const std::uint64_t> genome_lengths) {
  std::map<std::uint32_t, std::vector<std::pair<std::uint64_t, std::uint64_t>>>
      spans;
  for (const auto& c : contigs) {
    if (c.size() < 2) continue;
    for (const auto& l : c) spans[l.genome].emplace_back(l.begin, l.end);
  }
  std::uint64_t total = 0, covered = 0;
  for (const auto len : genome_lengths) total += len;
  for (auto& [genome, iv] : spans) {
    std::sort(iv.begin(), iv.end());
    std::uint64_t reach = 0;
    for (const auto& [b, e] : iv) {
      const std::uint64_t from = std::max(b, reach);
      if (e > from) covered += e - from;
      reach = std::max(reach, e);
    }
  }
  return total == 0 ? 0.0
                    : static_cast<double>(covered) / static_cast<double>(total);
}

std::uint64_t misjoins(const std::vector<ContigLoci>& contigs) {
  std::uint64_t n = 0;
  for (const auto& c : contigs) {
    for (std::size_t i = 1; i < c.size(); ++i) {
      const Locus& a = c[i - 1];
      const Locus& b = c[i];
      const bool touch = a.genome == b.genome && a.begin <= b.end &&
                         b.begin <= a.end;
      n += touch ? 0 : 1;
    }
  }
  return n;
}

RoundRobin round_robin(std::span<const double> cluster_seconds, int ranks) {
  RoundRobin rr;
  if (cluster_seconds.empty() || ranks < 1) return rr;
  std::vector<double> load(static_cast<std::size_t>(ranks), 0.0);
  double total = 0;
  for (std::size_t i = 0; i < cluster_seconds.size(); ++i) {
    load[i % load.size()] += cluster_seconds[i];
    total += cluster_seconds[i];
  }
  rr.makespan = *std::max_element(load.begin(), load.end());
  rr.imbalance = total > 0 ? rr.makespan / (total / ranks) : 1.0;
  return rr;
}

std::uint64_t banded_cells(std::uint32_t len_a, std::uint32_t len_b,
                           std::int32_t shift, std::uint32_t band) {
  // Row i of the kernel fills columns [max(0, i+shift-band),
  // min(len_b, i+shift+band)] for i in [0, len_a].
  const std::int64_t lb = len_b, s = shift, w = band;
  std::uint64_t cells = 0;
  for (std::int64_t i = 0; i <= static_cast<std::int64_t>(len_a); ++i) {
    const std::int64_t lo = std::max<std::int64_t>(0, i + s - w);
    const std::int64_t hi = std::min<std::int64_t>(lb, i + s + w);
    if (hi >= lo) cells += static_cast<std::uint64_t>(hi - lo + 1);
  }
  return cells;
}

Quality evaluate_quality(const pipeline::PipelineResult& result,
                         const std::vector<sim::ReadTruth>& raw_truth,
                         std::span<const sim::Genome> genomes) {
  std::vector<sim::ReadTruth> truth;
  truth.reserve(result.pre.kept_ids.size());
  for (const auto id : result.pre.kept_ids) truth.push_back(raw_truth[id]);
  Quality q;
  const auto purity = pipeline::evaluate_purity(result.cluster_sets, truth);
  q.purity = purity.purity;
  q.clusters_per_island = purity.avg_clusters_per_island;
  if (!result.assemblies.empty()) {
    q.n50_bp = result.assembly_summary.n50;
    q.consensus_err_per_10k =
        pipeline::evaluate_consensus(result.cluster_sets, result.assemblies,
                                     truth, genomes)
            .error_rate() *
        1e4;
    const auto loci =
        contig_loci(result.cluster_sets, result.assemblies, truth);
    std::vector<std::uint64_t> lengths;
    for (const auto& g : genomes) lengths.push_back(g.length());
    q.genome_frac = genome_frac(loci, lengths);
    q.misjoins = misjoins(loci);
  }
  return q;
}

}  // namespace perfbench
