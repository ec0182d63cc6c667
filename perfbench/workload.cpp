#include "workload.hpp"

#include <algorithm>
#include <filesystem>
#include <stdexcept>

#include "seq/fasta.hpp"
#include "seq/fastq.hpp"
#include "sim/community.hpp"

namespace perfbench {

using namespace pgasm;

namespace {

// Each workload's genome (or community) is the one its example program
// simulates by default; --seed picks the sequencing run (the reads).
// Different genomes of one preset differ by up to ~20% in run time, which
// would swamp any regression bound, so the genome stays fixed.
constexpr std::uint64_t kWgsGenomeSeed = 205;
constexpr std::uint64_t kMaizeGenomeSeed = 2006;
constexpr std::uint64_t kEnvCommunitySeed = 304;

// Clustering parameters shared by all three examples.
void example_cluster_params(pipeline::PipelineParams& p) {
  p.cluster.psi = 20;
  p.cluster.overlap.min_overlap = 40;
  p.cluster.overlap.min_identity = 0.93;
}

Workload make_wgs(std::uint64_t read_seed) {
  constexpr std::uint64_t kGenome = 150'000;
  constexpr double kCoverage = 8.8;
  Workload w;
  w.name = "wgs";
  w.genomes.push_back(
      sim::simulate_genome(sim::shotgun_like(kGenome, kWgsGenomeSeed)));
  util::Prng rng(read_seed);
  sim::ReadParams rp;
  rp.len_mean = 550;
  rp.len_spread = 120;
  sim::sample_wgs(w.reads, w.genomes[0], kCoverage, rp, rng);
  w.params.pre.mask_repeats = true;
  w.params.pre.repeat.sample_fraction = std::min(1.0, 1.0 / kCoverage);
  example_cluster_params(w.params);
  return w;
}

Workload make_maize(std::uint64_t read_seed) {
  constexpr std::uint64_t kGenome = 300'000;
  Workload w;
  w.name = "maize";
  w.genomes.push_back(
      sim::simulate_genome(sim::maize_like(kGenome, kMaizeGenomeSeed)));
  const sim::Genome& g = w.genomes[0];
  util::Prng rng(read_seed);
  sim::ReadParams rp;
  rp.len_mean = 650;
  rp.len_spread = 150;
  const std::size_t enriched_n = kGenome / 900;
  sim::sample_gene_enriched(w.reads, g, enriched_n, 0.90, rp, rng,
                            seq::FragType::kMF);
  sim::sample_gene_enriched(w.reads, g, enriched_n, 0.85, rp, rng,
                            seq::FragType::kHC);
  sim::sample_bac(w.reads, g, 3, static_cast<std::uint32_t>(kGenome / 15), 0.6,
                  rp, rng);
  sim::sample_wgs(w.reads, g, 1.0, rp, rng);
  w.params.pre.repeat.sample_fraction = 1.0;
  example_cluster_params(w.params);
  w.params.assembly.overlap.min_identity = 0.96;
  return w;
}

Workload make_env(std::uint64_t read_seed) {
  Workload w;
  w.name = "env";
  sim::CommunityParams cp;
  cp.num_species = 30;
  cp.genome_len_min = 10'000;
  cp.genome_len_max = 40'000;
  cp.seed = kEnvCommunitySeed;
  sim::Community community = sim::simulate_community(cp);
  util::Prng rng(read_seed);
  sim::ReadParams rp;
  rp.len_mean = 600;
  rp.len_spread = 120;
  sim::sample_community(w.reads, community, 2000, rp, rng);
  w.genomes = std::move(community.genomes);
  w.params.run_assembly = false;  // paper §9.2 clusters only
  example_cluster_params(w.params);
  return w;
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed,
                       std::uint64_t dataset) {
  const std::uint64_t read_seed = seed + 1 + dataset * 0x9E3779B97F4A7C15ull;
  if (name == "wgs") return make_wgs(read_seed);
  if (name == "maize") return make_maize(read_seed);
  if (name == "env") return make_env(read_seed);
  throw std::invalid_argument("unknown workload: " + name);
}

InputFiles input_files(const Workload& w, const std::string& dir) {
  InputFiles files;
  const seq::FragmentStore& s = w.reads.store;
  for (seq::FragmentId i = 0; i < s.size(); ++i) {
    if (i == 0 || s.type(i) != s.type(i - 1)) {
      files.reads.push_back(
          {dir + "/reads." + std::to_string(files.reads.size()) + "." +
               seq::frag_type_name(s.type(i)) + ".fastq",
           s.type(i)});
    }
  }
  files.vectors = dir + "/vectors.fa";
  return files;
}

void write_inputs(const Workload& w, const InputFiles& files) {
  const seq::FragmentStore& s = w.reads.store;
  seq::FragmentId i = 0;
  for (const InputFile& f : files.reads) {
    seq::FragmentStore run;
    for (; i < s.size() && s.type(i) == f.type; ++i) {
      run.add(s.seq(i), s.type(i), s.name(i), s.quality(i));
    }
    seq::write_fastq_file(f.path, run);
  }
  seq::FragmentStore vec;
  for (const auto& v : sim::vector_library()) vec.add(v);
  seq::write_fasta_file(files.vectors, vec);
}

LoadedInputs load_inputs(const InputFiles& files) {
  LoadedInputs in;
  for (const InputFile& f : files.reads) {
    seq::read_fastq_file(f.path, in.store, {.default_type = f.type});
  }
  seq::FragmentStore vec;
  seq::read_fasta_file(files.vectors, vec);
  in.vectors.reserve(vec.size());
  for (seq::FragmentId i = 0; i < vec.size(); ++i) {
    const auto v = vec.seq(i);
    in.vectors.emplace_back(v.begin(), v.end());
  }
  return in;
}

std::uint64_t input_bytes(const InputFiles& files) {
  std::uint64_t total = std::filesystem::file_size(files.vectors);
  for (const InputFile& f : files.reads) {
    total += std::filesystem::file_size(f.path);
  }
  return total;
}

}  // namespace perfbench
