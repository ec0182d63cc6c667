// The benchmark's three workloads, generated from a seed with the
// simulator and the parameters of the matching example program:
//
//   wgs   examples/wgs_assembly  — 150 kbp, 8.8X uniform shotgun; the
//                                  assembly overlap/layout/polish path.
//   maize examples/maize_pipeline — 300 kbp repeat-rich genome sampled by
//                                  an MF/HC/BAC/WGS mixture; repeat
//                                  masking and many mid-size clusters.
//   env   examples/metagenome    — 30 species, 2,000 reads, clustering
//                                  only (paper §9.2); the bypass workload
//                                  for any assembly change.
//
// The genome is each example's default; the seed picks the reads (see
// make_workload), so `--seed 205` on wgs reproduces examples/wgs_assembly.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "pipeline/pipeline.hpp"
#include "sim/genome.hpp"
#include "sim/reads.hpp"

namespace perfbench {

struct Workload {
  std::string name;
  pgasm::sim::ReadSet reads;
  std::vector<pgasm::sim::Genome> genomes;  ///< indexed by ReadTruth::genome_id
  pgasm::pipeline::PipelineParams params;   ///< ranks left at 0
};

/// Read set `dataset` of the run seeded `seed`: the reads come from
/// `seed + 1 + dataset * 0x9E3779B97F4A7C15` (mod 2^64), so dataset 0 is
/// the example's read set. Throws std::invalid_argument for an unknown
/// workload name.
Workload make_workload(const std::string& name, std::uint64_t seed,
                       std::uint64_t dataset);

/// One input file: a FASTQ file holding a run of consecutive fragments
/// of one type (so types survive the round trip), or the vector library.
struct InputFile {
  std::string path;
  pgasm::seq::FragType type = pgasm::seq::FragType::kUnknown;
};

struct InputFiles {
  std::vector<InputFile> reads;  ///< in store order
  std::string vectors;           ///< FASTA
};

/// File names for `w`'s inputs under `dir` (a pure function of the store).
InputFiles input_files(const Workload& w, const std::string& dir);

/// Write `w`'s reads and the vector library to `dir` (which must exist).
void write_inputs(const Workload& w, const InputFiles& files);

struct LoadedInputs {
  pgasm::seq::FragmentStore store;
  std::vector<std::vector<pgasm::seq::Code>> vectors;
};

/// What a user does before calling run_pipeline: read every input file.
LoadedInputs load_inputs(const InputFiles& files);

/// Total bytes of the input files (for load throughput).
std::uint64_t input_bytes(const InputFiles& files);

}  // namespace perfbench
