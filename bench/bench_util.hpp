// Shared dataset builders and reporting helpers for the bench binaries.
//
// Each bench regenerates one table or figure of the paper at a scaled-down
// size (see DESIGN.md section 6 for the scaling map). Datasets are
// deterministic in the seed so EXPERIMENTS.md numbers are replayable.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "pipeline/pipeline.hpp"
#include "pipeline/validation.hpp"
#include "sim/community.hpp"
#include "sim/genome.hpp"
#include "sim/reads.hpp"
#include "util/flags.hpp"
#include "util/stats.hpp"
#include "vmpi/transport.hpp"

namespace pgasm::bench {

/// Maize-style mixed dataset (MF + HC + BAC + WGS) over a repeat-rich
/// genome, sized so the read set totals roughly `target_bp` characters.
inline sim::ReadSet maize_dataset(std::uint64_t target_bp,
                                  std::uint64_t seed) {
  // Reads average ~650 bp; the genome is sized for ~2.5X total coverage,
  // mirroring the pilot project's mixture of deep genic / shallow genomic.
  const std::uint64_t genome_len = target_bp / 5 * 2;
  const auto genome = sim::simulate_genome(sim::maize_like(genome_len, seed));
  util::Prng rng(seed + 1);
  sim::ReadSet rs;
  sim::ReadParams rp;
  rp.len_mean = 650;
  rp.len_spread = 150;
  const std::uint64_t enriched_bp = target_bp * 3 / 10;  // MF + HC ~60%
  const std::size_t enriched_n = enriched_bp / rp.len_mean;
  sim::sample_gene_enriched(rs, genome, enriched_n, 0.90, rp, rng,
                            seq::FragType::kMF);
  sim::sample_gene_enriched(rs, genome, enriched_n, 0.85, rp, rng,
                            seq::FragType::kHC);
  sim::sample_bac(rs, genome, 2,
                  static_cast<std::uint32_t>(genome_len / 20), 0.5, rp, rng);
  // Fill the remainder with WGS.
  const std::uint64_t have = rs.store.total_length();
  if (have < target_bp) {
    const double cov = static_cast<double>(target_bp - have) /
                       static_cast<double>(genome_len);
    sim::sample_wgs(rs, genome, cov, rp, rng);
  }
  return rs;
}

/// Uniform WGS dataset (Drosophila-style) totalling ~target_bp.
inline sim::ReadSet wgs_dataset(std::uint64_t target_bp, double coverage,
                                std::uint64_t seed) {
  const std::uint64_t genome_len =
      static_cast<std::uint64_t>(static_cast<double>(target_bp) / coverage);
  const auto genome =
      sim::simulate_genome(sim::shotgun_like(genome_len, seed));
  util::Prng rng(seed + 1);
  sim::ReadSet rs;
  sim::ReadParams rp;
  rp.len_mean = 550;
  rp.len_spread = 120;
  sim::sample_wgs(rs, genome, coverage, rp, rng);
  return rs;
}

/// Environmental (Sargasso-style) dataset totalling ~target_bp.
inline sim::ReadSet env_dataset(std::uint64_t target_bp, std::uint32_t species,
                                std::uint64_t seed) {
  sim::CommunityParams cp;
  cp.num_species = species;
  cp.genome_len_min = 8'000;
  cp.genome_len_max = 40'000;
  cp.seed = seed;
  const auto community = sim::simulate_community(cp);
  util::Prng rng(seed + 1);
  sim::ReadSet rs;
  sim::ReadParams rp;
  rp.len_mean = 600;
  rp.len_spread = 120;
  sim::sample_community(rs, community, target_bp / rp.len_mean, rp, rng);
  return rs;
}

/// Clustering parameters used across benches (the paper's regime scaled).
inline core::ClusterParams bench_cluster_params() {
  core::ClusterParams p;
  p.psi = 20;
  p.prefix_w = 6;
  p.overlap.min_overlap = 40;
  p.overlap.min_identity = 0.93;
  p.overlap.band = 10;
  p.batch_size = 128;
  return p;
}

/// Best-effort `git describe` of the working tree, "" when unavailable
/// (not a git checkout, or git not installed). Stamped into BENCH_*.json
/// metadata so perf_diff can report which revisions it is comparing.
inline std::string git_describe() {
  std::string out;
#if defined(__unix__) || defined(__APPLE__)
  if (FILE* p = ::popen("git describe --always --dirty 2>/dev/null", "r")) {
    char buf[128];
    while (std::fgets(buf, sizeof(buf), p) != nullptr) out += buf;
    ::pclose(p);
  }
#endif
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
    out.pop_back();
  }
  return out;
}

inline void print_header(const char* paper_ref, const char* what) {
  std::printf("=====================================================\n");
  std::printf("%s\n", paper_ref);
  std::printf("%s\n", what);
  std::printf("=====================================================\n");
}

/// Machine-readable companion to the printed tables: collects run
/// parameters and per-configuration data points, then writes
/// BENCH_<name>.json in the working directory so CI and plotting scripts
/// can diff runs without scraping stdout.
///
///   bench::BenchJson bj("fig5_gst_scaling");
///   bj.param("ranks", 16);
///   auto& pt = bj.point();
///   pt.set("ranks", 4).set("total_s", 0.123);
///   bj.write();
class BenchJson {
 public:
  /// One data point: an ordered list of key -> JSON-value pairs.
  class Point {
   public:
    Point& set(const std::string& key, const std::string& v) {
      fields_.emplace_back(key, quote(v));
      return *this;
    }
    Point& set(const std::string& key, const char* v) {
      return set(key, std::string(v));
    }
    Point& set(const std::string& key, double v) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g", v);
      // JSON has no inf/nan literals.
      fields_.emplace_back(key, std::isfinite(v) ? buf : "null");
      return *this;
    }
    Point& set(const std::string& key, bool v) {
      fields_.emplace_back(key, v ? "true" : "false");
      return *this;
    }
    template <typename T,
              typename = std::enable_if_t<std::is_integral_v<T>>>
    Point& set(const std::string& key, T v) {
      fields_.emplace_back(key, std::to_string(v));
      return *this;
    }

   private:
    friend class BenchJson;
    static std::string quote(const std::string& s) {
      std::string out = "\"";
      for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
              char buf[8];
              std::snprintf(buf, sizeof(buf), "\\u%04x", c);
              out += buf;
            } else {
              out += c;
            }
        }
      }
      out += '"';
      return out;
    }
    std::vector<std::pair<std::string, std::string>> fields_;
  };

  /// `keys` names the point fields that identify a configuration (ranks,
  /// input size, ...). perf_diff groups points by these alone and compares
  /// every other numeric field as a value, so run-varying counts never
  /// split a group.
  BenchJson(std::string name, std::vector<std::string> keys)
      : name_(std::move(name)), keys_(std::move(keys)) {
    // Run metadata, stamped into every file: perf_diff refuses to compare
    // points measured under different build types or vmpi transports, and
    // records revisions. The transport is the run's effective default
    // (PGASM_TRANSPORT or "thread") — thread and proc numbers live in
    // different performance regimes (shared-memory rings + real context
    // switches vs in-process mailboxes) and must never diff against each
    // other. A bench that varies the transport per point should also set a
    // "transport" field on its points and name it in its keys.
    meta_.set("git", git_describe());
#ifdef PGASM_BUILD_TYPE
    meta_.set("build_type", PGASM_BUILD_TYPE);
#else
    meta_.set("build_type", "");
#endif
    meta_.set("transport",
              vmpi::transport_name(vmpi::resolve_transport("")));
    meta_.set("hardware_threads", std::thread::hardware_concurrency());
  }

  /// Record a run parameter (flag value, dataset size, ...).
  template <typename T>
  void param(const std::string& key, T v) {
    params_.set(key, v);
  }

  /// Start a new data point; returned reference stays valid until the next
  /// point() call or write().
  Point& point() {
    points_.emplace_back();
    return points_.back();
  }

  /// Write BENCH_<name>.json (or to an explicit path). Prints the path to
  /// stderr so bench logs record where the data went.
  void write(const std::string& path = "") const {
    const std::string out_path =
        path.empty() ? "BENCH_" + name_ + ".json" : path;
    std::ofstream out(out_path);
    if (!out) throw std::runtime_error("cannot write " + out_path);
    out << "{\n  \"bench\": " << Point::quote(name_) << ",\n  \"meta\": ";
    write_object(out, meta_, "  ");
    out << ",\n  \"params\": ";
    write_object(out, params_, "  ");
    out << ",\n  \"keys\": [";
    for (std::size_t i = 0; i < keys_.size(); ++i)
      out << (i ? ", " : "") << Point::quote(keys_[i]);
    out << "]";
    out << ",\n  \"points\": [";
    for (std::size_t i = 0; i < points_.size(); ++i) {
      out << (i ? ",\n    " : "\n    ");
      write_object(out, points_[i], "    ");
    }
    out << (points_.empty() ? "]" : "\n  ]") << "\n}\n";
    if (!out.flush()) throw std::runtime_error("cannot write " + out_path);
    std::fprintf(stderr, "wrote %s (%zu points)\n", out_path.c_str(),
                 points_.size());
  }

 private:
  static void write_object(std::ofstream& out, const Point& p,
                           const std::string&) {
    out << "{";
    for (std::size_t i = 0; i < p.fields_.size(); ++i) {
      out << (i ? ", " : "") << Point::quote(p.fields_[i].first) << ": "
          << p.fields_[i].second;
    }
    out << "}";
  }

  std::string name_;
  Point meta_;
  Point params_;
  std::vector<std::string> keys_;
  std::vector<Point> points_;
};

}  // namespace pgasm::bench
