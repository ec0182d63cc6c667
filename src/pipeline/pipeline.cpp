#include "pipeline/pipeline.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "core/wire.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"
#include "vmpi/runtime.hpp"

namespace pgasm::pipeline {

namespace {

/// Restore the partition from the *final* checkpoint the master writes at
/// the end of clustering. Refuses mid-run checkpoints (pending pairs or
/// unfinished roles) and anything whose hashes or sizes do not match this
/// run; the decoder has already checked every label against n_fragments.
bool restore_final_clusters(const core::ClusterParams& cp,
                            PipelineResult& result) {
  if (cp.checkpoint_path.empty()) return false;
  auto loaded = core::try_load_checkpoint(cp.checkpoint_path);
  if (!loaded) return false;
  const core::ClusterCheckpoint ck = std::move(loaded).value();
  if (core::checkpoint_mismatch(ck, result.pre.store, cp)) return false;
  if (!ck.pending.empty()) return false;
  for (const auto& rp : ck.progress) {
    if (rp.done == 0) return false;
  }
  result.clusters = util::UnionFind::from_labels(ck.labels);
  result.cluster_stats.pairs_generated = ck.pairs_generated;
  result.cluster_stats.pairs_aligned = ck.pairs_aligned;
  result.cluster_stats.pairs_accepted = ck.pairs_accepted;
  result.cluster_stats.merges = ck.merges;
  result.cluster_stats.merges_rejected_inconsistent =
      ck.merges_rejected_inconsistent;
  result.cluster_stats.resumed_from_epoch = ck.epoch;
  return true;
}

}  // namespace

ClusterSummary summarize_clusters(const util::UnionFind& clusters) {
  ClusterSummary s;
  s.total_fragments = clusters.size();
  const auto sets = clusters.extract_sets();
  std::uint64_t multi_members = 0;
  for (const auto& members : sets) {
    if (members.size() >= 2) {
      ++s.num_clusters;
      multi_members += members.size();
      s.max_cluster_size =
          std::max(s.max_cluster_size, static_cast<std::uint32_t>(members.size()));
    } else {
      ++s.num_singletons;
    }
  }
  if (s.num_clusters > 0) {
    s.avg_fragments_per_cluster =
        static_cast<double>(multi_members) / static_cast<double>(s.num_clusters);
  }
  if (s.total_fragments > 0) {
    s.max_cluster_fraction = static_cast<double>(s.max_cluster_size) /
                             static_cast<double>(s.total_fragments);
  }
  return s;
}

PipelineResult run_pipeline(const seq::FragmentStore& raw,
                            const std::vector<std::vector<seq::Code>>& vectors,
                            const PipelineParams& params) {
  // Fail fast on parameter combinations that would run the whole pipeline
  // and silently produce a useless clustering or assembly (zero-width band,
  // identity outside (0,1], min_overlap below ψ, negative tolerance, k-mer
  // lengths that do not fit a 64-bit key).
  preprocess::validate_preprocess_params(params.pre);
  core::validate_cluster_params(params.cluster);
  align::validate_overlap_params(params.assembly.overlap, params.assembly.psi);
  if (params.assembly.placement_tolerance < 0) {
    throw std::invalid_argument(
        "assembly params: placement_tolerance must be >= 0, got " +
        std::to_string(params.assembly.placement_tolerance));
  }

  PipelineResult result;
  const bool obs_on = !params.obs_dir.empty();
  if (obs_on) {
    if (params.trace_capacity != 0)
      obs::tracer().set_capacity(params.trace_capacity);
    obs::begin_run();
  }

  // Recovery supervisor (no-op pass-through when checkpoint_dir is empty).
  SupervisorParams sup_params;
  sup_params.dir = params.checkpoint_dir;
  sup_params.max_attempts = params.phase_max_attempts;
  if (!params.checkpoint_dir.empty()) {
    sup_params.input_hash = core::cluster_input_hash(raw);
    sup_params.params_hash = core::cluster_params_hash(params.cluster);
  }
  Supervisor sup(sup_params);

  // --- Preprocessing --------------------------------------------------------
  sup.run_phase(PhaseId::kPreprocess, /*required=*/true, [&](std::uint32_t) {
    result.pre = preprocess::PreprocessResult{};
    if (obs_on) obs::set_phase("preprocess");
    obs::Span phase_span = obs::span(obs::kDriverTid, "preprocess", "pipeline");
    if (params.run_preprocess) {
      result.pre = preprocess::preprocess(raw, vectors, params.pre);
    } else {
      for (seq::FragmentId id = 0; id < raw.size(); ++id) {
        result.pre.store.add(raw.seq(id), raw.type(id), raw.name(id));
        result.pre.unmasked_store.add(raw.seq(id), raw.type(id), raw.name(id));
        result.pre.kept_ids.push_back(id);
      }
    }
    phase_span.arg("fragments_in", raw.size());
    phase_span.arg("fragments_kept", result.pre.store.size());
  });
  if (obs_on) {
    auto& reg = obs::registry();
    const preprocess::PreprocessStats& ps = result.pre.stats;
    const char* ph = "preprocess";
    reg.counter("preprocess.fragments_in", obs::kNoRank, ph).inc(raw.size());
    reg.counter("preprocess.fragments_kept", obs::kNoRank, ph)
        .inc(result.pre.store.size());
    reg.counter("preprocess.quality_trimmed_bases", obs::kNoRank, ph)
        .inc(ps.quality_trimmed_bases);
    reg.counter("preprocess.vector_trimmed_bases", obs::kNoRank, ph)
        .inc(ps.vector_trimmed_bases);
    reg.counter("preprocess.masked_bases", obs::kNoRank, ph)
        .inc(ps.masked_bases);
    reg.counter("preprocess.discarded_short", obs::kNoRank, ph)
        .inc(ps.discarded_short);
    reg.counter("preprocess.discarded_masked", obs::kNoRank, ph)
        .inc(ps.discarded_masked);
    reg.counter("preprocess.repetitive_kmers", obs::kNoRank, ph)
        .inc(ps.repetitive_kmers);
    // Run-stable spectrum fingerprint: two runs over the same input must
    // export the same value, so perf/obs diffs catch masking drift.
    reg.counter("preprocess.spectrum_fingerprint", obs::kNoRank, ph)
        .inc(ps.repeat_spectrum_fingerprint);
  }

  // --- Clustering -----------------------------------------------------------
  if (obs_on) obs::set_phase("cluster");
  obs::Span cluster_span = obs::span(obs::kDriverTid, "cluster", "pipeline");
  if (params.ranks >= 2) {
    core::ClusterParams cp = params.cluster;
    if (!params.checkpoint_dir.empty()) {
      if (cp.checkpoint_path.empty())
        cp.checkpoint_path = params.checkpoint_dir + "/cluster.ckpt";
      if (cp.checkpoint_every_reports == 0) cp.checkpoint_every_reports = 64;
    }
    // A manifest vouching for a completed clustering plus a valid final
    // checkpoint restores the partition without touching the runtime.
    bool restored = false;
    if (sup.enabled() && sup.completed_in_manifest(PhaseId::kCluster) &&
        restore_final_clusters(cp, result)) {
      restored = true;
      sup.note_skipped(PhaseId::kCluster);
    }
    if (!restored) {
      sup.run_phase(PhaseId::kCluster, /*required=*/true,
                    [&](std::uint32_t attempt) {
        result.clusters = util::UnionFind{};
        result.cluster_stats = core::ClusterStats{};
        core::ClusterCheckpoint resume_ck;
        bool has_resume = false;
        if (!params.checkpoint_dir.empty()) {
          auto loaded = core::try_load_checkpoint(cp.checkpoint_path);
          if (loaded) {
            resume_ck = std::move(loaded).value();
            // Only resume a checkpoint written for this very input and
            // configuration; a stale file falls back to a fresh run.
            has_resume = !core::checkpoint_mismatch(
                resume_ck, result.pre.store, cp);
          } else if (loaded.error().code != core::WireErrc::kIo) {
            // Missing file is the normal first-run case; anything else means
            // a checkpoint exists but cannot be trusted. Say so before
            // starting fresh — silent fallback would hide corruption forever.
            util::log_warn() << "ignoring unusable checkpoint "
                             << cp.checkpoint_path << ": "
                             << loaded.error().message();
          }
        }
        auto pr = core::cluster_parallel(
            result.pre.store, cp, params.ranks, params.cost,
            attempt == 0 ? params.faults : vmpi::FaultPlan{},
            has_resume ? &resume_ck : nullptr);
        result.clusters = std::move(pr.clusters);
        result.cluster_stats = pr.stats;
        result.cost = std::move(pr.cost);
        // The master left a final checkpoint. Under the supervisor it lets
        // a rerun restore the finished partition (the manifest records
        // which runs it is valid for); with no manifest to vouch for it, a
        // leftover file would make the next fresh run "resume" a finished
        // state.
        if (!cp.checkpoint_path.empty() && !sup.enabled()) {
          std::remove(cp.checkpoint_path.c_str());
        }
      });
    }
  } else {
    sup.run_phase(PhaseId::kCluster, /*required=*/true, [&](std::uint32_t) {
      auto sr = core::cluster_serial(result.pre.store, params.cluster);
      result.clusters = std::move(sr.clusters);
      result.cluster_stats = sr.stats;
      // Parallel runs publish these inside cluster_parallel (rank 0); serial
      // runs publish them here at driver level.
      if (obs_on) {
        auto& reg = obs::registry();
        const core::ClusterStats& cs = result.cluster_stats;
        const char* ph = "cluster";
        reg.counter("cluster.pairs_generated", obs::kNoRank, ph)
            .inc(cs.pairs_generated);
        reg.counter("cluster.pairs_aligned", obs::kNoRank, ph)
            .inc(cs.pairs_aligned);
        reg.counter("cluster.pairs_accepted", obs::kNoRank, ph)
            .inc(cs.pairs_accepted);
        reg.counter("cluster.merges", obs::kNoRank, ph).inc(cs.merges);
        reg.gauge("cluster.gst_seconds", obs::kNoRank, ph).set(cs.gst_seconds);
        reg.gauge("cluster.cluster_seconds", obs::kNoRank, ph)
            .set(cs.cluster_seconds);
      }
    });
  }
  result.cluster_summary = summarize_clusters(result.clusters);
  cluster_span.arg("merges", result.cluster_stats.merges);
  cluster_span.arg("clusters", result.cluster_summary.num_clusters);
  cluster_span.finish();
  if (obs_on) {
    auto& reg = obs::registry();
    const ClusterSummary& s = result.cluster_summary;
    reg.counter("cluster.num_clusters", obs::kNoRank, "cluster")
        .inc(s.num_clusters);
    reg.counter("cluster.num_singletons", obs::kNoRank, "cluster")
        .inc(s.num_singletons);
    reg.counter("cluster.max_cluster_size", obs::kNoRank, "cluster")
        .inc(s.max_cluster_size);
  }

  // Materialize cluster membership: non-singletons by decreasing size,
  // ties by smallest member id. extract_sets() already orders members
  // ascending and clusters by representative, but the explicit tie-break
  // makes the contig emission order a pure function of the clustering
  // *partition* — not of which member happened to become the union-find
  // representative (DESIGN.md §16).
  auto sets = result.clusters.extract_sets();
  std::stable_sort(sets.begin(), sets.end(),
                   [](const auto& a, const auto& b) {
                     if (a.size() != b.size()) return a.size() > b.size();
                     return a.front() < b.front();
                   });
  result.cluster_sets = std::move(sets);

  // --- Per-cluster assembly -------------------------------------------------
  // "The subsequent assembly tasks are trivially parallelized by
  // distributing the clusters across multiple processors and running
  // multiple instances of a serial assembler in parallel" (Section 3).
  if (params.run_assembly) {
    sup.run_phase(PhaseId::kAssembly, /*required=*/true,
                  [&](std::uint32_t attempt) {
    if (obs_on) obs::set_phase("assembly");
    obs::Span asm_span = obs::span(obs::kDriverTid, "assembly", "pipeline");
    result.assemblies.clear();
    result.assembly_summary = AssemblySummary{};
    std::size_t n_assemble = 0;
    while (n_assemble < result.cluster_sets.size() &&
           result.cluster_sets[n_assemble].size() >= 2) {
      ++n_assemble;
    }
    util::WallTimer timer;
    result.assemblies.resize(n_assemble);
    // One span per cluster on the assembling rank (the driver tid when
    // serial), and its walk's counters per rank.
    auto assemble_one = [&](std::size_t ci, int rank) {
      obs::Span span = obs::span(rank, "assemble_cluster", "assembly");
      seq::FragmentStore sub;
      for (const auto id : result.cluster_sets[ci]) {
        sub.add(result.pre.unmasked_store.seq(id),
                result.pre.unmasked_store.type(id), {},
                result.pre.unmasked_store.quality(id));
      }
      olc::AssemblyResult out = olc::assemble(sub, params.assembly);
      const olc::AssemblyStats& st = out.stats;
      span.arg("cluster", ci);
      span.arg("fragments", sub.size());
      span.arg("overlaps_considered", st.overlaps_considered);
      if (obs_on) {
        auto& reg = obs::registry();
        reg.counter("assembly.overlaps_considered", rank, "assembly")
            .inc(st.overlaps_considered);
        reg.counter("assembly.overlaps_accepted", rank, "assembly")
            .inc(st.overlaps_accepted);
        reg.counter("assembly.layout_conflicts", rank, "assembly")
            .inc(st.layout_conflicts);
      }
      return out;
    };
    if (params.ranks >= 2 && n_assemble > 0) {
      // Clusters are sorted by decreasing size; round-robin over ranks is
      // an LPT-style balance. Results ship to rank 0 serialized.
      // Under the supervisor the chaos fault plan reaches this phase too
      // (first attempt only): a crashed or silenced worker surfaces as a
      // failed gather recv, and the retry reassembles everything clean.
      vmpi::Runtime rt(params.ranks, params.cluster.transport, params.cost,
                       sup.enabled() && attempt == 0 ? params.faults
                                                     : vmpi::FaultPlan{});
      const auto cost = rt.run([&](vmpi::Comm& comm) {
        std::vector<std::byte> outbox;
        {
          auto scope = comm.compute_scope();
          for (std::size_t ci = comm.rank(); ci < n_assemble;
               ci += comm.size()) {
            auto asm_result = assemble_one(ci, comm.rank());
            if (comm.rank() == 0) {
              result.assemblies[ci] = std::move(asm_result);
              continue;
            }
            core::encode_assembly(outbox, static_cast<std::uint32_t>(ci),
                                  asm_result);
          }
        }
        if (comm.rank() != 0) {
          // pgasm-lint: allow(raw-comm): assembly-result gather is a one-shot
          // all-to-root ship with its own framing, not clustering traffic.
          comm.send_payload(0, 7, std::move(outbox));
        } else {
          for (int src = 1; src < comm.size(); ++src) {
            // pgasm-lint: allow(raw-comm): matching root-side recv of the gather.
            const auto bytes = comm.recv(src, 7);
            for (auto& rec :
                 core::try_decode_assemblies(
                     bytes, static_cast<std::size_t>(src),
                     static_cast<std::size_t>(comm.size()), n_assemble)
                     .take_or_throw()) {
              result.assemblies[rec.cluster] = std::move(rec.result);
            }
          }
        }
      });
      result.assembly_summary.assembly_modeled_seconds =
          cost.modeled_parallel_seconds();
    } else {
      for (std::size_t ci = 0; ci < n_assemble; ++ci) {
        result.assemblies[ci] = assemble_one(ci, obs::kDriverTid);
      }
    }
    result.assembly_summary.assembly_seconds = timer.elapsed();
    std::vector<std::uint64_t> contig_lengths;
    result.assembly_summary.clusters_assembled = n_assemble;
    for (const auto& asm_result : result.assemblies) {
      for (const auto& contig : asm_result.contigs) {
        if (!contig.is_singleton()) {
          ++result.assembly_summary.total_contigs;
          contig_lengths.push_back(contig.length());
          result.assembly_summary.consensus_bases += contig.length();
        }
      }
    }
    result.assembly_summary.n50 = util::n50(std::move(contig_lengths));
    if (result.assembly_summary.clusters_assembled > 0) {
      result.assembly_summary.contigs_per_cluster =
          static_cast<double>(result.assembly_summary.total_contigs) /
          static_cast<double>(result.assembly_summary.clusters_assembled);
    }
    asm_span.arg("clusters", n_assemble);
    asm_span.arg("contigs", result.assembly_summary.total_contigs);
    asm_span.finish();
    if (obs_on) {
      auto& reg = obs::registry();
      const AssemblySummary& a = result.assembly_summary;
      const char* ph = "assembly";
      reg.counter("assembly.clusters_assembled", obs::kNoRank, ph)
          .inc(a.clusters_assembled);
      reg.counter("assembly.total_contigs", obs::kNoRank, ph)
          .inc(a.total_contigs);
      reg.counter("assembly.n50", obs::kNoRank, ph).inc(a.n50);
      reg.counter("assembly.consensus_bases", obs::kNoRank, ph)
          .inc(a.consensus_bases);
      reg.gauge("assembly.assembly_seconds", obs::kNoRank, ph)
          .set(a.assembly_seconds);
    }
    });
  }

  // --- Optional phases (degradable under the supervisor) --------------------
  if (params.optional_post_phase) {
    if (obs_on) obs::set_phase("validation");
    sup.run_phase(PhaseId::kValidation, /*required=*/false,
                  [&](std::uint32_t) { params.optional_post_phase(result); });
  }
  result.recovery = sup.stats();
  if (obs_on) {
    sup.publish_obs();
    obs::set_phase("");
    sup.run_phase(PhaseId::kObsExport, /*required=*/false,
                  [&](std::uint32_t) { obs::write_run_outputs(params.obs_dir); });
    obs::tracer().set_enabled(false);
  }
  result.recovery = sup.stats();
  return result;
}

GlobalScaffolds build_scaffolds(
    const PipelineResult& pipeline_result,
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& raw_mates,
    const std::vector<std::uint32_t>& mate_inserts, std::size_t raw_size,
    const olc::ScaffoldParams& params) {
  GlobalScaffolds out;
  // raw id -> preprocessed id (UINT32_MAX = invalidated).
  std::vector<std::uint32_t> raw_to_pre(raw_size, UINT32_MAX);
  for (std::uint32_t pre = 0; pre < pipeline_result.pre.kept_ids.size();
       ++pre) {
    raw_to_pre[pipeline_result.pre.kept_ids[pre]] = pre;
  }
  // Global contig list with layouts remapped to pre-store fragment ids.
  for (std::size_t ci = 0; ci < pipeline_result.assemblies.size(); ++ci) {
    const auto& members = pipeline_result.cluster_sets[ci];
    for (const auto& contig : pipeline_result.assemblies[ci].contigs) {
      olc::Contig global = contig;
      for (auto& pl : global.layout) pl.fragment = members[pl.fragment];
      out.contigs.push_back(std::move(global));
    }
  }
  // Remap mate links.
  std::vector<olc::MateLink> links;
  links.reserve(raw_mates.size());
  for (std::size_t i = 0; i < raw_mates.size(); ++i) {
    const auto [ra, rb] = raw_mates[i];
    if (ra >= raw_size || rb >= raw_size || raw_to_pre[ra] == UINT32_MAX ||
        raw_to_pre[rb] == UINT32_MAX) {
      ++out.mates_dropped;
      continue;
    }
    links.push_back(
        olc::MateLink{raw_to_pre[ra], raw_to_pre[rb], mate_inserts[i]});
  }
  out.result = olc::scaffold(out.contigs, links, params);
  std::vector<std::uint64_t> contig_lens;
  for (const auto& c : out.contigs) {
    if (!c.is_singleton()) contig_lens.push_back(c.length());
  }
  out.contig_n50 = util::n50(std::move(contig_lens));
  out.scaffold_span_n50 = out.result.span_n50(out.contigs);
  return out;
}

}  // namespace pgasm::pipeline
