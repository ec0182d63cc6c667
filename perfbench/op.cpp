// The benchmark's measuring program. perfbench/run.py starts one process
// per operation, so a crash or hang is charged to that operation alone and
// each call's peak RSS is its own.
//
//   perfbench_op prepare --workload W --seed S [--dataset J] --dir D
//       generate read set J (default 0) of W from S and write its input
//       files to D. Every command takes --dataset the same way.
//   perfbench_op setup --workload W --seed S --dir D --loads K
//       load the inputs K times (setup_s) and check the last load against
//       the generated store.
//   perfbench_op op --workload W --seed S --dir D --ranks R --out PREFIX
//                   [--quality]
//       load the inputs, check them against the generated store, call
//       pipeline::run_pipeline once at R ranks (0 = serial) and write
//       PREFIX.partition / PREFIX.contigs for the byte-for-byte comparison
//       across rank counts. With --quality (serial calls only) also
//       evaluate the output's quality against the truth.
//   perfbench_op trace --workload W --seed S --dir D --out PREFIX
//       the traced run: time every layer's public functions from outside,
//       write PREFIX.trace.json (Chrome trace) and PREFIX.partition /
//       PREFIX.contigs of the traced serial path.
//
// Each command prints one JSON object on its last stdout line. Exit codes:
// 0 success, 3 the pipeline threw, 4 an output check failed, 2 usage.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/parallel_cluster.hpp"
#include "core/serial_cluster.hpp"
#include "gst/pair_generator.hpp"
#include "gst/suffix_tree.hpp"
#include "measures.hpp"
#include "spans.hpp"
#include "util/flags.hpp"
#include "util/timer.hpp"
#include "workload.hpp"

using namespace pgasm;
using perfbench::SpanRecorder;

namespace {

constexpr int kExitThrew = 3;
constexpr int kExitCheck = 4;

/// One flat JSON object, printed as the last stdout line.
class JsonLine {
 public:
  JsonLine& num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return raw(key, buf);
  }
  JsonLine& str(const std::string& key, const std::string& v) {
    std::string q = "\"";
    for (const char c : v) {
      if (c == '"' || c == '\\') q += '\\';
      q += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
    }
    return raw(key, q + "\"");
  }
  JsonLine& boolean(const std::string& key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  JsonLine& list(const std::string& key, const std::vector<double>& v) {
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%s%.17g", i ? "," : "", v[i]);
      s += buf;
    }
    return raw(key, s + "]");
  }
  void print() const { std::printf("{%s}\n", body_.c_str()); }

 private:
  JsonLine& raw(const std::string& key, const std::string& v) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"" + key + "\":" + v;
    return *this;
  }
  std::string body_;
};

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) throw std::runtime_error("cannot write " + path);
}

/// Reset the kernel's peak-RSS mark (VmHWM) to the current RSS, so the
/// next reading covers only what runs after this call.
bool reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream in(line.substr(6));
      double kb = 0;
      in >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

/// Loads the inputs `loads` times; returns the last load and each time.
perfbench::LoadedInputs timed_loads(const perfbench::InputFiles& files,
                                    int loads, std::vector<double>& seconds) {
  perfbench::LoadedInputs in;
  for (int k = 0; k < std::max(loads, 1); ++k) {
    util::WallTimer t;
    in = perfbench::load_inputs(files);
    seconds.push_back(t.elapsed());
  }
  return in;
}

/// Empty when the loaded inputs equal the generated ones.
std::string input_difference(const perfbench::Workload& w,
                             const perfbench::LoadedInputs& in) {
  const std::string d = perfbench::store_difference(in.store, w.reads.store);
  if (!d.empty()) return "loaded reads differ from generated: " + d;
  if (in.vectors != sim::vector_library())
    return "loaded vector library differs from generated";
  return {};
}

int cmd_prepare(const perfbench::Workload& w,
                const perfbench::InputFiles& files, const std::string& dir) {
  std::filesystem::create_directories(dir);
  perfbench::write_inputs(w, files);
  JsonLine()
      .boolean("ok", true)
      .num("fragments", static_cast<double>(w.reads.store.size()))
      .num("bytes", static_cast<double>(perfbench::input_bytes(files)))
      .print();
  return 0;
}

int cmd_setup(const perfbench::Workload& w,
              const perfbench::InputFiles& files, int loads) {
  JsonLine j;
  std::vector<double> load_s;
  const perfbench::LoadedInputs in = timed_loads(files, loads, load_s);
  j.list("load_s", load_s);
  if (const std::string d = input_difference(w, in); !d.empty()) {
    j.boolean("ok", false).str("check", "input").str("error", d).print();
    return kExitCheck;
  }
  j.boolean("ok", true).print();
  return 0;
}

int cmd_op(const perfbench::Workload& w, const perfbench::InputFiles& files,
           int ranks, const std::string& out, bool quality) {
  JsonLine j;
  j.num("ranks", ranks);
  const perfbench::LoadedInputs in = perfbench::load_inputs(files);
  if (const std::string d = input_difference(w, in); !d.empty()) {
    j.boolean("ok", false).str("check", "input").str("error", d).print();
    return kExitCheck;
  }

  pipeline::PipelineParams params = w.params;
  params.ranks = ranks;
  const bool rss_reset = reset_peak_rss();
  util::WallTimer timer;
  pipeline::PipelineResult result;
  try {
    result = pipeline::run_pipeline(in.store, in.vectors, params);
  } catch (const std::exception& e) {
    j.boolean("ok", false)
        .num("wall_s", timer.elapsed())
        .str("error", e.what())
        .print();
    return kExitThrew;
  }
  j.num("wall_s", timer.elapsed());
  // Without the reset the mark also covers the loads above; no earlier
  // call can mask it either way, since each call has its own process.
  j.num("peak_rss_mb", peak_rss_mb());
  j.boolean("rss_reset", rss_reset);

  write_file(out + ".partition",
             perfbench::partition_bytes(result.cluster_sets));
  write_file(out + ".contigs", perfbench::contig_bytes(result.assemblies));

  const core::ClusterStats& cs = result.cluster_stats;
  j.num("pairs_aligned", static_cast<double>(cs.pairs_aligned))
      .num("probe_timeouts", static_cast<double>(cs.timeouts_fired))
      .num("heartbeats_sent", static_cast<double>(cs.heartbeats_sent))
      .num("workers_lost", static_cast<double>(cs.workers_lost))
      .num("takeovers", static_cast<double>(cs.generator_takeovers));
  if (quality && ranks == 0) {
    const perfbench::Quality q =
        perfbench::evaluate_quality(result, w.reads.truth, w.genomes);
    j.num("purity", q.purity)
        .num("clusters_per_island", q.clusters_per_island)
        .num("n50_bp", static_cast<double>(q.n50_bp))
        .num("consensus_err_per_10k", q.consensus_err_per_10k)
        .num("genome_frac", q.genome_frac)
        .num("misjoins", static_cast<double>(q.misjoins));
  }
  j.boolean("ok", true).print();
  return 0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

int cmd_trace(const perfbench::Workload& w, const perfbench::InputFiles& files,
              const std::string& out) {
  constexpr int kRanks = 4;         // the end-to-end wall_s rank count
  constexpr std::size_t kAlignStride = 8;
  constexpr std::size_t kAlignSample = 8192;
  constexpr double kAlignMinSeconds = 0.25;
  SpanRecorder rec;
  JsonLine m;  // per-layer metrics, names as in BENCHMARK.json
  const int root = rec.open("trace." + w.name);

  // --- seq: the loads a user pays before the pipeline starts ---------------
  std::vector<double> load_s;
  perfbench::LoadedInputs in;
  for (int k = 0; k < 3; ++k) {
    const int s = rec.open("seq.load", root);
    in = perfbench::load_inputs(files);
    load_s.push_back(rec.close(s));
  }
  const double bytes = static_cast<double>(perfbench::input_bytes(files));
  m.num("seq.load_s", median(load_s))
      .num("seq.mb_per_s", bytes / 1e6 / median(load_s));
  if (const std::string d = input_difference(w, in); !d.empty()) {
    JsonLine().boolean("ok", false).str("check", "input").str("error", d)
        .print();
    return kExitCheck;
  }

  // --- the serial pipeline path, one span per layer call -------------------
  const pipeline::PipelineParams& params = w.params;
  const int serial = rec.open("pipeline.serial_traced", root);
  int s = rec.open("preprocess", serial);
  const preprocess::PreprocessResult pre =
      preprocess::preprocess(in.store, in.vectors, params.pre);
  const double preprocess_s = rec.close(s);
  s = rec.open("core.cluster_serial", serial);
  const core::ClusterResult sr =
      core::cluster_serial(pre.store, params.cluster);
  const double core_serial_s = rec.close(s);
  const auto sets = perfbench::ordered_cluster_sets(sr.clusters);
  std::size_t n_assemble = 0;
  const int olc_span = rec.open("olc.assemble", serial);
  while (params.run_assembly && n_assemble < sets.size() &&
         sets[n_assemble].size() >= 2) {
    ++n_assemble;
  }
  std::vector<olc::AssemblyResult> assemblies(n_assemble);
  std::vector<double> cluster_s;
  for (std::size_t ci = 0; ci < n_assemble; ++ci) {
    const int c = rec.open("olc.cluster", olc_span);
    seq::FragmentStore sub;
    for (const auto id : sets[ci]) {
      sub.add(pre.unmasked_store.seq(id), pre.unmasked_store.type(id), {},
              pre.unmasked_store.quality(id));
    }
    assemblies[ci] = olc::assemble(sub, params.assembly);
    rec.arg(c, "cluster", static_cast<double>(ci));
    rec.arg(c, "members", static_cast<double>(sets[ci].size()));
    cluster_s.push_back(rec.close(c));
  }
  const double olc_s = rec.close(olc_span);
  const double traced_serial_s = rec.close(serial);
  write_file(out + ".partition", perfbench::partition_bytes(sets));
  write_file(out + ".contigs", perfbench::contig_bytes(assemblies));

  m.num("preprocess.s", preprocess_s)
      .num("preprocess.kept_frac", static_cast<double>(pre.store.size()) /
                                       static_cast<double>(in.store.size()))
      .num("preprocess.masked_bases",
           static_cast<double>(pre.stats.masked_bases));

  // --- olc: per-cluster assembly of the serial partition --------------------
  // With no cluster to assemble (env) every olc time is the measured
  // duration of the empty step, so assembly work appearing there shows.
  std::uint64_t considered = 0, accepted = 0, conflicts = 0, members = 0,
                contigs = 0;
  for (std::size_t ci = 0; ci < n_assemble; ++ci) {
    considered += assemblies[ci].stats.overlaps_considered;
    accepted += assemblies[ci].stats.overlaps_accepted;
    conflicts += assemblies[ci].stats.layout_conflicts;
    members += sets[ci].size();
    contigs += assemblies[ci].contigs.size();
  }
  const auto rr = perfbench::round_robin(cluster_s, kRanks);
  const bool any = !cluster_s.empty();
  m.num("olc.assemble_s", olc_s)
      .num("olc.cluster_s.p50", any ? median(cluster_s) : olc_s)
      .num("olc.cluster_s.max",
           any ? *std::max_element(cluster_s.begin(), cluster_s.end()) : olc_s)
      .num("olc.overlaps_considered", static_cast<double>(considered))
      .num("olc.overlaps_accepted", static_cast<double>(accepted))
      .num("olc.useful_overlap_frac",
           accepted ? static_cast<double>(members - contigs) /
                          static_cast<double>(accepted)
                    : 0.0)
      .num("olc.layout_conflicts", static_cast<double>(conflicts))
      .num("olc.rr_makespan_s", any ? rr.makespan : olc_s)
      .num("olc.rr_imbalance", rr.imbalance);

  // --- gst: the serial tree over the doubled preprocessed store -------------
  s = rec.open("gst.build", root);
  const seq::FragmentStore doubled = seq::make_doubled_store(pre.store);
  const gst::SuffixTree tree(
      doubled, gst::GstParams{.min_match = params.cluster.psi, .prefix_w = 0});
  const double build_s = rec.close(s);
  s = rec.open("gst.pairgen", root);
  gst::PairGenerator gen(tree, {.dup_elim = params.cluster.dup_elim,
                                .doubled_input = true});
  std::vector<gst::PromisingPair> sample;
  gst::PromisingPair pr;
  std::uint64_t pairs = 0;
  while (gen.next(pr)) {
    if (pairs++ % kAlignStride == 0 && sample.size() < kAlignSample)
      sample.push_back(pr);
  }
  const double pairgen_s = rec.close(s);
  const double nodes = static_cast<double>(tree.num_nodes());
  m.num("gst.build_s", build_s)
      .num("gst.nodes", nodes)
      .num("gst.ns_per_node", build_s * 1e9 / nodes)
      .num("gst.pairgen_s", pairgen_s)
      .num("gst.pairs", static_cast<double>(pairs))
      .num("gst.ns_per_pair",
           pairs ? pairgen_s * 1e9 / static_cast<double>(pairs) : 0.0);

  // --- align: a fixed sample of this workload's promising pairs -------------
  const align::OverlapParams& op = params.cluster.overlap;
  std::uint64_t cells = 0;
  for (const auto& p : sample) {
    cells += perfbench::banded_cells(doubled.length(p.seq_a),
                                     doubled.length(p.seq_b), p.shift(),
                                     op.band);
  }
  s = rec.open("align.sample", root);
  std::uint64_t passes = 0, accepted_in_sample = 0;
  util::WallTimer align_timer;
  do {
    accepted_in_sample = 0;
    for (const auto& p : sample) {
      const auto r = core::pair_overlap_details(doubled, p.seq_a, p.pos_a,
                                                p.seq_b, p.pos_b, op);
      accepted_in_sample += align::accept_overlap(r, op) ? 1 : 0;
    }
    ++passes;
  } while (!sample.empty() && align_timer.elapsed() < kAlignMinSeconds);
  const double align_s = rec.close(s);
  rec.arg(s, "passes", static_cast<double>(passes));
  rec.arg(s, "accepted_per_pass", static_cast<double>(accepted_in_sample));
  const double calls = static_cast<double>(sample.size());
  m.num("align.calls", calls)
      .num("align.ns_per_call",
           calls ? align_s * 1e9 / (calls * static_cast<double>(passes)) : 0.0)
      .num("align.cells_computed", static_cast<double>(cells))
      .num("align.ns_per_cell",
           cells ? align_s * 1e9 / (static_cast<double>(cells) *
                                    static_cast<double>(passes))
                 : 0.0);

  // --- core: serial and P=4 clustering; vmpi: the P=4 run's ledgers ---------
  s = rec.open("core.cluster_parallel", root);
  core::ParallelClusterResult par;
  try {
    par = core::cluster_parallel(pre.store, params.cluster, kRanks);
  } catch (const std::exception& e) {
    rec.close(s);
    JsonLine().boolean("ok", false).str("error", e.what()).print();
    return kExitThrew;
  }
  const double p4_s = rec.close(s);
  const core::ClusterStats& ss = sr.stats;
  const core::ClusterStats& ps = par.stats;
  m.num("core.serial_s", core_serial_s)
      .num("core.p4_s", p4_s)
      .num("core.pairs_generated", static_cast<double>(ss.pairs_generated))
      .num("core.pairs_aligned", static_cast<double>(ss.pairs_aligned))
      .num("core.merges", static_cast<double>(ss.merges))
      .num("core.aligned_per_merge",
           ss.merges ? static_cast<double>(ss.pairs_aligned) /
                           static_cast<double>(ss.merges)
                     : 0.0)
      .num("core.p4_pairs_aligned", static_cast<double>(ps.pairs_aligned))
      .num("core.master_availability", ps.master_availability)
      .num("core.probe_timeouts", static_cast<double>(ps.timeouts_fired))
      .num("core.heartbeats_sent", static_cast<double>(ps.heartbeats_sent))
      .num("core.workers_lost", static_cast<double>(ps.workers_lost))
      .num("core.takeovers", static_cast<double>(ps.generator_takeovers));
  double max_compute = 0, sum_compute = 0;
  for (const auto& l : par.cost.per_rank) {
    max_compute = std::max(max_compute, l.compute_seconds);
    sum_compute += l.compute_seconds;
  }
  const double ranks = static_cast<double>(par.cost.per_rank.size());
  m.num("vmpi.bytes", static_cast<double>(par.cost.total_bytes()))
      .num("vmpi.msgs", static_cast<double>(par.cost.total_msgs()))
      .num("vmpi.max_comm_s", par.cost.max_comm_seconds())
      .num("vmpi.compute_imbalance",
           sum_compute > 0 ? max_compute / (sum_compute / ranks) : 1.0);
  rec.close(root);

  const bool same_partition =
      perfbench::partition_bytes(
          perfbench::ordered_cluster_sets(par.clusters)) ==
      perfbench::partition_bytes(sets);
  if (!rec.write_chrome_trace(out + ".trace.json"))
    throw std::runtime_error("cannot write " + out + ".trace.json");
  m.num("traced_serial_s", traced_serial_s);
  m.boolean("p4_same_partition", same_partition);
  m.boolean("ok", same_partition).print();
  return same_partition ? 0 : kExitCheck;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const std::string workload = flags.get_string("workload", "");
  const std::uint64_t seed = flags.get_u64("seed", 0);
  const std::uint64_t dataset = flags.get_u64("dataset", 0);
  const std::string dir = flags.get_string("dir", "");
  const int ranks = static_cast<int>(flags.get_i64("ranks", 0));
  const int loads = static_cast<int>(flags.get_i64("loads", 1));
  const std::string out = flags.get_string("out", "");
  const bool quality = flags.get_bool("quality", false);
  flags.finish();
  const auto& pos = flags.positional();
  if (pos.size() != 1 || workload.empty() || dir.empty()) {
    std::fprintf(stderr,
                 "usage: perfbench_op prepare|setup|op|trace --workload W "
                 "--seed S [--dataset J] --dir D [--loads K] [--ranks R "
                 "--out PREFIX [--quality]]\n");
    return 2;
  }
  try {
    const perfbench::Workload w =
        perfbench::make_workload(workload, seed, dataset);
    const perfbench::InputFiles files = perfbench::input_files(w, dir);
    if (pos[0] == "prepare") return cmd_prepare(w, files, dir);
    if (pos[0] == "setup") return cmd_setup(w, files, loads);
    if (pos[0] == "op")
      return cmd_op(w, files, ranks, out, quality);
    if (pos[0] == "trace") return cmd_trace(w, files, out);
  } catch (const std::exception& e) {
    JsonLine().boolean("ok", false).str("error", e.what()).print();
    return kExitThrew;
  }
  std::fprintf(stderr, "unknown command: %s\n", pos[0].c_str());
  return 2;
}
