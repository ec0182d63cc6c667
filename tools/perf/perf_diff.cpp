// perf_diff: compare two performance artifacts and exit nonzero on
// regression. The perf half of the CI gate (scripts/ci.sh perf-smoke).
//
//   perf_diff [options] <old> <new>
//       <old>/<new> are either obs output directories (written via
//       --obs-out / PipelineParams::obs_dir; their attribution.json is
//       compared) or BENCH_*.json files (bench/bench_util.hpp BenchJson).
//   perf_diff --check-stitch <obs-dir-or-attribution.json>
//       assert the trace analyzer stitched 100% of sends, dropped no
//       events, and left under 1% of the critical path in "(untracked)"
//       steps (time no span covers); exits 1 otherwise.
//
// Options:
//   --rel <frac>            relative regression threshold (default 0.25:
//                           new must exceed old by >25% to count)
//   --floor-us <us>         absolute floor for obs-mode times (default
//                           20000us): changes smaller than this never fail
//   --floor <value>         absolute floor for bench-mode values (default
//                           0.05, i.e. 50ms for the *_s fields)
//   --scale-new <x>         multiply new-side values before comparing
//                           (exercises the gate: self-vs-self must fail
//                           once scaled)
//   --allow-meta-mismatch   compare BENCH files despite different
//                           build_type metadata
//
// Noise handling: bench points with identical configuration are collapsed
// to their per-field median before comparison. The configuration is the
// point fields the file names in its top-level "keys" array (the BenchJson
// constructor's keys; the new file's declaration wins, so an older baseline
// without one still compares); every other numeric field is a value. A
// regression needs to clear BOTH the relative threshold and the absolute
// floor. Fields are direction-classified by name: times
// (*_s, *_us, *_ms, *seconds*, *time*) and communication volumes
// (*bytes_sent) regress upward, rates (*per_s*, *throughput*, *cups*)
// regress downward, anything else (memory sizes included) is reported but
// never fails the gate.
//
// Exit codes: 0 ok, 1 regression / failed stitch check, 2 usage or IO.
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

namespace {

// --- minimal JSON ----------------------------------------------------------
// Self-contained recursive-descent parser for the subset our own emitters
// produce (objects, arrays, strings, numbers, bools, null). No external
// dependency, by design: this tool must build everywhere the repo builds.

struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool b = false;
  double num = 0;
  std::string str;
  std::vector<Json> arr;
  std::vector<std::pair<std::string, Json>> obj;  ///< insertion order kept

  const Json* find(const std::string& key) const {
    for (const auto& [k, v] : obj) {
      if (k == key) return &v;
    }
    return nullptr;
  }
  double number_or(double fallback) const {
    return type == Type::kNumber ? num : fallback;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  bool parse(Json* out, std::string* err) {
    skip_ws();
    if (!value(out)) {
      *err = "JSON parse error near offset " + std::to_string(i_);
      return false;
    }
    skip_ws();
    if (i_ != s_.size()) {
      *err = "trailing bytes after JSON value at offset " + std::to_string(i_);
      return false;
    }
    return true;
  }

 private:
  void skip_ws() {
    while (i_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[i_])) != 0) {
      ++i_;
    }
  }
  bool literal(const char* lit) {
    const std::size_t n = std::strlen(lit);
    if (s_.compare(i_, n, lit) != 0) return false;
    i_ += n;
    return true;
  }
  bool value(Json* out) {
    if (i_ >= s_.size()) return false;
    const char c = s_[i_];
    if (c == '{') return object(out);
    if (c == '[') return array(out);
    if (c == '"') {
      out->type = Json::Type::kString;
      return string(&out->str);
    }
    if (c == 't') {
      out->type = Json::Type::kBool;
      out->b = true;
      return literal("true");
    }
    if (c == 'f') {
      out->type = Json::Type::kBool;
      out->b = false;
      return literal("false");
    }
    if (c == 'n') {
      out->type = Json::Type::kNull;
      return literal("null");
    }
    return number(out);
  }
  bool string(std::string* out) {
    if (s_[i_] != '"') return false;
    ++i_;
    out->clear();
    while (i_ < s_.size()) {
      const char c = s_[i_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (i_ >= s_.size()) return false;
        const char e = s_[i_++];
        switch (e) {
          case '"': *out += '"'; break;
          case '\\': *out += '\\'; break;
          case '/': *out += '/'; break;
          case 'n': *out += '\n'; break;
          case 't': *out += '\t'; break;
          case 'r': *out += '\r'; break;
          case 'b': *out += '\b'; break;
          case 'f': *out += '\f'; break;
          case 'u': {
            if (i_ + 4 > s_.size()) return false;
            // Our emitters only produce \u00xx control escapes; decode the
            // low byte and drop the (always-zero) high byte.
            const std::string hex = s_.substr(i_, 4);
            i_ += 4;
            *out += static_cast<char>(std::strtol(hex.c_str(), nullptr, 16));
            break;
          }
          default:
            return false;
        }
      } else {
        *out += c;
      }
    }
    return false;
  }
  bool number(Json* out) {
    const std::size_t start = i_;
    if (i_ < s_.size() && (s_[i_] == '-' || s_[i_] == '+')) ++i_;
    while (i_ < s_.size()) {
      const char c = s_[i_];
      if (std::isdigit(static_cast<unsigned char>(c)) != 0 || c == '.' ||
          c == 'e' || c == 'E' || c == '-' || c == '+') {
        ++i_;
      } else {
        break;
      }
    }
    if (i_ == start) return false;
    out->type = Json::Type::kNumber;
    out->num = std::strtod(s_.c_str() + start, nullptr);
    return true;
  }
  bool array(Json* out) {
    out->type = Json::Type::kArray;
    ++i_;  // '['
    skip_ws();
    if (i_ < s_.size() && s_[i_] == ']') {
      ++i_;
      return true;
    }
    for (;;) {
      Json v;
      if (!value(&v)) return false;
      out->arr.push_back(std::move(v));
      skip_ws();
      if (i_ >= s_.size()) return false;
      if (s_[i_] == ',') {
        ++i_;
        skip_ws();
        continue;
      }
      if (s_[i_] == ']') {
        ++i_;
        return true;
      }
      return false;
    }
  }
  bool object(Json* out) {
    out->type = Json::Type::kObject;
    ++i_;  // '{'
    skip_ws();
    if (i_ < s_.size() && s_[i_] == '}') {
      ++i_;
      return true;
    }
    for (;;) {
      std::string key;
      if (i_ >= s_.size() || s_[i_] != '"' || !string(&key)) return false;
      skip_ws();
      if (i_ >= s_.size() || s_[i_] != ':') return false;
      ++i_;
      skip_ws();
      Json v;
      if (!value(&v)) return false;
      out->obj.emplace_back(std::move(key), std::move(v));
      skip_ws();
      if (i_ >= s_.size()) return false;
      if (s_[i_] == ',') {
        ++i_;
        skip_ws();
        continue;
      }
      if (s_[i_] == '}') {
        ++i_;
        return true;
      }
      return false;
    }
  }

  const std::string& s_;
  std::size_t i_ = 0;
};

bool load_json(const std::string& path, Json* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "perf_diff: cannot read %s\n", path.c_str());
    return false;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  std::string err;
  JsonParser parser(text);
  if (!parser.parse(out, &err)) {
    std::fprintf(stderr, "perf_diff: %s: %s\n", path.c_str(), err.c_str());
    return false;
  }
  return true;
}

// --- comparison ------------------------------------------------------------

struct Options {
  double rel = 0.25;
  double floor_us = 20'000;
  double floor_native = 0.05;
  double scale_new = 1.0;
  bool allow_meta_mismatch = false;
};

/// Which direction is "worse" for a metric, by field-name convention.
enum class Direction { kUpIsWorse, kDownIsWorse, kInformational };

bool ends_with(const std::string& s, const char* suffix) {
  const std::size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

Direction field_direction(const std::string& key) {
  if (ends_with(key, "_s") || ends_with(key, "_us") ||
      ends_with(key, "_ms") || key.find("seconds") != std::string::npos ||
      key.find("time") != std::string::npos ||
      ends_with(key, "bytes_sent")) {
    return Direction::kUpIsWorse;
  }
  if (key.find("per_s") != std::string::npos ||
      key.find("throughput") != std::string::npos ||
      key.find("cups") != std::string::npos) {
    return Direction::kDownIsWorse;
  }
  return Direction::kInformational;
}

int g_regressions = 0;

void check_value(const std::string& what, double oldv, double newv,
                 double rel, double abs_floor, Direction dir) {
  const double delta = newv - oldv;
  const bool worse = dir == Direction::kUpIsWorse
                         ? delta > 0
                         : (dir == Direction::kDownIsWorse ? delta < 0 : false);
  const double magnitude = delta < 0 ? -delta : delta;
  const double rel_change = oldv != 0 ? magnitude / (oldv < 0 ? -oldv : oldv)
                                      : (magnitude != 0 ? 1e9 : 0);
  if (worse && magnitude > abs_floor && rel_change > rel) {
    ++g_regressions;
    std::fprintf(stderr, "REGRESSION %s: %.6g -> %.6g (%+.1f%%)\n",
                 what.c_str(), oldv, newv, 100.0 * delta / oldv);
  } else if (magnitude > abs_floor && rel_change > rel) {
    std::fprintf(stderr, "note: %s changed %.6g -> %.6g (%+.1f%%)%s\n",
                 what.c_str(), oldv, newv, 100.0 * delta / (oldv != 0 ? oldv : 1),
                 dir == Direction::kInformational ? "" : " (improvement)");
  }
}

// --- obs-dir mode ----------------------------------------------------------

std::string attribution_path(const std::string& arg) {
  namespace fs = std::filesystem;
  if (fs::is_directory(arg)) return (fs::path(arg) / "attribution.json").string();
  return arg;
}

int check_stitch(const std::string& arg) {
  Json a;
  if (!load_json(attribution_path(arg), &a)) return 2;
  const Json* stitch = a.find("stitch");
  if (stitch == nullptr) {
    std::fprintf(stderr, "perf_diff: no \"stitch\" section in %s\n",
                 attribution_path(arg).c_str());
    return 2;
  }
  const double coverage =
      stitch->find("coverage") != nullptr
          ? stitch->find("coverage")->number_or(0)
          : 0;
  const double dropped =
      stitch->find("dropped_events") != nullptr
          ? stitch->find("dropped_events")->number_or(0)
          : 0;
  const double total = stitch->find("sends_total") != nullptr
                           ? stitch->find("sends_total")->number_or(0)
                           : 0;
  if (dropped != 0) {
    std::fprintf(stderr,
                 "stitch check FAILED: %g trace events dropped (ring "
                 "overflow) — raise --trace-cap\n",
                 dropped);
    return 1;
  }
  if (coverage < 0.999999) {
    std::fprintf(stderr,
                 "stitch check FAILED: coverage %.4f < 1.0 (%g sends)\n",
                 coverage, total);
    return 1;
  }
  // Critical-path time no span covers: at 1% or more, some phase's work
  // runs outside every span and the path's attribution stops explaining it.
  const Json* cp = a.find("critical_path");
  const Json* steps = cp != nullptr ? cp->find("steps") : nullptr;
  if (steps == nullptr || cp->find("total_us") == nullptr) {
    std::fprintf(stderr, "perf_diff: no \"critical_path\" steps in %s\n",
                 attribution_path(arg).c_str());
    return 2;
  }
  const double path_us = cp->find("total_us")->number_or(0);
  double untracked_us = 0;
  for (const Json& st : steps->arr) {
    const Json* name = st.find("name");
    const Json* start = st.find("start_us");
    const Json* end = st.find("end_us");
    if (name == nullptr || name->str != "(untracked)" || start == nullptr ||
        end == nullptr)
      continue;
    untracked_us += end->number_or(0) - start->number_or(0);
  }
  const double untracked = path_us > 0 ? untracked_us / path_us : 0;
  if (untracked >= 0.01) {
    std::fprintf(stderr,
                 "stitch check FAILED: (untracked) is %.2f%% of the %g us "
                 "critical path (limit 1%%)\n",
                 100.0 * untracked, path_us);
    return 1;
  }
  std::printf("stitch check OK: coverage %.4f over %g sends, 0 dropped, "
              "(untracked) %.2f%% of the critical path\n",
              coverage, total, 100.0 * untracked);
  return 0;
}

int diff_obs(const std::string& old_arg, const std::string& new_arg,
             const Options& opt) {
  Json oldj, newj;
  if (!load_json(attribution_path(old_arg), &oldj) ||
      !load_json(attribution_path(new_arg), &newj)) {
    return 2;
  }

  // Ledger wall time per (phase, rank) is the gating signal: it is what the
  // user actually waits for, and it is stable against attribution shuffles
  // between compute/wait buckets.
  std::map<std::pair<std::string, double>, double> old_wall;
  const Json* old_ledgers = oldj.find("ledgers");
  const Json* new_ledgers = newj.find("ledgers");
  if (old_ledgers == nullptr || new_ledgers == nullptr) {
    std::fprintf(stderr, "perf_diff: missing \"ledgers\" section\n");
    return 2;
  }
  for (const Json& l : old_ledgers->arr) {
    const Json* phase = l.find("phase");
    const Json* rank = l.find("rank");
    const Json* wall = l.find("wall_us");
    if (phase == nullptr || rank == nullptr || wall == nullptr) continue;
    old_wall[{phase->str, rank->num}] = wall->num;
  }
  for (const Json& l : new_ledgers->arr) {
    const Json* phase = l.find("phase");
    const Json* rank = l.find("rank");
    const Json* wall = l.find("wall_us");
    if (phase == nullptr || rank == nullptr || wall == nullptr) continue;
    const auto it = old_wall.find({phase->str, rank->num});
    if (it == old_wall.end()) continue;
    const std::string what = "wall_us[phase=" + phase->str + " rank=" +
                             std::to_string(static_cast<long>(rank->num)) +
                             "]";
    check_value(what, it->second, wall->num * opt.scale_new, opt.rel,
                opt.floor_us, Direction::kUpIsWorse);
  }

  const Json* old_cp = oldj.find("critical_path");
  const Json* new_cp = newj.find("critical_path");
  if (old_cp != nullptr && new_cp != nullptr &&
      old_cp->find("total_us") != nullptr &&
      new_cp->find("total_us") != nullptr) {
    check_value("critical_path.total_us",
                old_cp->find("total_us")->number_or(0),
                new_cp->find("total_us")->number_or(0) * opt.scale_new,
                opt.rel, opt.floor_us, Direction::kUpIsWorse);
  }
  return g_regressions != 0 ? 1 : 0;
}

// --- bench mode ------------------------------------------------------------

/// The configuration fields a bench file declares in its top-level "keys"
/// array; empty when it declares none.
std::vector<std::string> declared_keys(const Json& bench) {
  std::vector<std::string> keys;
  if (const Json* k = bench.find("keys")) {
    for (const Json& name : k->arr) keys.push_back(name.str);
  }
  return keys;
}

bool is_config_field(const std::string& key,
                     const std::vector<std::string>& keys) {
  return std::find(keys.begin(), keys.end(), key) != keys.end();
}

/// Configuration signature of a point: its configuration fields, in key
/// order. Points sharing a signature are repeats of the same configuration
/// and are collapsed to their per-field median (noise suppression).
std::string config_signature(const Json& point,
                             const std::vector<std::string>& keys) {
  std::string sig;
  for (const auto& [k, v] : point.obj) {
    if (!is_config_field(k, keys)) continue;
    sig += k;
    sig += '=';
    if (v.type == Json::Type::kString) {
      sig += v.str;
    } else if (v.type == Json::Type::kBool) {
      sig += v.b ? "true" : "false";
    } else {
      sig += std::to_string(static_cast<long long>(v.num));
    }
    sig += ';';
  }
  return sig;
}

/// Every numeric non-configuration field is a value.
std::map<std::string, std::map<std::string, std::vector<double>>>
collect_points(const Json& bench, const std::vector<std::string>& keys) {
  std::map<std::string, std::map<std::string, std::vector<double>>> out;
  const Json* points = bench.find("points");
  if (points == nullptr) return out;
  for (const Json& p : points->arr) {
    auto& group = out[config_signature(p, keys)];
    for (const auto& [k, v] : p.obj) {
      if (v.type == Json::Type::kNumber && !is_config_field(k, keys)) {
        group[k].push_back(v.num);
      }
    }
  }
  return out;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

int diff_bench(const std::string& old_path, const std::string& new_path,
               const Options& opt) {
  Json oldj, newj;
  if (!load_json(old_path, &oldj) || !load_json(new_path, &newj)) return 2;

  const Json* old_name = oldj.find("bench");
  const Json* new_name = newj.find("bench");
  if (old_name != nullptr && new_name != nullptr &&
      old_name->str != new_name->str) {
    std::fprintf(stderr, "perf_diff: different benches: %s vs %s\n",
                 old_name->str.c_str(), new_name->str.c_str());
    return 2;
  }
  const Json* old_meta = oldj.find("meta");
  const Json* new_meta = newj.find("meta");
  if (old_meta != nullptr && new_meta != nullptr) {
    const Json* ob = old_meta->find("build_type");
    const Json* nb = new_meta->find("build_type");
    if (ob != nullptr && nb != nullptr && ob->str != nb->str) {
      std::fprintf(stderr,
                   "perf_diff: build_type mismatch (%s vs %s) — numbers are "
                   "not comparable%s\n",
                   ob->str.c_str(), nb->str.c_str(),
                   opt.allow_meta_mismatch ? " (continuing: "
                                             "--allow-meta-mismatch)"
                                           : "; pass --allow-meta-mismatch "
                                             "to compare anyway");
      if (!opt.allow_meta_mismatch) return 2;
    }
    // Same for the vmpi transport: thread and proc runs are different
    // performance regimes, not noise around one mean.
    const Json* ot = old_meta->find("transport");
    const Json* nt = new_meta->find("transport");
    if (ot != nullptr && nt != nullptr && ot->str != nt->str) {
      std::fprintf(stderr,
                   "perf_diff: transport mismatch (%s vs %s) — numbers are "
                   "not comparable%s\n",
                   ot->str.c_str(), nt->str.c_str(),
                   opt.allow_meta_mismatch ? " (continuing: "
                                             "--allow-meta-mismatch)"
                                           : "; pass --allow-meta-mismatch "
                                             "to compare anyway");
      if (!opt.allow_meta_mismatch) return 2;
    }
    const Json* og = old_meta->find("git");
    const Json* ng = new_meta->find("git");
    if (og != nullptr && ng != nullptr && og->str != ng->str) {
      std::fprintf(stderr, "comparing %s -> %s\n",
                   og->str.empty() ? "(unknown)" : og->str.c_str(),
                   ng->str.empty() ? "(unknown)" : ng->str.c_str());
    }
  }

  std::vector<std::string> keys = declared_keys(newj);
  if (keys.empty()) keys = declared_keys(oldj);
  if (keys.empty()) {
    std::fprintf(stderr,
                 "perf_diff: neither file declares its configuration "
                 "\"keys\"\n");
    return 2;
  }
  const auto old_groups = collect_points(oldj, keys);
  const auto new_groups = collect_points(newj, keys);
  std::size_t compared = 0;
  for (const auto& [sig, new_fields] : new_groups) {
    const auto oit = old_groups.find(sig);
    if (oit == old_groups.end()) {
      std::fprintf(stderr, "note: configuration {%s} absent from baseline\n",
                   sig.c_str());
      continue;
    }
    for (const auto& [key, new_vals] : new_fields) {
      const auto fit = oit->second.find(key);
      if (fit == oit->second.end()) continue;
      ++compared;
      check_value(key + " {" + sig + "}", median(fit->second),
                  median(new_vals) * opt.scale_new, opt.rel, opt.floor_native,
                  field_direction(key));
    }
  }
  if (compared == 0) {
    std::fprintf(stderr, "perf_diff: no comparable points\n");
    return 2;
  }
  std::printf("compared %zu metric group(s): %d regression(s)\n", compared,
              g_regressions);
  return g_regressions != 0 ? 1 : 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: perf_diff [--rel F] [--floor-us US] [--floor V] "
               "[--scale-new X] [--allow-meta-mismatch] <old> <new>\n"
               "       perf_diff --check-stitch <obs-dir-or-attribution."
               "json>\n"
               "           (fails below 100%% stitch coverage, on dropped "
               "events, or at >= 1%% (untracked) critical path)\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::vector<std::string> positional;
  std::string stitch_arg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--rel") {
      const char* v = next();
      if (v == nullptr) return usage();
      opt.rel = std::strtod(v, nullptr);
    } else if (arg == "--floor-us") {
      const char* v = next();
      if (v == nullptr) return usage();
      opt.floor_us = std::strtod(v, nullptr);
    } else if (arg == "--floor") {
      const char* v = next();
      if (v == nullptr) return usage();
      opt.floor_native = std::strtod(v, nullptr);
    } else if (arg == "--scale-new") {
      const char* v = next();
      if (v == nullptr) return usage();
      opt.scale_new = std::strtod(v, nullptr);
    } else if (arg == "--allow-meta-mismatch") {
      opt.allow_meta_mismatch = true;
    } else if (arg == "--check-stitch") {
      const char* v = next();
      if (v == nullptr) return usage();
      stitch_arg = v;
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "perf_diff: unknown flag %s\n", arg.c_str());
      return usage();
    } else {
      positional.push_back(arg);
    }
  }

  if (!stitch_arg.empty()) {
    if (!positional.empty()) return usage();
    return check_stitch(stitch_arg);
  }
  if (positional.size() != 2) return usage();

  namespace fs = std::filesystem;
  const bool obs_mode =
      fs::is_directory(positional[0]) || fs::is_directory(positional[1]);
  const int rc = obs_mode ? diff_obs(positional[0], positional[1], opt)
                          : diff_bench(positional[0], positional[1], opt);
  if (rc == 0) std::printf("perf_diff OK\n");
  return rc;
}
