// pgasm-model CLI: exhaustive protocol model checking (see model.hpp).
//
//   pgasm-model [--workers=N] [--drops=K] [--crashes=C] [--retransmits=R]
//               [--bug=NAME] [--list-bugs] [--format=text|json] [--root=DIR]
//
// --root is the source tree whose protocol sources P5 reads (default: the
// working directory).
//
// Exit codes follow pgasm-lint: 0 clean, 1 property violation, 2 tool error.
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "finding_json.hpp"
#include "model.hpp"

namespace {

using pgasm::verify::Finding;
using pgasm::verify::ModelBug;
using pgasm::verify::ModelConfig;
using pgasm::verify::ModelResult;

int usage(int code) {
  std::fprintf(
      code == 0 ? stdout : stderr,
      "usage: pgasm-model [--workers=N] [--drops=K] [--crashes=C]\n"
      "                   [--retransmits=R] [--bug=NAME] [--list-bugs]\n"
      "                   [--format=text|json] [--root=DIR]\n"
      "\n"
      "Exhaustively model-check the clustering protocol declared in\n"
      "src/core/cluster_protocol.hpp: 1 master x N workers x a bounded\n"
      "lossy channel (<=K drops, <=C crashes). Proves deadlock freedom\n"
      "(P1), termination co-reachability (P2), declared-protocol\n"
      "conformance (P3) and loss tolerance (P4), or prints a minimal\n"
      "counterexample schedule. P5 checks that the sources under --root\n"
      "(default .) still carry every codec, handler and state marker the\n"
      "tables name. --bug seeds a known protocol bug and the checker must\n"
      "catch it (exit 1).\n");
  return code;
}

const char* property_slug(const std::string& property) {
  if (property == "P1") return "deadlock";
  if (property == "P2") return "livelock";
  if (property == "P3") return "undeclared-protocol";
  if (property == "P4") return "stranded-worker";
  if (property == "P5") return "source-drift";
  return "violation";
}

void print_text(const ModelConfig& cfg, const ModelResult& r,
                const std::vector<std::string>& drift) {
  std::printf(
      "pgasm-model: workers=%d drops=%d crashes=%d retransmits=%d bug=%s\n",
      cfg.workers, cfg.drops, cfg.crashes,
      cfg.retransmits >= 0 ? cfg.retransmits : cfg.drops,
      pgasm::verify::model_bug_name(cfg.bug));
  std::printf(
      "pgasm-model: %llu reachable states, %llu edges, %llu finals "
      "(+%llu abort finals)%s\n",
      static_cast<unsigned long long>(r.states),
      static_cast<unsigned long long>(r.edges),
      static_cast<unsigned long long>(r.finals),
      static_cast<unsigned long long>(r.abort_finals),
      r.exhausted ? ", exhaustive" : "");
  for (const std::string& d : drift) {
    std::printf("pgasm-model: VIOLATION of P5: %s\n", d.c_str());
  }
  if (!r.ok) {
    std::printf("pgasm-model: VIOLATION of %s: %s\n", r.property.c_str(),
                r.message.c_str());
    std::printf("pgasm-model: counterexample schedule (%zu steps):\n",
                r.trace.size());
    for (std::size_t i = 0; i < r.trace.size(); ++i) {
      std::printf("  %2zu. %s\n", i + 1, r.trace[i].c_str());
    }
  } else if (drift.empty()) {
    std::printf(
        "pgasm-model: OK — P1 deadlock freedom, P2 termination "
        "co-reachability, P3 declared-protocol conformance, P4 loss "
        "tolerance, P5 source conformance all hold\n");
  }
}

void print_json(const std::string& root, const ModelResult& r,
                const std::vector<std::string>& drift) {
  std::vector<Finding> findings;
  for (const std::string& d : drift) {
    findings.push_back(Finding{.check = "PM5",
                               .slug = property_slug("P5"),
                               .path = "src/core/cluster_protocol.hpp",
                               .message = d});
  }
  if (!r.ok) {
    Finding f;
    f.check = "PM" + r.property.substr(1);
    f.slug = property_slug(r.property);
    f.path = "src/core/cluster_protocol.hpp";
    f.message = r.message;
    for (std::size_t i = 0; i < r.trace.size(); ++i) {
      f.message += "; step " + std::to_string(i + 1) + ": " + r.trace[i];
    }
    findings.push_back(std::move(f));
  }
  const std::vector<std::string> checks = {"PM1", "PM2", "PM3", "PM4",
                                           "PM5"};
  std::fputs(
      pgasm::verify::findings_json("PM", root, checks, findings).c_str(),
      stdout);
}

}  // namespace

int main(int argc, char** argv) {
  ModelConfig cfg;
  std::string format = "text";
  std::string root = ".";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto intval = [&](const char* prefix, int* out) {
      if (arg.rfind(prefix, 0) != 0) return false;
      *out = std::atoi(arg.c_str() + std::strlen(prefix));
      return true;
    };
    if (arg == "--help" || arg == "-h") return usage(0);
    if (arg == "--list-bugs") {
      for (const auto& fx : pgasm::verify::model_bug_fixtures()) {
        std::printf("%s\t(workers=%d drops=%d crashes=%d, expect %s)\n",
                    pgasm::verify::model_bug_name(fx.bug), fx.config.workers,
                    fx.config.drops, fx.config.crashes,
                    fx.expected_property);
      }
      return 0;
    }
    if (intval("--workers=", &cfg.workers) || intval("--drops=", &cfg.drops) ||
        intval("--crashes=", &cfg.crashes) ||
        intval("--retransmits=", &cfg.retransmits)) {
      continue;
    }
    if (arg.rfind("--bug=", 0) == 0) {
      if (!pgasm::verify::parse_model_bug(arg.substr(6), &cfg.bug)) {
        std::fprintf(stderr, "pgasm-model: unknown bug '%s'\n",
                     arg.c_str() + 6);
        return 2;
      }
      continue;
    }
    if (arg.rfind("--format=", 0) == 0) {
      format = arg.substr(9);
      if (format != "text" && format != "json") {
        std::fprintf(stderr, "pgasm-model: unknown format '%s'\n",
                     format.c_str());
        return 2;
      }
      continue;
    }
    if (arg.rfind("--root=", 0) == 0) {
      root = arg.substr(7);
      continue;
    }
    std::fprintf(stderr, "pgasm-model: unknown argument '%s'\n", arg.c_str());
    return usage(2);
  }
  if (cfg.workers < 1 || cfg.workers > 3) {
    std::fprintf(stderr, "pgasm-model: --workers must be 1..3\n");
    return 2;
  }

  std::vector<std::string> drift;
  try {
    drift = pgasm::verify::check_protocol_sources(root);
  } catch (const std::runtime_error& e) {
    std::fprintf(stderr, "pgasm-model: %s (set --root)\n", e.what());
    return 2;
  }
  const ModelResult r = pgasm::verify::run_model(cfg);
  if (!r.exhausted && r.property.empty()) {
    std::fprintf(stderr, "pgasm-model: %s\n",
                 r.message.empty() ? "exploration did not finish"
                                   : r.message.c_str());
    return 2;
  }
  if (format == "json") {
    print_json(root, r, drift);
  } else {
    print_text(cfg, r, drift);
  }
  return r.ok && drift.empty() ? 0 : 1;
}
