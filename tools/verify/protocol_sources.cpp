// P5 source conformance: the declarative clustering protocol in
// core/cluster_protocol.hpp checked against itself at compile time and
// against the sources that implement it at run time (see model.hpp).
#include <cstddef>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/cluster_protocol.hpp"
#include "model.hpp"

namespace pgasm::verify {

namespace {

using core::kAllMasterStates;
using core::kAllMsgKinds;
using core::kAllWorkerStates;
using core::kMasterRecvs;
using core::kMasterTransitions;
using core::kProtocol;
using core::kWorkerRecvs;
using core::kWorkerTransitions;
using core::MasterState;
using core::MsgKind;
using core::WorkerState;

// --- Compile-time layer: breaking a table fails the tier-1 build ----------

constexpr bool str_eq(const char* a, const char* b) {
  for (; *a != '\0' && *a == *b; ++a, ++b) {
  }
  return *a == *b;
}

/// One kProtocol row per kind, with its name and every cell filled in.
constexpr bool specs_complete() {
  for (MsgKind kind : kAllMsgKinds) {
    int rows = 0;
    for (const auto& spec : kProtocol) rows += spec.kind == kind ? 1 : 0;
    if (rows != 1) return false;
  }
  for (const auto& spec : kProtocol) {
    if (!str_eq(spec.name, core::msg_kind_name(spec.kind))) return false;
    for (const char* cell : {spec.direction, spec.encoder, spec.decoder,
                             spec.handler, spec.on_drop, spec.on_duplicate}) {
      if (*cell == '\0') return false;
    }
  }
  return std::size(kProtocol) == std::size(kAllMsgKinds);
}

constexpr bool tags_distinct_and_roundtrip() {
  for (MsgKind a : kAllMsgKinds) {
    for (MsgKind b : kAllMsgKinds) {
      if (a != b && core::to_tag(a) == core::to_tag(b)) return false;
    }
    const auto back = core::msg_kind_of(core::to_tag(a));
    if (!back.has_value() || *back != a) return false;
  }
  return true;
}

/// Each side's receive rows name only kinds that kProtocol sends its way.
constexpr bool recvs_match_direction() {
  for (const auto& r : kWorkerRecvs) {
    if (!str_eq(core::find_spec(r.kind)->direction, "master->worker")) {
      return false;
    }
  }
  for (const auto& r : kMasterRecvs) {
    if (!str_eq(core::find_spec(r.kind)->direction, "worker->master")) {
      return false;
    }
  }
  return true;
}

/// Fixed points over a state machine's edges: `terminal` is reachable from
/// every state (none can wedge or loop forever) and every state from
/// `start` (none is dead). `terminal` has no outgoing edge, and every edge
/// documents its condition.
template <typename S, std::size_t N, typename E, std::size_t M>
constexpr bool machine_well_formed(const S (&states)[N], const E (&edges)[M],
                                   S start, S terminal) {
  const auto index = [&](S s) {
    std::size_t i = 0;
    while (states[i] != s) ++i;
    return i;
  };
  bool reaches_terminal[N] = {};
  bool reached_from_start[N] = {};
  reaches_terminal[index(terminal)] = true;
  reached_from_start[index(start)] = true;
  for (std::size_t pass = 0; pass < N; ++pass) {
    for (const E& e : edges) {
      if (reaches_terminal[index(e.to)]) reaches_terminal[index(e.from)] = true;
      if (reached_from_start[index(e.from)]) {
        reached_from_start[index(e.to)] = true;
      }
    }
  }
  for (const E& e : edges) {
    if (e.from == terminal || *e.on == '\0') return false;
  }
  for (std::size_t i = 0; i < N; ++i) {
    if (!reaches_terminal[i] || !reached_from_start[i]) return false;
  }
  return true;
}

static_assert(specs_complete(),
              "every MsgKind needs exactly one kProtocol row, named as "
              "msg_kind_name() names it, with no empty cell");
static_assert(tags_distinct_and_roundtrip(),
              "MsgKind tag values must be distinct and msg_kind_of-invertible");
static_assert(recvs_match_direction(),
              "kWorkerRecvs/kMasterRecvs rows must follow kProtocol's "
              "directions");
static_assert(machine_well_formed(kAllMasterStates, kMasterTransitions,
                                  MasterState::kProbe, MasterState::kTerminate),
              "kTerminate must be reachable from every MasterState and every "
              "MasterState from kProbe");
static_assert(machine_well_formed(kAllWorkerStates, kWorkerTransitions,
                                  WorkerState::kGenerate,
                                  WorkerState::kShutdown),
              "kShutdown must be reachable from every WorkerState and every "
              "WorkerState from kGenerate");

// --- Run-time layer: the tables against the implementation sources --------

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// "await_reply" -> "AwaitReply": the enumerator spelling the markers use.
std::string camelize(const char* snake) {
  std::string out;
  bool up = true;
  for (const char* p = snake; *p != '\0'; ++p) {
    if (*p == '_') {
      up = true;
      continue;
    }
    out += up ? static_cast<char>(*p - 'a' + 'A') : *p;
    up = false;
  }
  return out;
}

}  // namespace

std::vector<std::string> check_protocol_sources(const std::string& root) {
  std::vector<std::string> findings;
  std::string haystack;
  for (const char* rel :
       {"/src/core/wire.hpp", "/src/core/cluster_protocol.hpp",
        "/src/core/cluster_protocol.cpp", "/src/vmpi/runtime.hpp"}) {
    haystack += slurp(root + rel);
  }
  const auto present = [&](const std::string& cell, const char* ident) {
    // Strip a class qualifier: ReplyChannel::send -> send is declared.
    std::string name = ident;
    if (const auto pos = name.rfind("::"); pos != std::string::npos) {
      name = name.substr(pos + 2);
    }
    if (haystack.find(name) == std::string::npos) {
      findings.push_back(cell + " names '" + ident +
                         "' but no such identifier exists in the protocol "
                         "sources");
    }
  };
  for (const auto& spec : kProtocol) {
    const std::string row = std::string("kProtocol[") + spec.name + "].";
    present(row + "encoder", spec.encoder);
    present(row + "decoder", spec.decoder);
    present(row + "handler", spec.handler);
  }
  for (const auto& r : kWorkerRecvs) {
    present(std::string("kWorkerRecvs[") + core::worker_state_name(r.state) +
                "].handler",
            r.handler);
  }
  for (const auto& r : kMasterRecvs) {
    present(std::string("kMasterRecvs[") + core::master_state_name(r.state) +
                "].handler",
            r.handler);
  }

  const std::string impl = slurp(root + "/src/core/parallel_cluster.cpp");
  const auto marker = [&](const char* machine, const char* state) {
    const std::string m =
        std::string("[") + machine + "::k" + camelize(state) + "]";
    if (impl.find(m) == std::string::npos) {
      findings.push_back("parallel_cluster.cpp has no '" + m +
                         "' marker: the implementation no longer maps onto "
                         "the declared state machine");
    }
  };
  for (MasterState s : kAllMasterStates) {
    marker("MasterState", core::master_state_name(s));
  }
  for (WorkerState s : kAllWorkerStates) {
    marker("WorkerState", core::worker_state_name(s));
  }
  return findings;
}

}  // namespace pgasm::verify
