// protocol_check: static exhaustiveness verifier for the declarative
// message protocols (tools layer of the static concurrency verification
// stack; see DESIGN.md sections 11 and 15).
//
// The master-worker clustering protocol is declared as data — MsgKind,
// kProtocol, MasterState/kMasterTransitions, WorkerState/kWorkerTransitions,
// and the receive-capability tables kMasterRecvs/kWorkerRecvs, all in
// core/cluster_protocol.hpp — and verified here without running a single
// message exchange.
//
// The checks:
//
//   1. Table completeness: every kind has exactly one row, and every row
//      names an encoder, a decoder, a handler, a drop recovery path, and a
//      duplicate defence (empty cells fail).
//   2. Implementation cross-check: every named codec/handler identifier
//      actually exists in the implementation sources; every MasterState
//      and WorkerState has its [State::k*] marker in parallel_cluster.cpp.
//   3. State-machine reachability: the terminal state (kTerminate for the
//      master, kShutdown for the worker) is reachable from EVERY state (no
//      livelock by construction), every non-terminal state has an outgoing
//      edge, the terminal has none, and every state is entered by some
//      edge (or is the start state).
//   4. Receive-capability sanity: every message kind a side can receive
//      appears in that side's recv table, and every recv handler exists.
//
// The cheap structural invariants (row-per-kind, name agreement, distinct
// tags, terminal reachability) are also
// static_asserts: breaking them fails this tool's *compilation*, which the
// tier-1 build runs before ctest ever gets to execute it.
//
// Deeper temporal properties (deadlock freedom of the COMPOSED machines
// under loss, reordering, and crashes) are out of scope here — that is
// tools/verify/pgasm-model's job.
//
// Exit codes follow pgasm-lint: 0 clean, 1 findings, 2 tool error.

#include <algorithm>
#include <cstddef>
#include <fstream>
#include <iostream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "core/cluster_protocol.hpp"

namespace {

using pgasm::core::MasterState;
using pgasm::core::MsgKind;
using pgasm::core::WorkerState;
using pgasm::core::kAllMasterStates;
using pgasm::core::kAllMsgKinds;
using pgasm::core::kAllWorkerStates;
using pgasm::core::kMasterRecvs;
using pgasm::core::kMasterTransitions;
using pgasm::core::kProtocol;
using pgasm::core::kWorkerRecvs;
using pgasm::core::kWorkerTransitions;
using pgasm::core::master_state_name;
using pgasm::core::msg_kind_name;
using pgasm::core::msg_kind_of;
using pgasm::core::worker_state_name;

constexpr std::size_t kNumKinds = std::size(kAllMsgKinds);
constexpr std::size_t kNumStates = std::size(kAllMasterStates);
constexpr std::size_t kNumWorkerStates = std::size(kAllWorkerStates);

constexpr bool str_eq(const char* a, const char* b) {
  for (; *a != '\0' && *a == *b; ++a, ++b) {
  }
  return *a == *b;
}

// --- Compile-time layer: clustering message table ---------------------------

constexpr bool kinds_have_unique_specs() {
  for (MsgKind kind : kAllMsgKinds) {
    int rows = 0;
    for (const auto& spec : kProtocol) {
      if (spec.kind == kind) ++rows;
    }
    if (rows != 1) return false;
  }
  return std::size(kProtocol) == kNumKinds;
}

constexpr bool spec_names_match() {
  for (const auto& spec : kProtocol) {
    if (!str_eq(spec.name, msg_kind_name(spec.kind))) return false;
  }
  return true;
}

constexpr bool tags_distinct_and_roundtrip() {
  for (MsgKind a : kAllMsgKinds) {
    for (MsgKind b : kAllMsgKinds) {
      if (a != b && pgasm::core::to_tag(a) == pgasm::core::to_tag(b)) {
        return false;
      }
    }
    const auto back = msg_kind_of(pgasm::core::to_tag(a));
    if (!back.has_value() || *back != a) return false;
  }
  return true;
}

// --- Compile-time layer: state machines -------------------------------------

constexpr std::size_t state_index(MasterState s) {
  for (std::size_t i = 0; i < kNumStates; ++i) {
    if (kAllMasterStates[i] == s) return i;
  }
  return kNumStates;  // unreachable for declared states
}

constexpr std::size_t worker_state_index(WorkerState s) {
  for (std::size_t i = 0; i < kNumWorkerStates; ++i) {
    if (kAllWorkerStates[i] == s) return i;
  }
  return kNumWorkerStates;  // unreachable for declared states
}

/// Fixed-point reachability of kTerminate from every master state, walking
/// kMasterTransitions forward. Runs at compile time.
constexpr bool terminate_reachable_from_all() {
  constexpr MasterState target = MasterState::kTerminate;
  bool reaches[kNumStates] = {};
  reaches[state_index(target)] = true;
  for (std::size_t pass = 0; pass < kNumStates; ++pass) {
    for (const auto& t : kMasterTransitions) {
      if (reaches[state_index(t.to)]) reaches[state_index(t.from)] = true;
    }
  }
  for (bool r : reaches) {
    if (!r) return false;
  }
  return true;
}

/// Same fixed point for the worker machine: kShutdown from every state.
constexpr bool shutdown_reachable_from_all() {
  constexpr WorkerState target = WorkerState::kShutdown;
  bool reaches[kNumWorkerStates] = {};
  reaches[worker_state_index(target)] = true;
  for (std::size_t pass = 0; pass < kNumWorkerStates; ++pass) {
    for (const auto& t : kWorkerTransitions) {
      if (reaches[worker_state_index(t.to)]) {
        reaches[worker_state_index(t.from)] = true;
      }
    }
  }
  for (bool r : reaches) {
    if (!r) return false;
  }
  return true;
}

static_assert(kinds_have_unique_specs(),
              "every MsgKind needs exactly one kProtocol row");
static_assert(spec_names_match(),
              "kProtocol row names must agree with msg_kind_name()");
static_assert(tags_distinct_and_roundtrip(),
              "MsgKind tag values must be distinct and msg_kind_of-invertible");
static_assert(terminate_reachable_from_all(),
              "kTerminate must be reachable from every MasterState");
static_assert(shutdown_reachable_from_all(),
              "kShutdown must be reachable from every WorkerState");

// --- Runtime layer (richer diagnostics than a static_assert can print) ------

int g_findings = 0;

void fail(const std::string& what) {
  std::cerr << "protocol_check: FAIL: " << what << '\n';
  ++g_findings;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::cerr << "protocol_check: cannot read " << path << '\n';
    std::exit(2);
  }
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// "await_reply" -> "AwaitReply": recover the enumerator spelling from the
/// stable snake_case state name (markers use the enumerator spelling).
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

void check_table_completeness() {
  for (const auto& spec : kProtocol) {
    const auto cell = [&](const char* field, const char* value) {
      if (value == nullptr || *value == '\0') {
        fail(std::string("kProtocol[") + spec.name + "]." + field +
             " is empty — every message kind must declare it");
      }
    };
    cell("direction", spec.direction);
    cell("encoder", spec.encoder);
    cell("decoder", spec.decoder);
    cell("handler", spec.handler);
    cell("on_drop", spec.on_drop);
    cell("on_duplicate", spec.on_duplicate);
  }
}

void check_identifiers_exist(const std::string& src_root) {
  // The searchable implementation surface for codec and handler names.
  const std::string haystack =
      slurp(src_root + "/src/core/wire.hpp") +
      slurp(src_root + "/src/core/cluster_protocol.hpp") +
      slurp(src_root + "/src/core/cluster_protocol.cpp") +
      slurp(src_root + "/src/vmpi/runtime.hpp");
  const auto present = [&](const std::string& table, const char* row,
                           const char* field, const char* ident,
                           const std::string& hay) {
    if (ident == nullptr || *ident == '\0') return;  // reported above
    // Strip a class qualifier: ReplyChannel::send -> send is declared.
    std::string name = ident;
    if (const auto pos = name.rfind("::"); pos != std::string::npos) {
      name = name.substr(pos + 2);
    }
    if (hay.find(name) == std::string::npos) {
      fail(table + "[" + row + "]." + field + " names '" + ident +
           "' but no such identifier exists in the protocol sources");
    }
  };
  for (const auto& spec : kProtocol) {
    present("kProtocol", spec.name, "encoder", spec.encoder, haystack);
    present("kProtocol", spec.name, "decoder", spec.decoder, haystack);
    present("kProtocol", spec.name, "handler", spec.handler, haystack);
  }
  // Receive-capability handlers must exist in the clustering sources.
  for (const auto& r : kWorkerRecvs) {
    present("kWorkerRecvs", worker_state_name(r.state), "handler", r.handler,
            haystack);
  }
  for (const auto& r : kMasterRecvs) {
    present("kMasterRecvs", master_state_name(r.state), "handler", r.handler,
            haystack);
  }
}

void check_state_markers(const std::string& src_root) {
  const std::string impl = slurp(src_root + "/src/core/parallel_cluster.cpp");
  for (MasterState s : kAllMasterStates) {
    const std::string marker =
        "[MasterState::k" + camelize(master_state_name(s)) + "]";
    if (impl.find(marker) == std::string::npos) {
      fail("master_loop has no '" + marker +
           "' marker — the implementation no longer maps onto the declared "
           "state machine (update kMasterTransitions or the markers)");
    }
  }
  for (WorkerState s : kAllWorkerStates) {
    const std::string marker =
        "[WorkerState::k" + camelize(worker_state_name(s)) + "]";
    if (impl.find(marker) == std::string::npos) {
      fail("worker_loop has no '" + marker +
           "' marker — the implementation no longer maps onto the declared "
           "state machine (update kWorkerTransitions or the markers)");
    }
  }
}

void check_state_machine() {
  // Terminal state emits nothing; every other state emits something.
  for (MasterState s : kAllMasterStates) {
    std::size_t out = 0;
    for (const auto& t : kMasterTransitions) {
      if (t.from == s) ++out;
    }
    if (s == MasterState::kTerminate) {
      if (out != 0) {
        fail("kTerminate has outgoing transitions — it must be terminal");
      }
    } else if (out == 0) {
      fail(std::string("state '") + master_state_name(s) +
           "' has no outgoing transition — the master would wedge there");
    }
  }
  // Every state is entered by some edge, or is the start state (kProbe).
  for (MasterState s : kAllMasterStates) {
    if (s == MasterState::kProbe) continue;
    const bool entered =
        std::any_of(std::begin(kMasterTransitions), std::end(kMasterTransitions),
                    [&](const auto& t) { return t.to == s; });
    if (!entered) {
      fail(std::string("state '") + master_state_name(s) +
           "' is never entered — dead state or missing transition");
    }
  }
  // Every transition condition is documented.
  for (const auto& t : kMasterTransitions) {
    if (t.on == nullptr || *t.on == '\0') {
      fail(std::string("transition ") + master_state_name(t.from) + " -> " +
           master_state_name(t.to) + " has no condition documented");
    }
  }
}

void check_worker_state_machine() {
  for (WorkerState s : kAllWorkerStates) {
    std::size_t out = 0;
    for (const auto& t : kWorkerTransitions) {
      if (t.from == s) ++out;
    }
    if (s == WorkerState::kShutdown) {
      if (out != 0) {
        fail("kShutdown has outgoing transitions — it must be terminal");
      }
    } else if (out == 0) {
      fail(std::string("worker state '") + worker_state_name(s) +
           "' has no outgoing transition — the worker would wedge there");
    }
  }
  // Every state is entered by some edge, or is the start state (kGenerate).
  for (WorkerState s : kAllWorkerStates) {
    if (s == WorkerState::kGenerate) continue;
    const bool entered =
        std::any_of(std::begin(kWorkerTransitions), std::end(kWorkerTransitions),
                    [&](const auto& t) { return t.to == s; });
    if (!entered) {
      fail(std::string("worker state '") + worker_state_name(s) +
           "' is never entered — dead state or missing transition");
    }
  }
  for (const auto& t : kWorkerTransitions) {
    if (t.on == nullptr || *t.on == '\0') {
      fail(std::string("worker transition ") + worker_state_name(t.from) +
           " -> " + worker_state_name(t.to) + " has no condition documented");
    }
  }
}

void check_recv_tables() {
  // Directionality: the worker only ever receives master->worker kinds, the
  // master only worker->master kinds (per the kProtocol direction cells).
  for (const auto& r : kWorkerRecvs) {
    const auto* spec = pgasm::core::find_spec(r.kind);
    if (spec != nullptr && std::string(spec->direction) != "master->worker") {
      fail(std::string("kWorkerRecvs declares the worker receiving '") +
           spec->name + "', but kProtocol says its direction is " +
           spec->direction);
    }
  }
  for (const auto& r : kMasterRecvs) {
    const auto* spec = pgasm::core::find_spec(r.kind);
    if (spec != nullptr && std::string(spec->direction) != "worker->master") {
      fail(std::string("kMasterRecvs declares the master receiving '") +
           spec->name + "', but kProtocol says its direction is " +
           spec->direction);
    }
  }
  // Coverage: every kind is receivable by its destination side somewhere.
  for (const auto& spec : kProtocol) {
    const bool to_worker = std::string(spec.direction) == "master->worker";
    bool covered = false;
    if (to_worker) {
      for (const auto& r : kWorkerRecvs) covered |= r.kind == spec.kind;
    } else {
      for (const auto& r : kMasterRecvs) covered |= r.kind == spec.kind;
    }
    if (!covered) {
      fail(std::string("message kind '") + spec.name +
           "' has no receive-capability row on its destination side — " +
           "nobody is declared to consume it");
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  // Source root: argv[1] if given, else the configure-time tree (the ctest
  // registration passes it explicitly so installed builds work too).
  std::string src_root;
  if (argc > 1) {
    src_root = argv[1];
  } else {
#ifdef PGASM_SOURCE_ROOT
    src_root = PGASM_SOURCE_ROOT;
#else
    std::cerr << "protocol_check: no source root (pass it as argv[1])\n";
    return 2;
#endif
  }

  check_table_completeness();
  check_identifiers_exist(src_root);
  check_state_markers(src_root);
  check_state_machine();
  check_worker_state_machine();
  check_recv_tables();

  if (g_findings == 0) {
    std::cout << "protocol_check: OK — " << kNumKinds
              << " clustering message kinds, " << kNumStates
              << " master states, "
              << kNumWorkerStates << " worker states, "
              << std::size(kMasterTransitions) + std::size(kWorkerTransitions)
              << " transitions; terminal state reachable from every state\n";
    return 0;
  }
  std::cerr << "protocol_check: " << g_findings << " finding(s)\n";
  return 1;
}
