// pgasm-model: exhaustive explicit-state model checking of the clustering
// protocol (1 master x N workers x a bounded lossy channel), built directly
// on the declarative tables in core/cluster_protocol.hpp. DESIGN.md §15
// documents the abstraction; this header is the library API (the CLI in
// pgasm_model.cpp and tests/test_verify_model.cpp both link it).
//
// The model: each worker is the declared WorkerState machine collapsed to
// its five operational modes (generating, awaiting a reply, parked, exited,
// crashed); the master is modelled through its per-worker bookkeeping (view,
// cached reply) plus a work pool; the channel holds at most
// one in-flight instance of each message kind per worker pair (duplicate
// collapse — a retransmit merges with the copy already in flight, which
// soundly covers reordering across kinds and duplication within one), can
// drop up to `drops` messages, and up to `crashes` workers can die at any
// alive point. The master reaps a worker only after it crashed (liveness
// comes from the transport, never from silence). Every reachable state of
// the composed system is enumerated by BFS over a canonical packed-u64
// encoding (worker fields sorted: workers are symmetric, so permutations
// are collapsed).
//
// Properties proved on the real tables:
//   P1 deadlock freedom — every reachable non-final state has an enabled
//      action (a final is: master finished AND every worker exited or
//      crashed; an all-workers-lost final with work remaining models the
//      master's TimeoutError abort and counts as final).
//   P2 termination co-reachability — from every reachable state some final
//      state is reachable (no livelock: the run can always finish).
//   P3 declared-protocol conformance — every message consumption in the
//      explored space maps onto a row of kWorkerRecvs/kMasterRecvs, and
//      every worker mode change maps onto a declared kWorkerTransitions
//      path (transitive closure).
//   P4 loss tolerance — no reachable state strands a live worker with an
//      exhausted retransmission budget, an empty reply queue, and an
//      unfinished master (the state in which the real await_reply gives up
//      and fails its rank). With retransmits == drops this is
//      unreachable: message loss alone never kills a worker.
//   P5 source conformance — the tables are complete and well formed, and
//      the implementation still carries what they name
//      (check_protocol_sources below).
//
// On violation the checker prints a minimal counterexample: the BFS-parent
// message schedule from the initial state to the violating state.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace pgasm::verify {

/// Seeded protocol bugs for the fixture suite: each removes one recovery
/// mechanism the real protocol relies on, and the checker must find a
/// violation with a counterexample trace.
enum class ModelBug {
  kNone,
  kNoRetransmit,      ///< worker never retransmits (budget forced to 0)
  kNoCachedReply,     ///< duplicate reports are discarded, nothing re-sent
  kNoParkReply,       ///< the park decision is never sent (nor cached)
  kUndeclaredRecv,    ///< kWorkerRecvs loses its (kAwaitReply, kReply) row
  kNoFinalAbort,      ///< the all-workers-lost abort is not a final state
  kNoDrainReply,      ///< the shutdown drain never re-sends a lost terminate
};

const char* model_bug_name(ModelBug bug);

/// Parse a --bug= name; returns false for unknown names.
bool parse_model_bug(const std::string& name, ModelBug* out);

struct ModelConfig {
  int workers = 2;      ///< N, 1..3
  int drops = 1;        ///< K, channel drop budget, 0..3
  int crashes = 1;      ///< worker crash budget, 0..3
  int retransmits = -1; ///< per-batch retransmit budget R; -1 = drops
  ModelBug bug = ModelBug::kNone;
  std::uint64_t max_states = 30'000'000;  ///< explosion guard (tool error)
};

struct ModelResult {
  bool ok = false;          ///< all checked properties hold
  bool exhausted = false;   ///< the full state space was explored
  std::uint64_t states = 0;
  std::uint64_t edges = 0;
  std::uint64_t finals = 0;        ///< normal completion states
  std::uint64_t abort_finals = 0;  ///< all-lost abort states
  std::string property;     ///< violated property ("P1".."P4"), empty if ok
  std::string message;      ///< one-line statement of the violation
  std::vector<std::string> trace;  ///< schedule from init to the violation
};

/// Exhaustively explore the composed state space and check P1-P4.
/// Stops at the first violation (with its counterexample trace filled in).
ModelResult run_model(const ModelConfig& config);

/// One row of the seeded-bug fixture table: the bug, the config that
/// exposes it, and the property expected to catch it.
struct ModelBugFixture {
  ModelBug bug;
  ModelConfig config;
  const char* expected_property;
};

/// The fixture table driven by `pgasm-model --bug=...` and ctest.
std::vector<ModelBugFixture> model_bug_fixtures();

/// P5 source conformance (protocol_sources.cpp). Its static_asserts hold
/// the tables to one complete kProtocol row per kind with distinct tags,
/// receive rows that follow kProtocol's directions, and state machines
/// whose terminal is reachable from every state. At run time, every codec
/// and handler the tables name must exist in the protocol sources under
/// `root`, and core/parallel_cluster.cpp must carry a [MasterState::k*] or
/// [WorkerState::k*] marker for every declared state. Returns one message
/// per finding; throws std::runtime_error when a source cannot be read.
std::vector<std::string> check_protocol_sources(const std::string& root);

}  // namespace pgasm::verify
