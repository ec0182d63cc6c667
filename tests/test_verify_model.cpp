// ctest -L verify: the protocol model checker must prove P1-P4 on the real
// declarative tables for N in {1,2,3} workers, and must produce a
// counterexample trace for every seeded bug in the fixture table.
#include <gtest/gtest.h>

#include <string>

#include "model.hpp"

namespace pgasm::verify {
namespace {

ModelConfig clean_config(int workers) {
  ModelConfig c;
  c.workers = workers;
  c.drops = 2;
  c.crashes = 1;
  return c;
}

TEST(VerifyModel, CleanProtocolIsExhaustivelyVerified) {
  for (const int n : {1, 2, 3}) {
    SCOPED_TRACE("workers=" + std::to_string(n));
    const ModelResult r = run_model(clean_config(n));
    EXPECT_TRUE(r.ok) << r.property << ": " << r.message;
    EXPECT_TRUE(r.exhausted);
    EXPECT_GT(r.states, 0u);
    EXPECT_GT(r.edges, 0u);
    EXPECT_GT(r.finals, 0u) << "no normal completion state is reachable";
    EXPECT_TRUE(r.property.empty()) << r.message;
    EXPECT_TRUE(r.trace.empty());
  }
}

TEST(VerifyModel, StateSpaceGrowsWithWorkers) {
  const ModelResult r1 = run_model(clean_config(1));
  const ModelResult r2 = run_model(clean_config(2));
  const ModelResult r3 = run_model(clean_config(3));
  EXPECT_LT(r1.states, r2.states);
  EXPECT_LT(r2.states, r3.states);
}

TEST(VerifyModel, CrashWithWorkRemainingReachesAbortFinal) {
  // With a crash budget the all-workers-lost abort is a real outcome: the
  // model must reach at least one abort-final (the master's TimeoutError),
  // and without crashes it must reach none.
  ModelConfig with = clean_config(1);
  const ModelResult r = run_model(with);
  EXPECT_GT(r.abort_finals, 0u);
  // Without crashes no worker can ever be written off: only a crashed rank
  // is reaped, so message loss alone never reaches the abort.
  ModelConfig without = clean_config(2);
  without.crashes = 0;
  without.drops = 0;
  const ModelResult r2 = run_model(without);
  EXPECT_EQ(r2.abort_finals, 0u);
  EXPECT_TRUE(r2.ok) << r2.property << ": " << r2.message;
  without.drops = 2;
  const ModelResult r3 = run_model(without);
  EXPECT_EQ(r3.abort_finals, 0u);
  EXPECT_TRUE(r3.ok) << r3.property << ": " << r3.message;
}

TEST(VerifyModel, EverySeededBugIsCaughtByItsExpectedProperty) {
  const auto fixtures = model_bug_fixtures();
  ASSERT_EQ(fixtures.size(), 6u);
  for (const ModelBugFixture& fx : fixtures) {
    SCOPED_TRACE(model_bug_name(fx.bug));
    const ModelResult r = run_model(fx.config);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.property, fx.expected_property) << r.message;
    EXPECT_FALSE(r.message.empty());
    EXPECT_FALSE(r.trace.empty())
        << "a violation must come with a counterexample schedule";
  }
}

TEST(VerifyModel, SeededBugsCoverAllViolationKinds) {
  // The fixture table must exercise deadlock (P1), livelock (P2),
  // conformance (P3) and loss tolerance (P4) so every property checker is
  // proven live.
  bool p1 = false, p2 = false, p3 = false, p4 = false;
  for (const ModelBugFixture& fx : model_bug_fixtures()) {
    const std::string p = fx.expected_property;
    p1 = p1 || p == "P1";
    p2 = p2 || p == "P2";
    p3 = p3 || p == "P3";
    p4 = p4 || p == "P4";
  }
  EXPECT_TRUE(p1);
  EXPECT_TRUE(p2);
  EXPECT_TRUE(p3);
  EXPECT_TRUE(p4);
}

TEST(VerifyModel, BugNamesRoundTrip) {
  for (const ModelBugFixture& fx : model_bug_fixtures()) {
    ModelBug parsed = ModelBug::kNone;
    ASSERT_TRUE(parse_model_bug(model_bug_name(fx.bug), &parsed));
    EXPECT_EQ(parsed, fx.bug);
  }
  ModelBug parsed = ModelBug::kNone;
  EXPECT_FALSE(parse_model_bug("not-a-bug", &parsed));
}

TEST(VerifyModel, MaxStatesGuardStopsExploration) {
  ModelConfig c = clean_config(3);
  c.max_states = 100;
  const ModelResult r = run_model(c);
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.exhausted);
  EXPECT_TRUE(r.property.empty()) << "a guard stop is not a violation";
}

}  // namespace
}  // namespace pgasm::verify
