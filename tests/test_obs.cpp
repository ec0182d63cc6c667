// Tests for the obs layer: metrics registry (counters/gauges/histograms),
// per-rank event tracer (spans, instants, ring wraparound), and the
// dual-format export (JSONL + Chrome trace + summary table).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace pgasm {
namespace {

// ---------------------------------------------------------------- metrics --

TEST(Histogram, BucketPlacement) {
  using obs::Histogram;
  EXPECT_EQ(Histogram::bucket_of(0), 0);
  EXPECT_EQ(Histogram::bucket_of(1), 1);
  EXPECT_EQ(Histogram::bucket_of(2), 2);
  EXPECT_EQ(Histogram::bucket_of(3), 2);
  EXPECT_EQ(Histogram::bucket_of(4), 3);
  EXPECT_EQ(Histogram::bucket_of(7), 3);
  EXPECT_EQ(Histogram::bucket_of(8), 4);
  EXPECT_EQ(Histogram::bucket_of(~std::uint64_t{0}), 64);

  EXPECT_EQ(Histogram::bucket_upper(0), 0u);
  EXPECT_EQ(Histogram::bucket_upper(1), 1u);
  EXPECT_EQ(Histogram::bucket_upper(2), 3u);
  EXPECT_EQ(Histogram::bucket_upper(3), 7u);
  EXPECT_EQ(Histogram::bucket_upper(64), ~std::uint64_t{0});
  // Every value lands in the bucket whose range covers it.
  for (std::uint64_t v : {0ull, 1ull, 2ull, 100ull, 65536ull, 1ull << 40}) {
    const int b = Histogram::bucket_of(v);
    EXPECT_LE(v, Histogram::bucket_upper(b)) << v;
    if (b > 0) {
      EXPECT_GT(v, Histogram::bucket_upper(b - 1)) << v;
    }
  }
}

TEST(Histogram, ObserveAccumulates) {
  obs::Histogram h;
  h.observe(0);
  h.observe(5);
  h.observe(5);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 10u);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(obs::Histogram::bucket_of(5)), 2u);
}

TEST(Registry, FindOrCreateIdentity) {
  obs::Registry reg;
  auto& a = reg.counter("x", 0, "cluster");
  auto& b = reg.counter("x", 0, "cluster");
  EXPECT_EQ(&a, &b);
  // Any differing label is a different instrument.
  EXPECT_NE(&a, &reg.counter("x", 1, "cluster"));
  EXPECT_NE(&a, &reg.counter("x", 0, "assembly"));
  EXPECT_NE(&a, &reg.counter("y", 0, "cluster"));
  // Same key, different kind: independent namespaces.
  (void)reg.gauge("x", 0, "cluster");
  (void)reg.histogram("x", 0, "cluster");
  EXPECT_EQ(reg.size(), 6u);
}

TEST(Registry, GaugeSetAndAdd) {
  obs::Registry reg;
  auto& g = reg.gauge("g");
  g.set(1.5);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
  g.add(0.25);
  g.add(0.25);
  EXPECT_DOUBLE_EQ(g.value(), 2.0);
  g.set(-3.0);
  EXPECT_DOUBLE_EQ(g.value(), -3.0);
}

TEST(Registry, ConcurrentUpdates) {
  obs::Registry reg;
  constexpr int kThreads = 8;
  constexpr int kIters = 20'000;
  auto& c = reg.counter("shared.counter");
  auto& h = reg.histogram("shared.histogram");
  auto& g = reg.gauge("shared.gauge");
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        c.inc();
        h.observe(static_cast<std::uint64_t>(t * kIters + i));
        g.add(1.0);
      }
      // Lookups race against updates from other threads.
      (void)reg.counter("shared.counter");
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_DOUBLE_EQ(g.value(), static_cast<double>(kThreads) * kIters);
}

TEST(Registry, JsonlGolden) {
  obs::Registry reg;
  reg.counter("a.count", 2, "cluster").inc(3);
  reg.gauge("b.gauge").set(1.5);
  auto& h = reg.histogram("c.hist");
  h.observe(0);
  h.observe(5);
  h.observe(5);
  EXPECT_EQ(reg.to_jsonl(),
            "{\"type\":\"counter\",\"name\":\"a.count\",\"rank\":2,"
            "\"phase\":\"cluster\",\"value\":3}\n"
            "{\"type\":\"gauge\",\"name\":\"b.gauge\",\"rank\":-1,"
            "\"phase\":\"\",\"value\":1.5}\n"
            "{\"type\":\"histogram\",\"name\":\"c.hist\",\"rank\":-1,"
            "\"phase\":\"\",\"count\":3,\"sum\":10,\"buckets\":["
            "{\"le\":0,\"count\":1},{\"le\":7,\"count\":2}]}\n");
}

TEST(Registry, SnapshotDeterministicOrder) {
  obs::Registry reg;
  reg.counter("m", 3, "z");
  reg.counter("m", 1, "a");
  reg.counter("m", 2, "a");
  reg.counter("a", 0, "z");
  const auto samples = reg.snapshot();
  ASSERT_EQ(samples.size(), 4u);
  // (name, phase, rank) lexicographic.
  EXPECT_EQ(samples[0].key.name, "a");
  EXPECT_EQ(samples[1].key.rank, 1);
  EXPECT_EQ(samples[2].key.rank, 2);
  EXPECT_EQ(samples[3].key.phase, "z");
}

TEST(Registry, SummaryTableRenders) {
  obs::Registry reg;
  reg.counter("cluster.merges", 0, "cluster").inc(1234);
  const auto table = reg.summary_table();
  EXPECT_NE(table.find("cluster.merges"), std::string::npos);
  EXPECT_NE(table.find("cluster"), std::string::npos);
  EXPECT_NE(table.find("1,234"), std::string::npos);
}

TEST(Registry, PhaseLabelRoundTrip) {
  obs::set_phase("cluster");
  EXPECT_STREQ(obs::current_phase(), "cluster");
  obs::set_phase(nullptr);
  EXPECT_STREQ(obs::current_phase(), "");
}

// ----------------------------------------------------------------- tracer --

/// Global tracer state is shared across tests; reset it around each use.
class TracerTest : public testing::Test {
 protected:
  void SetUp() override {
    obs::tracer().set_enabled(false);
    obs::tracer().clear();
    obs::tracer().set_capacity(obs::Tracer::kDefaultCapacity);
  }
  void TearDown() override { SetUp(); }
};

TEST_F(TracerTest, DisabledRecordsNothing) {
  ASSERT_FALSE(obs::tracer().enabled());
  {
    obs::Span sp = obs::span(0, "noop", "test");
    sp.arg("x", 1);
  }
  obs::instant(0, "noop", "test");
  EXPECT_EQ(obs::tracer().total_events(), 0u);
}

TEST_F(TracerTest, RingSeqMonotonicAndDrainOrder) {
  obs::RankRing ring(16);
  for (int i = 0; i < 5; ++i) {
    obs::TraceEvent ev;
    ev.name = "e";
    ev.ts_us = static_cast<std::uint64_t>(i);
    EXPECT_EQ(ring.record(ev), static_cast<std::uint64_t>(i));
  }
  const auto events = ring.drain();
  ASSERT_EQ(events.size(), 5u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, i);
    EXPECT_EQ(events[i].ts_us, i);
  }
  EXPECT_EQ(ring.dropped(), 0u);
}

TEST_F(TracerTest, RingWraparoundKeepsNewest) {
  obs::RankRing ring(4);
  for (int i = 0; i < 10; ++i) {
    obs::TraceEvent ev;
    ev.ts_us = static_cast<std::uint64_t>(i);
    ring.record(ev);
  }
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.dropped(), 6u);
  const auto events = ring.drain();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-first drain of the 4 newest events, seq still monotonic.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].seq, 6 + i);
    EXPECT_EQ(events[i].ts_us, 6 + i);
  }
}

TEST_F(TracerTest, SpanNesting) {
  obs::tracer().set_enabled(true);
  {
    obs::Span outer = obs::span(0, "outer", "test");
    outer.arg("depth", 0);
    {
      obs::Span inner = obs::span(0, "inner", "test");
      inner.arg("depth", 1);
    }
  }
  const auto all = obs::tracer().drain_all();
  ASSERT_EQ(all.size(), 1u);
  const auto& events = all.at(0);
  ASSERT_EQ(events.size(), 2u);
  // Inner closes (and records) first; both are spans on rank 0.
  EXPECT_STREQ(events[0].name, "inner");
  EXPECT_STREQ(events[1].name, "outer");
  EXPECT_EQ(events[0].seq + 1, events[1].seq);
  // The outer span covers the inner one.
  EXPECT_LE(events[1].ts_us, events[0].ts_us);
  EXPECT_GE(events[1].ts_us + events[1].dur_us,
            events[0].ts_us + events[0].dur_us);
  EXPECT_EQ(events[0].arg0, 1u);
  EXPECT_EQ(events[1].arg0, 0u);
}

TEST_F(TracerTest, MoveTransfersOwnership) {
  obs::tracer().set_enabled(true);
  {
    obs::Span a = obs::span(0, "moved", "test");
    obs::Span b = std::move(a);
    // Only b records on destruction.
  }
  EXPECT_EQ(obs::tracer().total_events(), 1u);
}

TEST_F(TracerTest, InstantCarriesArgs) {
  obs::tracer().set_enabled(true);
  obs::instant(3, "evt", "test", "bytes", 4096, "peer", 1);
  const auto all = obs::tracer().drain_all();
  const auto& events = all.at(3);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, obs::TraceEvent::Kind::kInstant);
  EXPECT_EQ(events[0].rank, 3);
  EXPECT_EQ(events[0].arg0, 4096u);
  EXPECT_STREQ(events[0].arg1_name, "peer");
  EXPECT_EQ(events[0].arg1, 1u);
}

TEST_F(TracerTest, ConcurrentRecording) {
  obs::tracer().set_enabled(true);
  constexpr int kThreads = 8;
  constexpr int kIters = 2'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kIters; ++i) {
        // Half the events on a per-thread rank, half contending on rank 0.
        obs::instant(t % 2 == 0 ? t : 0, "evt", "test", "i",
                     static_cast<std::uint64_t>(i));
        obs::Span sp = obs::span(t, "span", "test");
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(obs::tracer().total_events() + obs::tracer().total_dropped(),
            static_cast<std::uint64_t>(kThreads) * kIters * 2);
  // Per-ring sequence numbers stay strictly monotonic in drain order.
  for (const auto& [rank, events] : obs::tracer().drain_all()) {
    for (std::size_t i = 1; i < events.size(); ++i) {
      EXPECT_LT(events[i - 1].seq, events[i].seq) << "rank " << rank;
    }
  }
}

TEST_F(TracerTest, ChromeJsonStructure) {
  obs::tracer().set_enabled(true);
  {
    obs::Span sp = obs::span(0, "work", "test");
    sp.arg("items", 7);
  }
  obs::instant(obs::kDriverTid, "marker", "test");
  const std::string json = obs::tracer().to_chrome_json();
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_EQ(json.substr(json.size() - 3), "]}\n");
  // Track metadata for both tids, with the driver named.
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"driver\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"rank 0\""), std::string::npos);
  // The span as a complete event with duration + cpu arg; the instant as i.
  EXPECT_NE(json.find("\"ph\":\"X\",\"name\":\"work\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":"), std::string::npos);
  EXPECT_NE(json.find("\"cpu_us\":"), std::string::npos);
  EXPECT_NE(json.find("\"items\":7"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\",\"name\":\"marker\""), std::string::npos);
  EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos);
}

// Control characters in a trace name are escaped like in every other obs
// JSON, not blanked: a newline reads back as \n, a tab as \t.
TEST_F(TracerTest, ChromeJsonEscapesControlCharacters) {
  obs::tracer().set_enabled(true);
  obs::instant(0, "two\nlines\tand\x01", "test");
  const std::string json = obs::tracer().to_chrome_json();
  EXPECT_NE(json.find("\"name\":\"two\\nlines\\tand\\u0001\""),
            std::string::npos)
      << json;
}

TEST_F(TracerTest, CapacityAppliesToNewRings) {
  obs::tracer().set_capacity(4);
  obs::tracer().set_enabled(true);
  for (int i = 0; i < 10; ++i) obs::instant(0, "evt", "test");
  EXPECT_EQ(obs::tracer().total_events(), 4u);
  EXPECT_EQ(obs::tracer().total_dropped(), 6u);
}

// ----------------------------------------------------------------- export --

TEST_F(TracerTest, WriteRunOutputs) {
  const std::string dir = testing::TempDir() + "pgasm_obs_export_test";
  std::filesystem::remove_all(dir);

  obs::begin_run();
  EXPECT_TRUE(obs::tracer().enabled());
  obs::set_phase("cluster");
  obs::registry().counter("test.counter", 0, obs::current_phase()).inc(42);
  {
    obs::Span sp = obs::span(0, "work", "test");
  }
  obs::set_phase("");
  obs::write_run_outputs(dir);
  obs::registry().clear();

  for (const char* name : {"summary.txt", "metrics.jsonl", "trace.json"}) {
    const auto path = std::filesystem::path(dir) / name;
    ASSERT_TRUE(std::filesystem::exists(path)) << name;
    EXPECT_GT(std::filesystem::file_size(path), 0u) << name;
  }
  // Each metrics line is one JSON object.
  std::ifstream jsonl(std::filesystem::path(dir) / "metrics.jsonl");
  std::string line;
  std::size_t lines = 0;
  while (std::getline(jsonl, line)) {
    ++lines;
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
  }
  EXPECT_GE(lines, 1u);
  std::ifstream trace(std::filesystem::path(dir) / "trace.json");
  std::stringstream buf;
  buf << trace.rdbuf();
  EXPECT_NE(buf.str().find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(buf.str().find("\"name\":\"work\""), std::string::npos);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace pgasm
