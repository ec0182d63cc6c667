// Tests for util: PRNG, union-find, radix sorts, stats.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <stdexcept>

#include "util/prng.hpp"
#include "util/radix_sort.hpp"
#include "util/stats.hpp"
#include "util/flags.hpp"
#include "util/log.hpp"
#include "util/union_find.hpp"

namespace pgasm {
namespace {

TEST(Prng, DeterministicForSeed) {
  util::Prng a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    const auto va = a();
    EXPECT_EQ(va, b());
    (void)c();
  }
  util::Prng a2(42), c2(43);
  bool any_diff = false;
  for (int i = 0; i < 100; ++i) any_diff |= (a2() != c2());
  EXPECT_TRUE(any_diff);
}

TEST(Prng, BelowRespectsBound) {
  util::Prng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(Prng, UniformInUnitInterval) {
  util::Prng rng(11);
  double sum = 0;
  for (int i = 0; i < 20000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 20000, 0.5, 0.02);
}

TEST(Prng, SplitStreamsDiffer) {
  util::Prng rng(5);
  auto s1 = rng.split();
  auto s2 = rng.split();
  bool diff = false;
  for (int i = 0; i < 32; ++i) diff |= (s1() != s2());
  EXPECT_TRUE(diff);
}

TEST(UnionFind, BasicMerges) {
  util::UnionFind uf(10);
  EXPECT_EQ(uf.num_sets(), 10u);
  EXPECT_TRUE(uf.unite(0, 1));
  EXPECT_TRUE(uf.unite(2, 3));
  EXPECT_FALSE(uf.unite(1, 0));
  EXPECT_EQ(uf.num_sets(), 8u);
  EXPECT_TRUE(uf.same(0, 1));
  EXPECT_FALSE(uf.same(0, 2));
  EXPECT_TRUE(uf.unite(1, 3));
  EXPECT_TRUE(uf.same(0, 2));
  EXPECT_EQ(uf.set_size(0), 4u);
}

TEST(UnionFind, SizesSumToN) {
  util::Prng rng(3);
  util::UnionFind uf(500);
  for (int i = 0; i < 400; ++i) {
    uf.unite(static_cast<std::uint32_t>(rng.below(500)),
             static_cast<std::uint32_t>(rng.below(500)));
  }
  const auto sets = uf.extract_sets();
  EXPECT_EQ(sets.size(), uf.num_sets());
  std::size_t total = 0;
  std::uint32_t max_size = 0;
  for (const auto& s : sets) {
    total += s.size();
    max_size = std::max(max_size, static_cast<std::uint32_t>(s.size()));
  }
  EXPECT_EQ(total, 500u);
  EXPECT_EQ(max_size, uf.max_set_size());
}

TEST(UnionFind, MergeOrderIrrelevant) {
  // Same edge set applied in two different orders gives the same labeling.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges = {
      {0, 1}, {2, 3}, {4, 5}, {1, 2}, {6, 7}, {8, 9}, {7, 8}};
  util::UnionFind a(10), b(10);
  for (const auto& [x, y] : edges) a.unite(x, y);
  for (auto it = edges.rbegin(); it != edges.rend(); ++it)
    b.unite(it->first, it->second);
  const auto la = a.labels();
  const auto lb = b.labels();
  // Compare partition structure (labels may differ, classes must match).
  std::map<std::uint32_t, std::uint32_t> remap;
  for (std::size_t i = 0; i < la.size(); ++i) {
    auto [it, fresh] = remap.insert({la[i], lb[i]});
    EXPECT_EQ(it->second, lb[i]);
  }
}

TEST(UnionFind, LabelsDense) {
  util::UnionFind uf(6);
  uf.unite(0, 5);
  uf.unite(1, 2);
  const auto labels = uf.labels();
  for (auto l : labels) EXPECT_LT(l, uf.num_sets());
  EXPECT_EQ(labels[0], labels[5]);
  EXPECT_EQ(labels[1], labels[2]);
  EXPECT_NE(labels[0], labels[1]);
}

TEST(UnionFind, FromLabelsInvertsLabels) {
  util::Prng rng(5);
  util::UnionFind uf(300);
  for (int i = 0; i < 200; ++i) {
    uf.unite(static_cast<std::uint32_t>(rng() % 300),
             static_cast<std::uint32_t>(rng() % 300));
  }
  // Number each set by its first member, so equal partitions compare equal
  // whichever members the two structures picked as representatives.
  const auto canonical = [](const std::vector<std::uint32_t>& labels) {
    std::map<std::uint32_t, std::uint32_t> first;
    std::vector<std::uint32_t> out;
    for (std::uint32_t i = 0; i < labels.size(); ++i)
      out.push_back(first.try_emplace(labels[i], i).first->second);
    return out;
  };
  const auto rebuilt = util::UnionFind::from_labels(uf.labels());
  EXPECT_EQ(canonical(rebuilt.labels()), canonical(uf.labels()));
  EXPECT_EQ(rebuilt.num_sets(), uf.num_sets());
  const std::vector<std::uint32_t> bad = {0, 2};  // label 2 >= size 2
  EXPECT_THROW(util::UnionFind::from_labels(bad), std::invalid_argument);
}

TEST(RadixSort, U64WithPayload) {
  util::Prng rng(9);
  std::vector<std::uint64_t> keys(5000);
  std::vector<std::uint32_t> payload(5000);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    keys[i] = rng();
    payload[i] = static_cast<std::uint32_t>(i);
  }
  auto expected = keys;
  std::sort(expected.begin(), expected.end());
  auto orig = keys;
  util::radix_sort_u64(keys, payload);
  EXPECT_EQ(keys, expected);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(orig[payload[i]], keys[i]);
  }
}

TEST(RadixSort, CountingSortDescStable) {
  struct Item {
    std::uint32_t key;
    int order;
  };
  std::vector<Item> items = {{3, 0}, {1, 1}, {3, 2}, {2, 3}, {1, 4}, {3, 5}};
  auto sorted = util::counting_sort_desc(std::span<const Item>(items), 4,
                                         [](const Item& x) { return x.key; });
  ASSERT_EQ(sorted.size(), 6u);
  EXPECT_EQ(sorted[0].order, 0);
  EXPECT_EQ(sorted[1].order, 2);
  EXPECT_EQ(sorted[2].order, 5);
  EXPECT_EQ(sorted[3].order, 3);
  EXPECT_EQ(sorted[4].order, 1);
  EXPECT_EQ(sorted[5].order, 4);
}

TEST(Stats, RunningMoments) {
  util::RunningStats st;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) st.add(x);
  EXPECT_EQ(st.count(), 8u);
  EXPECT_DOUBLE_EQ(st.mean(), 5.0);
  EXPECT_NEAR(st.stddev(), 2.13809, 1e-4);
  EXPECT_EQ(st.min(), 2.0);
  EXPECT_EQ(st.max(), 9.0);
}

TEST(Stats, N50) {
  EXPECT_EQ(util::n50({}), 0u);
  EXPECT_EQ(util::n50({10}), 10u);
  // total 90, half 45; sorted desc: 30,25,20,15 — 30+25=55 >= 45 -> 25.
  EXPECT_EQ(util::n50({15, 30, 20, 25}), 25u);
}

TEST(Stats, Formatting) {
  EXPECT_EQ(util::fmt_count(0), "0");
  EXPECT_EQ(util::fmt_count(999), "999");
  EXPECT_EQ(util::fmt_count(1607364), "1,607,364");
  EXPECT_EQ(util::fmt_percent(0.437, 1), "43.7%");
  EXPECT_EQ(util::fmt_double(3.14159, 2), "3.14");
  EXPECT_EQ(util::fmt_bytes(1536), "1.50 KB");
}

TEST(Stats, TableRenders) {
  util::Table t({"name", "count"});
  t.add_row({"alpha", "1,234"});
  t.add_row({"beta", "56"});
  const auto s = t.render();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("1,234"), std::string::npos);
}

TEST(Flags, ParsesAllForms) {
  const char* argv[] = {"prog",       "--reads=100", "--error", "0.02",
                        "positional", "--verbose",   "--name",  "out.fa"};
  util::Flags flags(8, const_cast<char**>(argv));
  EXPECT_EQ(flags.get_u64("reads", 0), 100u);
  EXPECT_DOUBLE_EQ(flags.get_double("error", 0), 0.02);
  EXPECT_TRUE(flags.get_bool("verbose", false));
  EXPECT_EQ(flags.get_string("name", ""), "out.fa");
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "positional");
  // Defaults for unset flags.
  EXPECT_EQ(flags.get_i64("missing", -7), -7);
  EXPECT_FALSE(flags.get_bool("off", false));
}

TEST(Flags, BoolFalseForms) {
  const char* argv[] = {"prog", "--a=false", "--b=0", "--c=no", "--d=yes"};
  util::Flags flags(5, const_cast<char**>(argv));
  EXPECT_FALSE(flags.get_bool("a", true));
  EXPECT_FALSE(flags.get_bool("b", true));
  EXPECT_FALSE(flags.get_bool("c", true));
  EXPECT_TRUE(flags.get_bool("d", false));
}

TEST(Flags, BoolAcceptedForms) {
  struct Case {
    const char* value;
    bool expected;
  };
  // Every accepted spelling, in assorted cases; default is the opposite of
  // the expected result so a silent fall-through would be caught.
  const Case cases[] = {
      {"true", true},   {"TRUE", true},   {"True", true}, {"1", true},
      {"yes", true},    {"YES", true},    {"on", true},   {"On", true},
      {"false", false}, {"FALSE", false}, {"0", false},   {"no", false},
      {"No", false},    {"off", false},   {"OFF", false},
  };
  for (const auto& c : cases) {
    const std::string arg = std::string("--flag=") + c.value;
    const char* argv[] = {"prog", arg.c_str()};
    util::Flags flags(2, const_cast<char**>(argv));
    EXPECT_EQ(flags.get_bool("flag", !c.expected), c.expected)
        << "--flag=" << c.value;
  }
}

TEST(Flags, BoolRejectsGarbage) {
  for (const char* bad : {"--flag=maybe", "--flag=2", "--flag=tru",
                          "--flag=yess", "--flag="}) {
    const char* argv[] = {"prog", bad};
    util::Flags flags(2, const_cast<char**>(argv));
    EXPECT_THROW((void)flags.get_bool("flag", false), std::invalid_argument)
        << bad;
  }
}

TEST(Flags, BoolDefaultWhenAbsent) {
  const char* argv[] = {"prog"};
  util::Flags flags(1, const_cast<char**>(argv));
  EXPECT_TRUE(flags.get_bool("missing", true));
  EXPECT_FALSE(flags.get_bool("missing", false));
}

TEST(Flags, BareFlagIsTrue) {
  const char* argv[] = {"prog", "--verbose"};
  util::Flags flags(2, const_cast<char**>(argv));
  EXPECT_TRUE(flags.get_bool("verbose", false));
}

TEST(Log, LevelsFilter) {
  const auto prev = util::log_level();
  util::set_log_level(util::LogLevel::kError);
  // Nothing observable to assert on stderr cheaply; exercise the paths.
  util::log_debug() << "dropped";
  util::log_info() << "dropped " << 42;
  util::log_error() << "emitted";
  util::set_log_level(prev);
  SUCCEED();
}

TEST(Log, ParseLogLevel) {
  using util::LogLevel;
  EXPECT_EQ(util::parse_log_level("debug"), LogLevel::kDebug);
  EXPECT_EQ(util::parse_log_level("DEBUG"), LogLevel::kDebug);
  EXPECT_EQ(util::parse_log_level("info"), LogLevel::kInfo);
  EXPECT_EQ(util::parse_log_level("warn"), LogLevel::kWarn);
  EXPECT_EQ(util::parse_log_level("Warning"), LogLevel::kWarn);
  EXPECT_EQ(util::parse_log_level("error"), LogLevel::kError);
  // Unknown / null fall back.
  EXPECT_EQ(util::parse_log_level("verbose", LogLevel::kError),
            LogLevel::kError);
  EXPECT_EQ(util::parse_log_level(nullptr, LogLevel::kWarn), LogLevel::kWarn);
  EXPECT_EQ(util::parse_log_level(""), LogLevel::kInfo);
}

TEST(Log, RankPrefixRoundTrip) {
  EXPECT_LT(util::log_rank(), 0);  // no rank registered on this thread
  util::set_log_rank(3);
  EXPECT_EQ(util::log_rank(), 3);
  util::log_info() << "rank-prefixed line";
  util::set_log_rank(-1);
  EXPECT_LT(util::log_rank(), 0);
}

TEST(CountingSortAscending, StableByKey) {
  struct Item {
    std::uint32_t key;
    int order;
  };
  std::vector<Item> items = {{2, 0}, {0, 1}, {2, 2}, {1, 3}};
  auto sorted = util::counting_sort(std::span<const Item>(items), 3,
                                    [](const Item& x) { return x.key; });
  ASSERT_EQ(sorted.size(), 4u);
  EXPECT_EQ(sorted[0].order, 1);
  EXPECT_EQ(sorted[1].order, 3);
  EXPECT_EQ(sorted[2].order, 0);
  EXPECT_EQ(sorted[3].order, 2);
}

}  // namespace
}  // namespace pgasm
