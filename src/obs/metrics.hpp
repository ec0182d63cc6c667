// Unified metrics registry for the parallel runtime (counters, gauges, and
// fixed-log2-bucket histograms, labeled by rank and phase).
//
// The paper's whole evaluation is an accounting exercise — per-phase wall
// times, pair counts, communication volume (Figs. 5/9, Tables 1-3) — and the
// repro previously scattered that across ad-hoc structs with no common
// export. The registry is the single sink: hot paths cache an instrument
// pointer once and then update it with a single atomic op; the existing
// stats structs (ClusterStats, GstBuildStats, RunCost, FaultStats,
// PreprocessStats) are published into the registry at phase boundaries so
// there is one queryable source of truth.
//
// Thread safety: instrument lookup takes the registry mutex; updates on an
// obtained instrument are lock-free atomics, safe from any thread.
// Instrument references stay valid until Registry::clear() — callers that
// cache pointers (the vmpi Comm does) must not outlive a clear().
//
// Export is dual-format: a human-readable phase/rank table (util::Table)
// and JSONL (one metric per line) for machine consumption; see export.hpp
// for the directory sink used by `--obs-out` / PipelineParams::obs_dir.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "util/thread_annotations.hpp"

namespace pgasm::obs {

/// Monotonically increasing event/sample count.
class Counter {
 public:
  void inc(std::uint64_t delta = 1) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written (or accumulated) floating-point value.
class Gauge {
 public:
  void set(double v) noexcept {
    bits_.store(to_bits(v), std::memory_order_relaxed);
  }
  void add(double delta) noexcept {
    std::uint64_t cur = bits_.load(std::memory_order_relaxed);
    for (;;) {
      const std::uint64_t next = to_bits(from_bits(cur) + delta);
      if (bits_.compare_exchange_weak(cur, next, std::memory_order_relaxed))
        return;
    }
  }
  double value() const noexcept {
    return from_bits(bits_.load(std::memory_order_relaxed));
  }

 private:
  static std::uint64_t to_bits(double v) noexcept {
    std::uint64_t b;
    static_assert(sizeof(b) == sizeof(v));
    __builtin_memcpy(&b, &v, sizeof(b));
    return b;
  }
  static double from_bits(std::uint64_t b) noexcept {
    double v;
    __builtin_memcpy(&v, &b, sizeof(v));
    return v;
  }
  std::atomic<std::uint64_t> bits_{0};
};

/// Histogram over unsigned values with fixed log2 buckets: bucket 0 counts
/// value 0, bucket i >= 1 counts values with bit_width i, i.e. the range
/// [2^(i-1), 2^i). 65 buckets cover the full u64 domain; no configuration,
/// no allocation, updates are two relaxed atomic adds.
class Histogram {
 public:
  static constexpr int kNumBuckets = 65;

  void observe(std::uint64_t v) noexcept {
    buckets_[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }

  /// Bucket index for a value: 0 for 0, else bit_width(v).
  static int bucket_of(std::uint64_t v) noexcept {
    return v == 0 ? 0 : 64 - __builtin_clzll(v);
  }
  /// Inclusive upper bound of bucket i (2^i - 1; bucket 0 holds only 0).
  static std::uint64_t bucket_upper(int i) noexcept {
    return i >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << i) - 1;
  }

  std::uint64_t bucket_count(int i) const noexcept {
    return buckets_[static_cast<std::size_t>(i)].load(
        std::memory_order_relaxed);
  }
  std::uint64_t count() const noexcept {
    std::uint64_t n = 0;
    for (const auto& b : buckets_) n += b.load(std::memory_order_relaxed);
    return n;
  }
  std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }

  /// Fold a bucket-count delta / sum delta from another histogram into this
  /// one (used to merge per-process registry snapshots after a proc-
  /// transport run; deltas, not absolutes, so inherited pre-fork state is
  /// not double counted).
  void merge_bucket(int i, std::uint64_t count) noexcept {
    buckets_[static_cast<std::size_t>(i)].fetch_add(count,
                                                    std::memory_order_relaxed);
  }
  void merge_sum(std::uint64_t delta) noexcept {
    sum_.fetch_add(delta, std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<std::uint64_t>, kNumBuckets> buckets_{};
  std::atomic<std::uint64_t> sum_{0};
};

/// Identity of one instrument: name + (rank, phase) labels.
/// rank kNoRank labels process-/driver-level metrics.
inline constexpr int kNoRank = -1;

struct MetricKey {
  std::string name;
  int rank = kNoRank;
  std::string phase;  ///< "" = unphased

  bool operator<(const MetricKey& o) const noexcept {
    return std::tie(name, phase, rank) < std::tie(o.name, o.phase, o.rank);
  }
};

/// One exported metric (value captured at snapshot time).
struct MetricSample {
  enum class Kind { kCounter, kGauge, kHistogram };
  MetricKey key;
  Kind kind = Kind::kCounter;
  std::uint64_t counter_value = 0;
  double gauge_value = 0;
  // Histogram payload: (bucket index, count) for non-empty buckets.
  std::vector<std::pair<int, std::uint64_t>> buckets;
  std::uint64_t hist_count = 0;
  std::uint64_t hist_sum = 0;
};

class Registry {
 public:
  /// Find-or-create. References stay valid until clear().
  Counter& counter(std::string_view name, int rank = kNoRank,
                   std::string_view phase = {}) PGASM_EXCLUDES(mu_);
  Gauge& gauge(std::string_view name, int rank = kNoRank,
               std::string_view phase = {}) PGASM_EXCLUDES(mu_);
  Histogram& histogram(std::string_view name, int rank = kNoRank,
                       std::string_view phase = {}) PGASM_EXCLUDES(mu_);

  /// Ordered snapshot of every instrument (name, phase, rank).
  std::vector<MetricSample> snapshot() const PGASM_EXCLUDES(mu_);

  /// Human-readable phase/rank summary (util::Table render).
  std::string summary_table() const PGASM_EXCLUDES(mu_);

  /// One JSON object per line, e.g.
  ///   {"type":"counter","name":"cluster.merges","rank":0,
  ///    "phase":"cluster","value":1234}
  std::string to_jsonl() const PGASM_EXCLUDES(mu_);

  /// Drop every instrument. Invalidates all outstanding references.
  void clear() PGASM_EXCLUDES(mu_);

  std::size_t size() const PGASM_EXCLUDES(mu_);

 private:
  mutable util::Mutex mu_;
  // Deques give stable addresses across growth. The lookup maps and the
  // instrument stores mutate only under mu_; the instruments themselves are
  // lock-free atomics, so updates through a handed-out reference need no
  // capability (that is the registry's whole hot-path contract).
  std::deque<Counter> counters_ PGASM_GUARDED_BY(mu_);
  std::deque<Gauge> gauges_ PGASM_GUARDED_BY(mu_);
  std::deque<Histogram> histograms_ PGASM_GUARDED_BY(mu_);
  std::map<MetricKey, Counter*> counter_index_ PGASM_GUARDED_BY(mu_);
  std::map<MetricKey, Gauge*> gauge_index_ PGASM_GUARDED_BY(mu_);
  std::map<MetricKey, Histogram*> histogram_index_ PGASM_GUARDED_BY(mu_);
};

/// Process-global registry used by the instrumented runtime layers. Unit
/// tests that need isolation construct their own Registry instead.
Registry& registry();

/// Current pipeline phase label, used by layers (e.g. the vmpi ledger fold)
/// that do not know which driver phase they run under. Must point to
/// storage with static lifetime; defaults to "".
void set_phase(const char* phase) noexcept;
const char* current_phase() noexcept;

/// Append `s` as the body of a JSON string: quote and backslash escaped,
/// \n and \t by name, other control characters as \u00XX. The one
/// escaper behind every JSON the obs layer writes.
void append_json_escaped(std::string& out, std::string_view s);

}  // namespace pgasm::obs
