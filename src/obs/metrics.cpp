#include "obs/metrics.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>

#include "util/stats.hpp"

namespace pgasm::obs {

namespace {

// pgasm-lint: allow(raw-atomic): process-wide phase label, only ever
// pointing at string literals, relaxed by design
std::atomic<const char*> g_phase{""};

MetricKey make_key(std::string_view name, int rank, std::string_view phase) {
  return MetricKey{std::string(name), rank, std::string(phase)};
}

void append_key_json(std::string& out, const MetricKey& key) {
  out += "\"name\":\"";
  append_json_escaped(out, key.name);
  out += "\",\"rank\":";
  out += std::to_string(key.rank);
  out += ",\"phase\":\"";
  append_json_escaped(out, key.phase);
  out += '"';
}

/// %g-style shortest representation that still round-trips doubles.
std::string json_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  // JSON has no inf/nan; clamp to null-ish zero (should not occur).
  std::string s = buf;
  if (s.find("inf") != std::string::npos ||
      s.find("nan") != std::string::npos) {
    return "0";
  }
  return s;
}

}  // namespace

void append_json_escaped(std::string& out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

Counter& Registry::counter(std::string_view name, int rank,
                           std::string_view phase) {
  util::MutexLock lock(mu_);
  auto key = make_key(name, rank, phase);
  auto it = counter_index_.find(key);
  if (it != counter_index_.end()) return *it->second;
  counters_.emplace_back();
  counter_index_.emplace(std::move(key), &counters_.back());
  return counters_.back();
}

Gauge& Registry::gauge(std::string_view name, int rank,
                       std::string_view phase) {
  util::MutexLock lock(mu_);
  auto key = make_key(name, rank, phase);
  auto it = gauge_index_.find(key);
  if (it != gauge_index_.end()) return *it->second;
  gauges_.emplace_back();
  gauge_index_.emplace(std::move(key), &gauges_.back());
  return gauges_.back();
}

Histogram& Registry::histogram(std::string_view name, int rank,
                               std::string_view phase) {
  util::MutexLock lock(mu_);
  auto key = make_key(name, rank, phase);
  auto it = histogram_index_.find(key);
  if (it != histogram_index_.end()) return *it->second;
  histograms_.emplace_back();
  histogram_index_.emplace(std::move(key), &histograms_.back());
  return histograms_.back();
}

std::vector<MetricSample> Registry::snapshot() const {
  util::MutexLock lock(mu_);
  std::vector<MetricSample> out;
  out.reserve(counter_index_.size() + gauge_index_.size() +
              histogram_index_.size());
  for (const auto& [key, c] : counter_index_) {
    MetricSample s;
    s.key = key;
    s.kind = MetricSample::Kind::kCounter;
    s.counter_value = c->value();
    out.push_back(std::move(s));
  }
  for (const auto& [key, g] : gauge_index_) {
    MetricSample s;
    s.key = key;
    s.kind = MetricSample::Kind::kGauge;
    s.gauge_value = g->value();
    out.push_back(std::move(s));
  }
  for (const auto& [key, h] : histogram_index_) {
    MetricSample s;
    s.key = key;
    s.kind = MetricSample::Kind::kHistogram;
    for (int i = 0; i < Histogram::kNumBuckets; ++i) {
      const std::uint64_t n = h->bucket_count(i);
      if (n > 0) s.buckets.emplace_back(i, n);
      s.hist_count += n;
    }
    s.hist_sum = h->sum();
    out.push_back(std::move(s));
  }
  // Deterministic order: name, then phase, then rank.
  std::sort(out.begin(), out.end(),
            [](const MetricSample& a, const MetricSample& b) {
              return a.key < b.key;
            });
  return out;
}

std::string Registry::summary_table() const {
  const auto samples = snapshot();
  util::Table table({"phase", "rank", "metric", "value"});
  for (const auto& s : samples) {
    std::string value;
    switch (s.kind) {
      case MetricSample::Kind::kCounter:
        value = util::fmt_count(s.counter_value);
        break;
      case MetricSample::Kind::kGauge:
        value = util::fmt_double(s.gauge_value, 6);
        break;
      case MetricSample::Kind::kHistogram:
        value = util::fmt_count(s.hist_count) + " obs, mean " +
                util::fmt_double(
                    s.hist_count == 0
                        ? 0.0
                        : static_cast<double>(s.hist_sum) /
                              static_cast<double>(s.hist_count),
                    2);
        break;
    }
    table.add_row({s.key.phase.empty() ? "-" : s.key.phase,
                   s.key.rank == kNoRank ? "-" : std::to_string(s.key.rank),
                   s.key.name, std::move(value)});
  }
  return table.render();
}

std::string Registry::to_jsonl() const {
  const auto samples = snapshot();
  std::string out;
  for (const auto& s : samples) {
    out += '{';
    switch (s.kind) {
      case MetricSample::Kind::kCounter:
        out += "\"type\":\"counter\",";
        append_key_json(out, s.key);
        out += ",\"value\":";
        out += std::to_string(s.counter_value);
        break;
      case MetricSample::Kind::kGauge:
        out += "\"type\":\"gauge\",";
        append_key_json(out, s.key);
        out += ",\"value\":";
        out += json_double(s.gauge_value);
        break;
      case MetricSample::Kind::kHistogram: {
        out += "\"type\":\"histogram\",";
        append_key_json(out, s.key);
        out += ",\"count\":";
        out += std::to_string(s.hist_count);
        out += ",\"sum\":";
        out += std::to_string(s.hist_sum);
        out += ",\"buckets\":[";
        bool first = true;
        for (const auto& [i, n] : s.buckets) {
          if (!first) out += ',';
          first = false;
          out += "{\"le\":";
          out += std::to_string(Histogram::bucket_upper(i));
          out += ",\"count\":";
          out += std::to_string(n);
          out += '}';
        }
        out += ']';
        break;
      }
    }
    out += "}\n";
  }
  return out;
}

void Registry::clear() {
  util::MutexLock lock(mu_);
  counter_index_.clear();
  gauge_index_.clear();
  histogram_index_.clear();
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

std::size_t Registry::size() const {
  util::MutexLock lock(mu_);
  return counter_index_.size() + gauge_index_.size() +
         histogram_index_.size();
}

Registry& registry() {
  static Registry* instance = new Registry();  // leaked: outlives all threads
  return *instance;
}

void set_phase(const char* phase) noexcept {
  g_phase.store(phase == nullptr ? "" : phase, std::memory_order_relaxed);
}

const char* current_phase() noexcept {
  return g_phase.load(std::memory_order_relaxed);
}

}  // namespace pgasm::obs
