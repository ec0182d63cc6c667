#include "obs/trace.hpp"

#include <algorithm>
#include <cstring>
#include <ctime>
#include <set>

#include "obs/metrics.hpp"

namespace pgasm::obs {

namespace {

std::uint64_t wall_ns() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

std::uint64_t thread_cpu_us() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec) / 1000;
}

void append_args_json(std::string& out, const TraceEvent& ev) {
  out += "\"args\":{\"seq\":";
  out += std::to_string(ev.seq);
  if (ev.kind == TraceEvent::Kind::kSpan) {
    out += ",\"cpu_us\":";
    out += std::to_string(ev.cpu_us);
  }
  if (ev.arg0_name != nullptr) {
    out += ",\"";
    append_json_escaped(out, ev.arg0_name);
    out += "\":";
    out += std::to_string(ev.arg0);
  }
  if (ev.arg1_name != nullptr) {
    out += ",\"";
    append_json_escaped(out, ev.arg1_name);
    out += "\":";
    out += std::to_string(ev.arg1);
  }
  if (ev.arg2_name != nullptr) {
    out += ",\"";
    append_json_escaped(out, ev.arg2_name);
    out += "\":";
    out += std::to_string(ev.arg2);
  }
  if (ev.phase != nullptr && ev.phase[0] != '\0') {
    out += ",\"phase\":\"";
    append_json_escaped(out, ev.phase);
    out += '"';
  }
  out += '}';
}

/// Message-correlation arg ("mseq"): set by vmpi on send/ssend/recv events;
/// (rank-of-sender, mseq) identifies a message uniquely, which is what both
/// the analyzer's edge stitching and the Chrome flow arrows key on.
std::uint64_t mseq_arg(const TraceEvent& ev, bool* found) {
  *found = false;
  for (const auto& [name, value] :
       {std::pair{ev.arg0_name, ev.arg0}, std::pair{ev.arg1_name, ev.arg1},
        std::pair{ev.arg2_name, ev.arg2}}) {
    if (name != nullptr && std::strcmp(name, "mseq") == 0) {
      *found = true;
      return value;
    }
  }
  return 0;
}

std::uint64_t peer_arg(const TraceEvent& ev, bool* found) {
  *found = false;
  for (const auto& [name, value] :
       {std::pair{ev.arg0_name, ev.arg0}, std::pair{ev.arg1_name, ev.arg1},
        std::pair{ev.arg2_name, ev.arg2}}) {
    if (name != nullptr && std::strcmp(name, "peer") == 0) {
      *found = true;
      return value;
    }
  }
  return 0;
}

}  // namespace

std::uint64_t RankRing::record(TraceEvent ev) {
  // Stamp the pipeline phase unless the caller already set one (hand-built
  // analyzer test traces set it explicitly).
  if (ev.phase == nullptr || ev.phase[0] == '\0') ev.phase = current_phase();
  util::MutexLock lock(mu_);
  ev.seq = next_seq_++;
  if (!wrapped_) {
    events_.push_back(ev);
    if (events_.size() == capacity_) wrapped_ = true;
  } else {
    ++dropped_;
    events_[head_] = ev;
    head_ = (head_ + 1) % capacity_;
  }
  return ev.seq;
}

std::uint64_t RankRing::peek_seq() const {
  util::MutexLock lock(mu_);
  return next_seq_;
}

std::vector<TraceEvent> RankRing::drain() const {
  util::MutexLock lock(mu_);
  std::vector<TraceEvent> out;
  out.reserve(events_.size());
  if (!wrapped_) {
    out = events_;
  } else {
    out.insert(out.end(), events_.begin() + static_cast<long>(head_),
               events_.end());
    out.insert(out.end(), events_.begin(),
               events_.begin() + static_cast<long>(head_));
  }
  return out;
}

std::uint64_t RankRing::dropped() const {
  util::MutexLock lock(mu_);
  return dropped_;
}

void RankRing::add_dropped(std::uint64_t n) {
  util::MutexLock lock(mu_);
  dropped_ += n;
}

std::size_t RankRing::size() const {
  util::MutexLock lock(mu_);
  return events_.size();
}

void Tracer::set_capacity(std::size_t cap) {
  util::MutexLock lock(mu_);
  capacity_ = cap == 0 ? 1 : cap;
}

RankRing* Tracer::ring(int rank) {
  util::MutexLock lock(mu_);
  if (epoch_ns_.load(std::memory_order_relaxed) == 0) {
    epoch_ns_.store(wall_ns(), std::memory_order_relaxed);
  }
  auto it = rings_.find(rank);
  if (it != rings_.end()) return it->second.get();
  auto ring = std::make_unique<RankRing>(capacity_);
  RankRing* raw = ring.get();
  rings_.emplace(rank, std::move(ring));
  return raw;
}

void Tracer::instant(int rank, const char* name, const char* cat,
                     const char* arg0_name, std::uint64_t arg0,
                     const char* arg1_name, std::uint64_t arg1,
                     const char* arg2_name, std::uint64_t arg2) {
  if (!enabled()) return;
  TraceEvent ev;
  ev.name = name;
  ev.cat = cat;
  ev.kind = TraceEvent::Kind::kInstant;
  ev.rank = rank;
  ev.ts_us = now_us();
  ev.arg0_name = arg0_name;
  ev.arg0 = arg0;
  ev.arg1_name = arg1_name;
  ev.arg1 = arg1;
  ev.arg2_name = arg2_name;
  ev.arg2 = arg2;
  ring(rank)->record(ev);
}

std::uint64_t Tracer::now_us() const {
  const std::uint64_t epoch = epoch_ns_.load(std::memory_order_relaxed);
  const std::uint64_t now = wall_ns();
  return epoch == 0 || now < epoch ? 0 : (now - epoch) / 1000;
}

std::map<int, std::vector<TraceEvent>> Tracer::drain_all() const {
  std::vector<std::pair<int, RankRing*>> rings;
  {
    util::MutexLock lock(mu_);
    rings.reserve(rings_.size());
    for (const auto& [rank, ring] : rings_) rings.emplace_back(rank, ring.get());
  }
  std::map<int, std::vector<TraceEvent>> out;
  for (const auto& [rank, ring] : rings) out.emplace(rank, ring->drain());
  return out;
}

std::uint64_t Tracer::total_dropped() const {
  std::vector<RankRing*> rings;
  {
    util::MutexLock lock(mu_);
    for (const auto& [rank, ring] : rings_) rings.push_back(ring.get());
  }
  std::uint64_t n = 0;
  for (const auto* ring : rings) n += ring->dropped();
  return n;
}

std::map<int, std::uint64_t> Tracer::dropped_by_rank() const {
  std::vector<std::pair<int, RankRing*>> rings;
  {
    util::MutexLock lock(mu_);
    rings.reserve(rings_.size());
    for (const auto& [rank, ring] : rings_) rings.emplace_back(rank, ring.get());
  }
  std::map<int, std::uint64_t> out;
  for (const auto& [rank, ring] : rings) out.emplace(rank, ring->dropped());
  return out;
}

std::size_t Tracer::total_events() const {
  std::vector<RankRing*> rings;
  {
    util::MutexLock lock(mu_);
    for (const auto& [rank, ring] : rings_) rings.push_back(ring.get());
  }
  std::size_t n = 0;
  for (const auto* ring : rings) n += ring->size();
  return n;
}

std::string Tracer::to_chrome_json() const {
  const auto all = drain_all();
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  const auto emit = [&out, &first](const std::string& record) {
    if (!first) out += ',';
    first = false;
    out += record;
  };
  // Thread-name metadata so Perfetto labels each track.
  for (const auto& [rank, events] : all) {
    (void)events;
    std::string rec = "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":";
    rec += std::to_string(rank);
    rec += ",\"args\":{\"name\":\"";
    rec += rank == kDriverTid ? "driver" : "rank " + std::to_string(rank);
    rec += "\"}}";
    emit(rec);
  }
  for (const auto& [rank, events] : all) {
    for (const TraceEvent& ev : events) {
      std::string rec = "{\"ph\":\"";
      rec += ev.kind == TraceEvent::Kind::kSpan ? 'X' : 'i';
      rec += "\",\"name\":\"";
      append_json_escaped(rec, ev.name);
      rec += "\",\"cat\":\"";
      append_json_escaped(rec, ev.cat);
      rec += "\",\"pid\":1,\"tid\":";
      rec += std::to_string(rank);
      rec += ",\"ts\":";
      rec += std::to_string(ev.ts_us);
      if (ev.kind == TraceEvent::Kind::kSpan) {
        rec += ",\"dur\":";
        rec += std::to_string(ev.dur_us);
      } else {
        rec += ",\"s\":\"t\"";  // instant scope: thread
      }
      rec += ',';
      append_args_json(rec, ev);
      rec += '}';
      emit(rec);

      // Flow events: every vmpi message event carrying an "mseq" arg gets a
      // flow step so Perfetto draws the causal arrow. The flow id encodes
      // (sender rank, mseq) — unique per message, needs no matching pass;
      // an unmatched id simply draws no arrow.
      bool has_mseq = false;
      const std::uint64_t mseq = mseq_arg(ev, &has_mseq);
      if (!has_mseq) continue;
      const bool is_send =
          std::strcmp(ev.name, "send") == 0 || std::strcmp(ev.name, "ssend") == 0;
      const bool is_recv = std::strcmp(ev.name, "recv") == 0;
      if (!is_send && !is_recv) continue;
      std::uint64_t sender = 0;
      if (is_send) {
        sender = static_cast<std::uint64_t>(ev.rank + 2);
      } else {
        bool has_peer = false;
        const std::uint64_t peer = peer_arg(ev, &has_peer);
        if (!has_peer) continue;
        sender = peer + 2;  // peer of a recv = sender rank (>= kDriverTid)
      }
      std::string flow = "{\"ph\":\"";
      flow += is_send ? 's' : 'f';
      flow += "\",\"name\":\"msg\",\"cat\":\"vmpi\",\"pid\":1,\"tid\":";
      flow += std::to_string(rank);
      flow += ",\"ts\":";
      // Arrow leaves at the send instant and lands when the recv completes.
      flow += std::to_string(is_send ? ev.ts_us : ev.end_us());
      if (is_recv) flow += ",\"bp\":\"e\"";
      flow += ",\"id\":";
      flow += std::to_string((sender << 40) | (mseq & ((1ull << 40) - 1)));
      flow += '}';
      emit(flow);
    }
  }
  out += "]}\n";
  return out;
}

void Tracer::clear() {
  util::MutexLock lock(mu_);
  rings_.clear();
  epoch_ns_.store(0, std::memory_order_relaxed);
}

Span::Span(RankRing* ring, std::uint64_t epoch_start_us, const char* name,
           const char* cat, int rank) noexcept
    : ring_(ring) {
  if (ring_ == nullptr) return;
  ev_.name = name;
  ev_.cat = cat;
  ev_.kind = TraceEvent::Kind::kSpan;
  ev_.rank = rank;
  ev_.ts_us = epoch_start_us;
  cpu_start_us_ = thread_cpu_us();
}

Span& Span::operator=(Span&& o) noexcept {
  if (this != &o) {
    finish();
    ring_ = o.ring_;
    ev_ = o.ev_;
    cpu_start_us_ = o.cpu_start_us_;
    o.ring_ = nullptr;
  }
  return *this;
}

void Span::arg(const char* name, std::uint64_t value) noexcept {
  if (ring_ == nullptr) return;
  if (ev_.arg0_name == nullptr) {
    ev_.arg0_name = name;
    ev_.arg0 = value;
  } else if (ev_.arg1_name == nullptr) {
    ev_.arg1_name = name;
    ev_.arg1 = value;
  } else {
    ev_.arg2_name = name;
    ev_.arg2 = value;
  }
}

void Span::finish() noexcept {
  if (ring_ == nullptr) return;
  const std::uint64_t end_us = tracer().now_us();
  ev_.dur_us = end_us > ev_.ts_us ? end_us - ev_.ts_us : 0;
  const std::uint64_t cpu_end = thread_cpu_us();
  ev_.cpu_us = cpu_end > cpu_start_us_ ? cpu_end - cpu_start_us_ : 0;
  ring_->record(ev_);
  ring_ = nullptr;
}

Tracer& tracer() {
  static Tracer* instance = new Tracer();  // leaked: outlives all threads
  return *instance;
}

const char* intern_string(std::string_view s) {
  if (s.empty()) return "";
  static util::Mutex* mu = new util::Mutex();  // leaked, like the tracer
  static std::set<std::string, std::less<>>* table =
      new std::set<std::string, std::less<>>();
  util::MutexLock lock(*mu);
  auto it = table->find(s);
  if (it == table->end()) it = table->emplace(s).first;
  return it->c_str();
}

Span span(int rank, const char* name, const char* cat) {
  Tracer& t = tracer();
  if (!t.enabled()) return Span();
  return Span(t.ring(rank), t.now_us(), name, cat, rank);
}

}  // namespace pgasm::obs
