#include "vmpi/proc_transport.hpp"

#include <signal.h>
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <new>
#include <sstream>
#include <thread>
#include <tuple>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"
#include "vmpi/ring_core.hpp"
#include "vmpi/runtime.hpp"
#include "vmpi/wait_scope.hpp"

namespace pgasm::vmpi {

namespace {

constexpr std::size_t kAlign = 64;

std::size_t align_up(std::size_t n) { return (n + kAlign - 1) & ~(kAlign - 1); }

/// Brief pause inside a polling loop: stay hot for a few iterations (the
/// common case is a peer actively producing), then nap so idle waits do not
/// burn a core per rank.
void poll_nap(int& idle) {
  if (++idle < 64) {
    std::this_thread::yield();
  } else {
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
}

}  // namespace

ProcTransport::ProcTransport(int num_ranks, std::size_t ring_bytes)
    : num_ranks_(num_ranks),
      ring_bytes_(align_up(std::max<std::size_t>(ring_bytes, 4096))),
      assembly_(static_cast<std::size_t>(num_ranks)) {
  const std::size_t p = static_cast<std::size_t>(num_ranks);
  const std::size_t control_off = 0;
  const std::size_t dead_off = align_up(control_off + sizeof(detail::ShmControl));
  const std::size_t done_off = dead_off + p * sizeof(detail::ShmFlag);
  const std::size_t acks_off = done_off + p * sizeof(detail::ShmFlag);
  const std::size_t rings_off = acks_off + p * p * sizeof(detail::ShmAckSlot);
  const std::size_t ring_stride = sizeof(detail::RingHdr) + ring_bytes_;
  region_size_ = rings_off + p * p * ring_stride;

  // Anonymous MAP_SHARED: the one mapping every rank process inherits over
  // fork. Pages are allocated lazily, so a large p with mostly-idle rings
  // costs address space, not memory.
  region_ = ::mmap(nullptr, region_size_, PROT_READ | PROT_WRITE,
                   MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (region_ == MAP_FAILED) {
    region_ = nullptr;
    throw std::runtime_error("proc transport: mmap of " +
                             std::to_string(region_size_) + " bytes failed");
  }
  auto* base = static_cast<std::byte*>(region_);
  control_ = new (base + control_off) detail::ShmControl();
  dead_ = reinterpret_cast<detail::ShmFlag*>(base + dead_off);
  done_ = reinterpret_cast<detail::ShmFlag*>(base + done_off);
  acks_ = reinterpret_cast<detail::ShmAckSlot*>(base + acks_off);
  rings_ = base + rings_off;
  for (std::size_t i = 0; i < p; ++i) {
    new (dead_ + i) detail::ShmFlag();
    new (done_ + i) detail::ShmFlag();
  }
  for (std::size_t i = 0; i < p * p; ++i) {
    new (acks_ + i) detail::ShmAckSlot();
    new (rings_ + i * ring_stride) detail::RingHdr();
  }
}

ProcTransport::~ProcTransport() {
  if (region_ != nullptr) ::munmap(region_, region_size_);
}

detail::RingHdr* ProcTransport::ring_hdr(int src, int dst) const noexcept {
  const std::size_t ring_stride = sizeof(detail::RingHdr) + ring_bytes_;
  const std::size_t idx = static_cast<std::size_t>(src) *
                              static_cast<std::size_t>(num_ranks_) +
                          static_cast<std::size_t>(dst);
  return reinterpret_cast<detail::RingHdr*>(rings_ + idx * ring_stride);
}

std::byte* ProcTransport::ring_buf(int src, int dst) const noexcept {
  return reinterpret_cast<std::byte*>(ring_hdr(src, dst)) +
         sizeof(detail::RingHdr);
}

void ProcTransport::mark_dead(int rank) {
  // exchange, not store: death can be reported twice (a child marking
  // itself on KilledError and the parent's reaper observing its exit), and
  // ranks_failed must count each rank once.
  if (dead_[rank].v.exchange(1, std::memory_order_acq_rel) == 0) {
    control_->counters.ranks_failed.fetch_add(1, std::memory_order_relaxed);
  }
}

void ProcTransport::mark_done(int rank) {
  // Release: everything this rank wrote into its outbound rings happens-
  // before any peer observing done, so a receiver that saw done and then
  // drained cannot have missed a message.
  done_[rank].v.store(1, std::memory_order_release);
}

void ProcTransport::abort_all() {
  control_->aborted.store(1, std::memory_order_release);
}

bool ProcTransport::claim_first_error(int rank) noexcept {
  std::int32_t expected = -1;
  return control_->first_error_rank.compare_exchange_strong(
      expected, rank, std::memory_order_acq_rel);
}

void ProcTransport::drain_inbound(int self) {
  StdRingFacade ring;
  for (int s = 0; s < num_ranks_; ++s) {
    detail::RingHdr* hdr = ring_hdr(s, self);
    const std::byte* buf = ring_buf(s, self);
    Assembly& as = assembly_[static_cast<std::size_t>(s)];
    for (;;) {
      // Complete any fully-assembled piece before popping more: this also
      // finishes zero-length payloads, which consume no ring bytes.
      if (as.in_payload && as.have == as.hdr.payload_len) {
        detail::Message m;
        m.source = static_cast<int>(as.hdr.source);
        m.tag = as.hdr.tag;
        m.internal = as.hdr.internal != 0;
        m.send_idx = as.hdr.send_idx;
        m.sync = as.hdr.sync != 0;
        m.payload = std::move(as.payload);
        pending_.push_back(std::move(m));
        as = Assembly{};
      }
      if (!as.in_payload && as.have == sizeof(detail::FrameHdr)) {
        as.in_payload = true;
        as.have = 0;
        as.payload.resize(static_cast<std::size_t>(as.hdr.payload_len));
        continue;
      }
      std::size_t want;
      std::byte* dst;
      if (!as.in_payload) {
        want = sizeof(detail::FrameHdr) - as.have;
        dst = reinterpret_cast<std::byte*>(&as.hdr) + as.have;
      } else {
        want = static_cast<std::size_t>(as.hdr.payload_len) - as.have;
        dst = as.payload.data() + as.have;
      }
      // The pop core (vmpi/ring_core.hpp) owns the cursor discipline:
      // acquire the producer-owned tail, advance the consumer-owned head
      // with a release store once the bytes are copied out.
      const std::size_t chunk = StdRing::try_pop(
          ring, hdr->head, hdr->tail, buf, ring_bytes_, dst, want);
      if (chunk == 0) break;
      as.have += chunk;
    }
  }
}

bool ProcTransport::write_stream(int self, int dest, const void* data,
                                 std::size_t n) {
  detail::RingHdr* hdr = ring_hdr(self, dest);
  std::byte* buf = ring_buf(self, dest);
  const auto* src = static_cast<const std::byte*>(data);
  StdRingFacade ring;
  std::size_t written = 0;
  int idle = 0;
  while (written < n) {
    // The push core (vmpi/ring_core.hpp) owns the cursor discipline:
    // acquire the consumer-owned head, advance the producer-owned tail with
    // a release store only after the bytes are fully in place — a consumer
    // can never observe a torn chunk, even if we are SIGKILLed right here.
    const std::size_t chunk = StdRing::try_push(
        ring, hdr->head, hdr->tail, buf, ring_bytes_, src + written,
        n - written);
    if (chunk == 0) {
      // Unlike the unbounded thread mailboxes, a bounded ring can block a
      // producer. Abandon the stream when the consumer can never drain it
      // (dead/finished — nothing reads that ring again, a torn frame is
      // unobservable), bail on abort, and keep draining our own inbound
      // rings so producer-producer cycles cannot deadlock.
      if (is_dead(dest) || is_done(dest)) return false;
      if (is_aborted()) throw AbortError("vmpi aborted");
      drain_inbound(self);
      poll_nap(idle);
      continue;
    }
    written += chunk;
    idle = 0;
  }
  return true;
}

void ProcTransport::deliver(int self, int dest, detail::Message&& msg,
                            bool sync) {
  detail::FrameHdr fh;
  fh.payload_len = msg.payload.size();
  fh.tag = msg.tag;
  fh.send_idx = msg.send_idx;
  fh.source = static_cast<std::uint32_t>(self);
  fh.internal = msg.internal ? 1 : 0;
  fh.sync = sync ? 1 : 0;
  if (!write_stream(self, dest, &fh, sizeof(fh)) ||
      !write_stream(self, dest, msg.payload.data(), msg.payload.size())) {
    // Destination died or finished mid-stream: the message was never fully
    // enqueued. Mirrors the thread transport's dead-before-push race, which
    // is the one post-preflight path that counts sends_to_dead.
    if (sync && is_dead(dest))
      counters().sends_to_dead.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (!sync) return;
  // ssend rendezvous: poll the ack slot until the destination consumes the
  // message. A destination that died or finished after fully receiving the
  // frame completes the send silently, exactly like the thread transport's
  // consumed-flag flip in mark_dead/mark_done.
  std::atomic<std::uint64_t>& slot =
      acks_[static_cast<std::size_t>(self) *
                static_cast<std::size_t>(num_ranks_) +
            static_cast<std::size_t>(dest)]
          .v;
  const std::uint64_t idx = msg.send_idx;
  int idle = 0;
  for (;;) {
    if (slot.load(std::memory_order_acquire) >= idx) return;
    if (is_dead(dest) || is_done(dest)) return;
    if (is_aborted()) throw AbortError("vmpi aborted during ssend");
    // Keep draining: a peer blocked writing into our full inbound ring may
    // be the very rank that must progress to consume this message.
    drain_inbound(self);
    poll_nap(idle);
  }
}

Transport::Wait ProcTransport::recv(
    int self, int source, std::int64_t tag, bool internal,
    const std::chrono::steady_clock::time_point* deadline,
    detail::Message* out) {
  const bool specific = source != kAnySource && source != self;
  int idle = 0;
  for (;;) {
    // Liveness read BEFORE the drain: mark_done is a release after the
    // rank's last write, so "gone, and drained after seeing gone, and still
    // no match" proves no message is coming. (A dead source's mid-stream
    // frame stays incomplete in the assembly buffer and is never surfaced.)
    const bool gone =
        specific && (is_dead(source) || is_done(source));
    if (is_aborted()) throw AbortError("vmpi aborted");
    drain_inbound(self);
    for (auto it = pending_.begin(); it != pending_.end(); ++it) {
      if (!detail::matches(*it, source, tag, internal)) continue;
      if (it->sync) {
        // Consume-time acknowledgement: the sender's send_idx is strictly
        // increasing and it has at most one sync send outstanding, so a
        // plain store is monotonic.
        acks_[static_cast<std::size_t>(it->source) *
                  static_cast<std::size_t>(num_ranks_) +
              static_cast<std::size_t>(self)]
            .v.store(it->send_idx, std::memory_order_release);
      }
      *out = std::move(*it);
      pending_.erase(it);
      return Wait::kMessage;
    }
    if (gone) return Wait::kPeerGone;
    if (deadline && std::chrono::steady_clock::now() >= *deadline) {
      return Wait::kTimeout;
    }
    poll_nap(idle);
  }
}

Transport::Wait ProcTransport::probe(
    int self, int source, std::int64_t tag,
    const std::chrono::steady_clock::time_point* deadline, ProbeResult* out) {
  const bool specific = source != kAnySource && source != self;
  int idle = 0;
  for (;;) {
    const bool gone =
        specific && (is_dead(source) || is_done(source));
    if (is_aborted()) throw AbortError("vmpi aborted");
    drain_inbound(self);
    for (const auto& m : pending_) {
      if (!detail::matches(m, source, tag, /*internal=*/false)) continue;
      out->source = m.source;
      out->tag = m.tag;
      out->bytes = m.payload.size();
      out->send_idx = m.send_idx;
      return Wait::kMessage;
    }
    if (gone) return Wait::kPeerGone;
    if (deadline && std::chrono::steady_clock::now() >= *deadline) {
      return Wait::kTimeout;
    }
    poll_nap(idle);
  }
}

bool ProcTransport::iprobe(int self, int source, std::int64_t tag,
                           ProbeResult* out) {
  if (is_aborted()) throw AbortError("vmpi aborted");
  drain_inbound(self);
  for (const auto& m : pending_) {
    if (!detail::matches(m, source, tag, /*internal=*/false)) continue;
    if (out != nullptr) {
      out->source = m.source;
      out->tag = m.tag;
      out->bytes = m.payload.size();
      out->send_idx = m.send_idx;
    }
    return true;
  }
  return false;
}

void ProcTransport::crash_self(int self, const std::string& why) {
  if (self == 0) {
    // Rank 0 lives on the parent's thread; killing it would take down the
    // whole run, so it dies the thread-transport way.
    throw KilledError(why);
  }
  // A real machine-style failure: no unwinding, no flushes, no exit blob.
  // The parent's reaper observes WIFSIGNALED and marks the rank dead.
  ::kill(::getpid(), SIGKILL);
  for (;;) ::pause();  // unreachable
}

// --------------------------------------------------------------------------
// Exit blobs: everything a child rank ships back to the parent — its cost
// ledger, stash, error (if any), and its obs state as *deltas* against a
// baseline captured right after fork (the child inherited the parent's
// rings and registry, so shipping absolutes would double count).

namespace {

constexpr std::uint32_t kBlobMagic = 0x42565047;  // "PGVB"
constexpr std::uint32_t kBlobVersion = 1;
constexpr std::uint32_t kNoString = 0xffffffff;

enum class ExitKind : std::uint8_t {
  kOk = 0,
  kError = 1,    ///< body threw (message preserved)
  kTimeout = 2,  ///< body threw TimeoutError
  kAbort = 3,    ///< body saw the run abort
  kKilled = 4,   ///< body threw KilledError (simulated crash, unwound)
};

void put_u8(std::string& b, std::uint8_t v) {
  b.push_back(static_cast<char>(v));
}
void put_u32(std::string& b, std::uint32_t v) {
  b.append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void put_u64(std::string& b, std::uint64_t v) {
  b.append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void put_f64(std::string& b, double v) {
  b.append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void put_str(std::string& b, std::string_view s) {
  put_u32(b, static_cast<std::uint32_t>(s.size()));
  b.append(s.data(), s.size());
}

/// Bounds-checked reader over a blob's bytes. Any overrun latches ok=false
/// and zero-fills, so a truncated blob degrades to "rank shipped nothing"
/// rather than UB.
struct BlobReader {
  const std::string& b;
  std::size_t off = 0;
  bool ok = true;

  bool take(void* out, std::size_t n) {
    if (!ok || b.size() - off < n) {
      ok = false;
      std::memset(out, 0, n);
      return false;
    }
    std::memcpy(out, b.data() + off, n);
    off += n;
    return true;
  }
  std::uint8_t u8() {
    std::uint8_t v;
    take(&v, sizeof(v));
    return v;
  }
  std::uint32_t u32() {
    std::uint32_t v;
    take(&v, sizeof(v));
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v;
    take(&v, sizeof(v));
    return v;
  }
  double f64() {
    double v;
    take(&v, sizeof(v));
    return v;
  }
  std::string str() {
    const std::uint32_t n = u32();
    if (!ok || b.size() - off < n) {
      ok = false;
      return {};
    }
    std::string s(b.data() + off, n);
    off += n;
    return s;
  }
};

std::string blob_path(const std::string& dir, int rank) {
  return dir + "/rank_" + std::to_string(rank) + ".blob";
}

/// Obs state at fork time, captured in the child before running the body.
struct ObsBaseline {
  std::map<int, std::uint64_t> ring_seq;      ///< next seq per existing ring
  std::map<int, std::uint64_t> ring_dropped;
  std::vector<obs::MetricSample> metrics;
};

ObsBaseline capture_obs_baseline() {
  ObsBaseline base;
  if (obs::tracer().enabled()) {
    for (const auto& [rank, dropped] : obs::tracer().dropped_by_rank()) {
      base.ring_seq[rank] = obs::tracer().ring(rank)->peek_seq();
      base.ring_dropped[rank] = dropped;
    }
  }
  base.metrics = obs::registry().snapshot();
  return base;
}

/// Index of a string in the blob's string table, interning on first use.
std::uint32_t strtab_index(std::map<std::string, std::uint32_t>& table,
                           std::vector<std::string>& order, const char* s) {
  if (s == nullptr) return kNoString;
  auto it = table.find(s);
  if (it != table.end()) return it->second;
  const auto idx = static_cast<std::uint32_t>(order.size());
  table.emplace(s, idx);
  order.emplace_back(s);
  return idx;
}

void append_trace_section(std::string& b, const ObsBaseline& base) {
  if (!obs::tracer().enabled()) {
    put_u8(b, 0);
    return;
  }
  put_u8(b, 1);
  std::map<std::string, std::uint32_t> table;
  std::vector<std::string> order;
  std::uint32_t ring_count = 0;
  std::string rings;
  const auto dropped_now = obs::tracer().dropped_by_rank();
  for (const auto& [rank, evs] : obs::tracer().drain_all()) {
    std::uint64_t first_seq = 0;
    if (const auto it = base.ring_seq.find(rank); it != base.ring_seq.end()) {
      first_seq = it->second;
    }
    std::uint64_t dropped_delta = 0;
    if (const auto it = dropped_now.find(rank); it != dropped_now.end()) {
      dropped_delta = it->second;
      if (const auto bit = base.ring_dropped.find(rank);
          bit != base.ring_dropped.end()) {
        dropped_delta -= bit->second;
      }
    }
    std::uint64_t count = 0;
    std::string ring_events;
    for (const obs::TraceEvent& ev : evs) {
      if (ev.seq < first_seq) continue;  // inherited from the parent
      ++count;
      put_u32(ring_events, strtab_index(table, order, ev.name));
      put_u32(ring_events, strtab_index(table, order, ev.cat));
      put_u8(ring_events, static_cast<std::uint8_t>(ev.kind));
      put_u64(ring_events, ev.ts_us);
      put_u64(ring_events, ev.dur_us);
      put_u64(ring_events, ev.cpu_us);
      put_u32(ring_events, strtab_index(table, order, ev.arg0_name));
      put_u64(ring_events, ev.arg0);
      put_u32(ring_events, strtab_index(table, order, ev.arg1_name));
      put_u64(ring_events, ev.arg1);
      put_u32(ring_events, strtab_index(table, order, ev.arg2_name));
      put_u64(ring_events, ev.arg2);
      put_u32(ring_events, strtab_index(table, order, ev.phase));
    }
    if (count == 0 && dropped_delta == 0) continue;
    ++ring_count;
    put_u32(rings, static_cast<std::uint32_t>(rank));
    put_u64(rings, dropped_delta);
    put_u64(rings, count);
    rings += ring_events;
  }
  put_u32(b, static_cast<std::uint32_t>(order.size()));
  for (const auto& s : order) put_str(b, s);
  put_u32(b, ring_count);
  b += rings;
}

void append_metrics_section(std::string& b, const ObsBaseline& base) {
  std::map<std::tuple<std::string, std::string, int>, const obs::MetricSample*>
      base_by_key;
  for (const auto& s : base.metrics) {
    base_by_key[{s.key.name, s.key.phase, s.key.rank}] = &s;
  }
  const auto now = obs::registry().snapshot();
  std::uint32_t count = 0;
  std::string body;
  for (const auto& s : now) {
    const obs::MetricSample* prior = nullptr;
    if (const auto it = base_by_key.find({s.key.name, s.key.phase, s.key.rank});
        it != base_by_key.end()) {
      prior = it->second;
    }
    switch (s.kind) {
      case obs::MetricSample::Kind::kCounter: {
        const std::uint64_t delta =
            s.counter_value - (prior != nullptr ? prior->counter_value : 0);
        if (delta == 0) continue;
        put_u8(body, 0);
        put_str(body, s.key.name);
        put_u32(body, static_cast<std::uint32_t>(s.key.rank));
        put_str(body, s.key.phase);
        put_u64(body, delta);
        break;
      }
      case obs::MetricSample::Kind::kGauge: {
        if (prior != nullptr && prior->gauge_value == s.gauge_value) continue;
        put_u8(body, 1);
        put_str(body, s.key.name);
        put_u32(body, static_cast<std::uint32_t>(s.key.rank));
        put_str(body, s.key.phase);
        put_f64(body, s.gauge_value);
        break;
      }
      case obs::MetricSample::Kind::kHistogram: {
        std::map<int, std::uint64_t> deltas;
        for (const auto& [bucket, n] : s.buckets) deltas[bucket] = n;
        std::uint64_t sum_delta = s.hist_sum;
        if (prior != nullptr) {
          sum_delta -= prior->hist_sum;
          for (const auto& [bucket, n] : prior->buckets) deltas[bucket] -= n;
        }
        std::uint32_t nonzero = 0;
        for (const auto& [bucket, n] : deltas) {
          if (n != 0) ++nonzero;
        }
        if (nonzero == 0 && sum_delta == 0) continue;
        put_u8(body, 2);
        put_str(body, s.key.name);
        put_u32(body, static_cast<std::uint32_t>(s.key.rank));
        put_str(body, s.key.phase);
        put_u32(body, nonzero);
        for (const auto& [bucket, n] : deltas) {
          if (n == 0) continue;
          put_u32(body, static_cast<std::uint32_t>(bucket));
          put_u64(body, n);
        }
        put_u64(body, sum_delta);
        break;
      }
    }
    ++count;
  }
  put_u32(b, count);
  b += body;
}

/// Serialize and atomically publish (tmp + rename) rank's exit blob.
void write_exit_blob(const std::string& dir, int rank, const Comm& comm,
                     ExitKind kind, const std::string& error,
                     const ObsBaseline& base) {
  std::string b;
  put_u32(b, kBlobMagic);
  put_u32(b, kBlobVersion);
  put_u32(b, static_cast<std::uint32_t>(rank));
  put_u8(b, static_cast<std::uint8_t>(kind));
  put_str(b, error);
  put_u64(b, obs::tracer().epoch_ns());
  const RankLedger& l = const_cast<Comm&>(comm).ledger();
  put_u64(b, l.msgs_sent);
  put_u64(b, l.bytes_sent);
  put_u64(b, l.msgs_recv);
  put_u64(b, l.bytes_recv);
  put_f64(b, l.compute_seconds);
  put_f64(b, l.comm_seconds);
  put_u32(b, static_cast<std::uint32_t>(comm.stash().size()));
  for (const auto& [key, bytes] : comm.stash()) {
    put_u32(b, key);
    put_u64(b, bytes.size());
    b.append(reinterpret_cast<const char*>(bytes.data()), bytes.size());
  }
  append_trace_section(b, base);
  append_metrics_section(b, base);

  const std::string tmp = dir + "/rank_" + std::to_string(rank) + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out.write(b.data(), static_cast<std::streamsize>(b.size()));
    if (!out.good()) return;  // parent treats a missing blob as a dead rank
  }
  ::rename(tmp.c_str(), blob_path(dir, rank).c_str());
}

struct ChildError {
  ExitKind kind = ExitKind::kOk;
  std::string message;
};

/// Parse rank's exit blob (if present) into the run's merged cost, the
/// global tracer/registry, and the per-rank error slot. A missing or
/// corrupt blob means the rank died without unwinding (SIGKILL) — its
/// ledger and stash are simply lost, like a crashed machine's.
void merge_exit_blob(const std::string& dir, int rank, RunCost* cost,
                     ChildError* error) {
  std::string b;
  {
    std::ifstream in(blob_path(dir, rank), std::ios::binary);
    if (!in.is_open()) return;
    std::ostringstream data;
    data << in.rdbuf();
    b = std::move(data).str();
  }
  BlobReader r{b};
  if (r.u32() != kBlobMagic || r.u32() != kBlobVersion) return;
  if (static_cast<int>(r.u32()) != rank) return;
  error->kind = static_cast<ExitKind>(r.u8());
  error->message = r.str();
  const std::uint64_t child_epoch_ns = r.u64();

  RankLedger ledger;
  ledger.msgs_sent = r.u64();
  ledger.bytes_sent = r.u64();
  ledger.msgs_recv = r.u64();
  ledger.bytes_recv = r.u64();
  ledger.compute_seconds = r.f64();
  ledger.comm_seconds = r.f64();

  StashMap stash;
  const std::uint32_t stash_count = r.u32();
  for (std::uint32_t i = 0; r.ok && i < stash_count; ++i) {
    const std::uint32_t key = r.u32();
    const std::uint64_t len = r.u64();
    if (!r.ok || b.size() - r.off < len) {
      r.ok = false;
      break;
    }
    auto& slot = stash[key];
    slot.resize(static_cast<std::size_t>(len));
    r.take(slot.data(), static_cast<std::size_t>(len));
  }
  if (!r.ok) return;
  cost->per_rank[static_cast<std::size_t>(rank)] = ledger;
  cost->stash[static_cast<std::size_t>(rank)] = std::move(stash);

  // Trace events: align child timestamps onto the parent's epoch and
  // re-record into the parent's rings. Epochs are normally identical (the
  // child inherited the parent's), making the adjustment zero; the merge
  // still carries it so a divergent epoch cannot silently skew the
  // timeline. Strings are interned to restore TraceEvent's static-lifetime
  // contract.
  if (r.u8() != 0) {
    const std::uint32_t nstrings = r.u32();
    std::vector<const char*> strings;
    strings.reserve(nstrings);
    for (std::uint32_t i = 0; r.ok && i < nstrings; ++i) {
      strings.push_back(obs::intern_string(r.str()));
    }
    const auto str_at = [&strings](std::uint32_t idx) -> const char* {
      if (idx == kNoString) return nullptr;
      return idx < strings.size() ? strings[idx] : "";
    };
    const std::int64_t epoch_skew_us =
        (static_cast<std::int64_t>(child_epoch_ns) -
         static_cast<std::int64_t>(obs::tracer().epoch_ns())) /
        1000;
    const std::uint32_t nrings = r.u32();
    for (std::uint32_t i = 0; r.ok && i < nrings; ++i) {
      const int ring_rank = static_cast<int>(r.u32());
      const std::uint64_t dropped_delta = r.u64();
      const std::uint64_t nevents = r.u64();
      obs::RankRing* ring =
          obs::tracer().enabled() ? obs::tracer().ring(ring_rank) : nullptr;
      for (std::uint64_t e = 0; r.ok && e < nevents; ++e) {
        obs::TraceEvent ev;
        const char* name = str_at(r.u32());
        const char* cat = str_at(r.u32());
        ev.name = name != nullptr ? name : "";
        ev.cat = cat != nullptr ? cat : "";
        ev.kind = static_cast<obs::TraceEvent::Kind>(r.u8());
        ev.rank = ring_rank;
        const std::uint64_t ts = r.u64();
        ev.ts_us = static_cast<std::uint64_t>(
            std::max<std::int64_t>(0, static_cast<std::int64_t>(ts) +
                                          epoch_skew_us));
        ev.dur_us = r.u64();
        ev.cpu_us = r.u64();
        ev.arg0_name = str_at(r.u32());
        ev.arg0 = r.u64();
        ev.arg1_name = str_at(r.u32());
        ev.arg1 = r.u64();
        ev.arg2_name = str_at(r.u32());
        ev.arg2 = r.u64();
        const char* phase = str_at(r.u32());
        ev.phase = phase != nullptr ? phase : "";
        if (r.ok && ring != nullptr) ring->record(ev);
      }
      if (r.ok && ring != nullptr && dropped_delta != 0) {
        ring->add_dropped(dropped_delta);
      }
    }
  }

  // Metric deltas fold into the parent's registry.
  const std::uint32_t nmetrics = r.u32();
  auto& reg = obs::registry();
  for (std::uint32_t i = 0; r.ok && i < nmetrics; ++i) {
    const std::uint8_t kind = r.u8();
    const std::string name = r.str();
    const int mrank = static_cast<int>(r.u32());
    const std::string phase = r.str();
    if (kind == 0) {
      const std::uint64_t delta = r.u64();
      if (r.ok) reg.counter(name, mrank, phase).inc(delta);
    } else if (kind == 1) {
      const double value = r.f64();
      if (r.ok) reg.gauge(name, mrank, phase).set(value);
    } else if (kind == 2) {
      const std::uint32_t nbuckets = r.u32();
      obs::Histogram* h = r.ok ? &reg.histogram(name, mrank, phase) : nullptr;
      for (std::uint32_t j = 0; r.ok && j < nbuckets; ++j) {
        const int bucket = static_cast<int>(r.u32());
        const std::uint64_t n = r.u64();
        if (r.ok && h != nullptr && bucket >= 0 &&
            bucket < obs::Histogram::kNumBuckets) {
          h->merge_bucket(bucket, n);
        }
      }
      const std::uint64_t sum_delta = r.u64();
      if (r.ok && h != nullptr) h->merge_sum(sum_delta);
    } else {
      return;  // unknown record: stop parsing rather than misinterpret
    }
  }
}

/// Body of a forked rank process. Never returns.
[[noreturn]] void run_child(ProcTransport& tp, int rank,
                            const std::function<void(Comm&)>& body,
                            const std::string& blob_dir,
                            const CostParams& cost, const FaultPlan& faults) {
  util::set_log_rank(rank);
  const ObsBaseline base = capture_obs_baseline();
  Comm comm(tp, cost, faults, rank);
  ExitKind kind = ExitKind::kOk;
  std::string error;
  try {
    body(comm);
    tp.mark_done(rank);
  } catch (const KilledError& e) {
    // A *thrown* kill (user code simulating a crash without the transport's
    // real SIGKILL): unwind, mark dead, still ship the blob — matching the
    // thread transport, where a killed rank's ledger is still collected.
    kind = ExitKind::kKilled;
    error = e.what();
    tp.mark_dead(rank);
  } catch (const TimeoutError& e) {
    kind = ExitKind::kTimeout;
    error = e.what();
    tp.claim_first_error(rank);
    tp.abort_all();
  } catch (const AbortError& e) {
    kind = ExitKind::kAbort;
    error = e.what();
    tp.claim_first_error(rank);
    tp.abort_all();
  } catch (const std::exception& e) {
    kind = ExitKind::kError;
    error = e.what();
    tp.claim_first_error(rank);
    tp.abort_all();
  } catch (...) {
    kind = ExitKind::kError;
    error = "unknown exception";
    tp.claim_first_error(rank);
    tp.abort_all();
  }
  write_exit_blob(blob_dir, rank, comm, kind, error, base);
  std::fflush(nullptr);
  // _exit, not exit: atexit handlers and static destructors belong to the
  // parent's image and must not run (twice) in the child.
  switch (kind) {
    case ExitKind::kOk:
      ::_exit(0);
    case ExitKind::kKilled:
      ::_exit(4);
    case ExitKind::kAbort:
      ::_exit(3);
    default:
      ::_exit(2);
  }
}

}  // namespace

RunCost Runtime::run_proc(const std::function<void(Comm&)>& body) {
  const int p = num_ranks_;
  const bool traced = obs::tracer().enabled();

  // Open the driver "join" span before forking: its ring() call pins the
  // trace epoch, which the children then inherit — the property the
  // post-run timestamp merge relies on.
  detail::WaitScope join_sp(
      traced ? obs::tracer().ring(obs::kDriverTid) : nullptr,
      traced ? &obs::registry().histogram("comm.wait_us", obs::kDriverTid,
                                          obs::current_phase())
             : nullptr,
      obs::kDriverTid, "join");
  join_sp.arg("ranks", static_cast<std::uint64_t>(p));

  char dir_template[] = "/tmp/pgasm-proc-XXXXXX";
  if (::mkdtemp(dir_template) == nullptr) {
    throw std::runtime_error("proc transport: mkdtemp failed");
  }
  const std::string blob_dir = dir_template;
  const auto cleanup_dir = [&blob_dir, p] {
    for (int r = 1; r < p; ++r) {
      ::unlink(blob_path(blob_dir, r).c_str());
      ::unlink((blob_dir + "/rank_" + std::to_string(r) + ".tmp").c_str());
    }
    ::rmdir(blob_dir.c_str());
  };

  ProcTransport tp(p, proc_ring_bytes_);

  // Flush stdio before forking: with stdout piped (fully buffered), any
  // pending output would be duplicated into every child and flushed again
  // when the child exits.
  std::fflush(nullptr);

  std::vector<pid_t> pids(static_cast<std::size_t>(p), -1);
  for (int r = 1; r < p; ++r) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      for (int k = 1; k < r; ++k) ::kill(pids[static_cast<std::size_t>(k)], SIGKILL);
      for (int k = 1; k < r; ++k) {
        int status = 0;
        ::waitpid(pids[static_cast<std::size_t>(k)], &status, 0);
      }
      cleanup_dir();
      throw std::runtime_error("proc transport: fork failed: " +
                               std::string(std::strerror(errno)));
    }
    if (pid == 0) {
      run_child(tp, r, body, blob_dir, cost_, faults_);  // never returns
    }
    pids[static_cast<std::size_t>(r)] = pid;
  }

  // Reaper: publishes silent child deaths (real SIGKILLs from crash_self,
  // or any exit that isn't one of ours) through the shared dead flags, so
  // survivors unblock the same way the thread transport's mark_dead wakes
  // its waiters.
  const FaultPlan& faults = faults_;
  std::thread reaper([&tp, &pids, &faults, p] {
    int remaining = p - 1;
    while (remaining > 0) {
      int status = 0;
      const pid_t pid = ::waitpid(-1, &status, 0);
      if (pid < 0) break;  // ECHILD: nothing left to reap
      int rank = -1;
      for (int r = 1; r < p; ++r) {
        if (pids[static_cast<std::size_t>(r)] == pid) {
          rank = r;
          break;
        }
      }
      if (rank < 0) continue;
      --remaining;
      const bool clean = WIFEXITED(status) &&
                         (WEXITSTATUS(status) == 0 || WEXITSTATUS(status) == 2 ||
                          WEXITSTATUS(status) == 3 || WEXITSTATUS(status) == 4);
      if (!clean) {
        tp.mark_dead(rank);
        // A SIGKILLed child takes its trace ring with it, so its
        // "fault_crash" instant (runtime.cpp emits it right before
        // crash_self) is lost with the address space. The parent knows the
        // plan, and the reap observes the kill — synthesize the instant
        // here, at reap time, so the merged trace tells the same recovery
        // story as the thread transport's. Only for planned crashes: an
        // unexplained death stays unexplained in the trace too.
        if (WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL) {
          for (const auto& c : faults.crashes) {
            if (c.rank == rank) {
              obs::instant(rank, "fault_crash", "vmpi", "at_send", c.at_send);
              break;
            }
          }
        }
      }
    }
  });

  // Rank 0 runs on this thread: driver code reads state the rank 0 body
  // mutates (master scheduler results, checkpoint handles), which only
  // works if rank 0 shares the driver's address space.
  const int prior_log_rank = util::log_rank();
  util::set_log_rank(0);
  Comm comm0(tp, cost_, faults_, 0);
  std::exception_ptr rank0_error;
  try {
    body(comm0);
    tp.mark_done(0);
  } catch (const KilledError&) {
    tp.mark_dead(0);
  } catch (...) {
    rank0_error = std::current_exception();
    tp.claim_first_error(0);
    tp.abort_all();
  }
  util::set_log_rank(prior_log_rank);

  reaper.join();
  join_sp.finish();

  RunCost cost;
  cost.per_rank.resize(static_cast<std::size_t>(p));
  cost.stash.resize(static_cast<std::size_t>(p));
  cost.per_rank[0] = comm0.ledger();
  cost.stash[0] = std::move(comm0.stash_);

  std::vector<ChildError> errors(static_cast<std::size_t>(p));
  for (int r = 1; r < p; ++r) {
    merge_exit_blob(blob_dir, r, &cost, &errors[static_cast<std::size_t>(r)]);
  }
  cost.faults = tp.counters().snapshot();
  publish_cost(cost);
  cleanup_dir();

  const int fer = tp.first_error_rank();
  if (fer == 0 && rank0_error != nullptr) {
    try {
      std::rethrow_exception(rank0_error);
    } catch (const AbortError&) {
      throw std::runtime_error("vmpi run aborted");
    }
  }
  if (fer >= 0) {
    const ChildError& err = errors[static_cast<std::size_t>(fer)];
    switch (err.kind) {
      case ExitKind::kTimeout:
        throw TimeoutError(err.message);
      case ExitKind::kError:
        throw std::runtime_error(err.message);
      default:
        // Abort (secondary casualty reported first), or the blob is gone.
        throw std::runtime_error("vmpi run aborted");
    }
  }
  return cost;
}

}  // namespace pgasm::vmpi
