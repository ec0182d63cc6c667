#include "vmpi/thread_transport.hpp"

namespace pgasm::vmpi {

ThreadTransport::ThreadTransport(int num_ranks)
    : num_ranks_(num_ranks),
      boxes_(static_cast<std::size_t>(num_ranks)),
      dead_(static_cast<std::size_t>(num_ranks)),
      done_(static_cast<std::size_t>(num_ranks)) {}

// Memory-order notes (every site names its order explicitly — W014): the
// liveness flags (aborted_/dead_/done_) are release-stored by the marking
// thread and acquire-loaded by peers so everything written before the mark
// (e.g. a finishing rank's last sends) is visible to anyone who observed
// it. The `consumed` rendezvous flag is release/acquire for the same
// reason. All flag re-checks inside cv wait predicates run under the
// mailbox mutex, which already orders them; the explicit orders make the
// lock-free readers (is_dead/is_done/is_aborted) correct on their own.
void ThreadTransport::abort_all() {
  aborted_.store(true, std::memory_order_release);
  // Notify under each mailbox mutex: a receiver that checked the flag and
  // is about to sleep holds the mutex until its wait releases it, so the
  // notify cannot land in the gap between its check and its sleep.
  for (auto& box : boxes_) {
    util::MutexLock lock(box.mu);
    box.cv.notify_all();
  }
}

void ThreadTransport::mark_dead(int r) {
  dead_[static_cast<std::size_t>(r)].store(true, std::memory_order_release);
  counters_.ranks_failed.fetch_add(1, std::memory_order_relaxed);
  {
    // Complete any synchronous sends rendezvoused on the dead rank's
    // mailbox, drop its queued messages, and wake every waiter so blocked
    // peers can re-evaluate (fail fast or time out).
    auto& box = boxes_[static_cast<std::size_t>(r)];
    util::MutexLock lock(box.mu);
    for (auto& m : box.queue) {
      if (m.consumed) m.consumed->store(true, std::memory_order_release);
    }
    box.queue.clear();
  }
  for (auto& box : boxes_) {
    util::MutexLock lock(box.mu);
    box.cv.notify_all();
  }
}

void ThreadTransport::mark_done(int r) {
  // Like mark_dead, pending synchronous sends rendezvoused on the finished
  // rank's mailbox are completed and every waiter is woken — a peer blocked
  // in an ssend to a rank that has already returned (e.g. a terminated
  // worker's keepalive report to a master that finished) would otherwise hang
  // the join forever — but the rank is not counted as failed and
  // rank_failed() stays false for it.
  done_[static_cast<std::size_t>(r)].store(true, std::memory_order_release);
  {
    auto& box = boxes_[static_cast<std::size_t>(r)];
    util::MutexLock lock(box.mu);
    for (auto& m : box.queue) {
      if (m.consumed) m.consumed->store(true, std::memory_order_release);
    }
    box.queue.clear();
  }
  for (auto& box : boxes_) {
    util::MutexLock lock(box.mu);
    box.cv.notify_all();
  }
}

void ThreadTransport::deliver(int self, int dest, detail::Message&& msg,
                              bool sync) {
  (void)self;
  // pgasm-lint: allow(raw-atomic): the ssend rendezvous flag declared in
  // transport.hpp (detail::Message::consumed); allocated at the send site
  std::shared_ptr<std::atomic<bool>> consumed;
  if (sync) {
    consumed = std::make_shared<std::atomic<bool>>(false);
    msg.consumed = consumed;
  }
  auto& box = boxes_[static_cast<std::size_t>(dest)];
  util::MutexLock lock(box.mu);
  box.queue.push_back(std::move(msg));
  box.cv.notify_all();
  if (sync) {
    // Rendezvous on the destination mailbox cv. The predicate re-checks
    // abort and destination death/completion on every wake, so a receiver
    // that never consumes cannot strand the sender (the old promise/future
    // rendezvous deadlocked here).
    const std::size_t d = static_cast<std::size_t>(dest);
    box.cv.wait(box.mu, [&] {
      return consumed->load(std::memory_order_acquire) ||
             aborted_.load(std::memory_order_acquire) ||
             dead_[d].load(std::memory_order_acquire) ||
             done_[d].load(std::memory_order_acquire);
    });
    if (!consumed->load(std::memory_order_acquire)) {
      if (dead_[d].load(std::memory_order_acquire)) {
        counters_.sends_to_dead.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      if (done_[d].load(std::memory_order_acquire)) return;
      throw AbortError("vmpi aborted during ssend");
    }
  }
}

Transport::Wait ThreadTransport::recv(
    int self, int source, std::int64_t tag, bool internal,
    const std::chrono::steady_clock::time_point* deadline,
    detail::Message* out) {
  auto& box = boxes_[static_cast<std::size_t>(self)];
  util::MutexLock lock(box.mu);
  for (;;) {
    // Both the abort flag and the dead flags are re-checked under the
    // mailbox mutex before every sleep; abort_all/mark_dead notify under
    // the same mutex, so no wake can be lost.
    if (aborted_.load(std::memory_order_acquire))
      throw AbortError("vmpi aborted");
    for (auto it = box.queue.begin(); it != box.queue.end(); ++it) {
      if (!detail::matches(*it, source, tag, internal)) continue;
      *out = std::move(*it);
      box.queue.erase(it);
      if (out->consumed) {
        out->consumed->store(true, std::memory_order_release);
        box.cv.notify_all();  // wake the rendezvoused synchronous sender
      }
      return Wait::kMessage;
    }
    // No match queued. A specific failed or finished source can never
    // deliver: fail fast instead of blocking until the deadline (forever).
    if (source != kAnySource && source != self &&
        (dead_[static_cast<std::size_t>(source)].load(
             std::memory_order_acquire) ||
         done_[static_cast<std::size_t>(source)].load(
             std::memory_order_acquire))) {
      return Wait::kPeerGone;
    }
    if (deadline) {
      if (std::chrono::steady_clock::now() >= *deadline) return Wait::kTimeout;
      box.cv.wait_until(box.mu, *deadline);
    } else {
      box.cv.wait(box.mu);
    }
  }
}

Transport::Wait ThreadTransport::probe(
    int self, int source, std::int64_t tag,
    const std::chrono::steady_clock::time_point* deadline, ProbeResult* out) {
  auto& box = boxes_[static_cast<std::size_t>(self)];
  util::MutexLock lock(box.mu);
  for (;;) {
    if (aborted_.load(std::memory_order_acquire))
      throw AbortError("vmpi aborted");
    for (const auto& m : box.queue) {
      if (detail::matches(m, source, tag, /*internal=*/false)) {
        out->source = m.source;
        out->tag = m.tag;
        out->bytes = m.payload.size();
        out->send_idx = m.send_idx;
        return Wait::kMessage;
      }
    }
    if (source != kAnySource && source != self &&
        (dead_[static_cast<std::size_t>(source)].load(
             std::memory_order_acquire) ||
         done_[static_cast<std::size_t>(source)].load(
             std::memory_order_acquire))) {
      return Wait::kPeerGone;
    }
    if (deadline) {
      if (std::chrono::steady_clock::now() >= *deadline) return Wait::kTimeout;
      box.cv.wait_until(box.mu, *deadline);
    } else {
      box.cv.wait(box.mu);
    }
  }
}

bool ThreadTransport::iprobe(int self, int source, std::int64_t tag,
                             ProbeResult* out) {
  auto& box = boxes_[static_cast<std::size_t>(self)];
  util::MutexLock lock(box.mu);
  if (aborted_.load(std::memory_order_acquire))
    throw AbortError("vmpi aborted");
  for (const auto& m : box.queue) {
    if (detail::matches(m, source, tag, /*internal=*/false)) {
      if (out != nullptr) {
        out->source = m.source;
        out->tag = m.tag;
        out->bytes = m.payload.size();
        out->send_idx = m.send_idx;
      }
      return true;
    }
  }
  return false;
}

void ThreadTransport::crash_self(int self, const std::string& why) {
  (void)self;
  throw KilledError(why);
}

void ThreadTransport::reset() {
  aborted_.store(false, std::memory_order_release);
  for (auto& d : dead_) d.store(false, std::memory_order_release);
  for (auto& d : done_) d.store(false, std::memory_order_release);
  counters_.reset();
  for (auto& box : boxes_) {
    util::MutexLock lock(box.mu);
    box.queue.clear();
  }
}

}  // namespace pgasm::vmpi
