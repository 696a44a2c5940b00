#include "zipflm/net/inproc.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace zipflm::net {
namespace {

using Clock = std::chrono::steady_clock;

/// Messages up to kEagerMaxBytes are copied into the lane's byte ring
/// while it has room; everything else rendezvous.  A 4 KiB allreduce at
/// G = 4 moves 1 KiB chunks, so every small collective stays eager.
constexpr std::size_t kEagerMaxBytes = std::size_t{16} << 10;
constexpr std::size_t kEagerRingBytes = std::size_t{64} << 10;
/// A waiter polls between sched_yield()s for up to kPoll, then sleeps.
/// A ring neighbour usually answers within it, so the waiter skips a
/// futex wake-up (tens of µs on a virtualized host); yielding rather
/// than spinning hands the core to any runnable gemm thread.
constexpr auto kPoll = std::chrono::microseconds(50);

enum class RdvState : std::uint8_t { Queued, Claimed, Done, Retracted };

struct Lane;

/// A rendezvous send: the bytes stay in the caller's buffer until the
/// receiver has copied them.  Queued -> Claimed happens under the lane
/// mutex; Claimed -> Done is the receiver's release store after its
/// copy, read by the sender with acquire.
struct RdvSend : Completion::Op {
  std::shared_ptr<InProcHub::State> hub;  ///< keeps `lane` alive
  Lane* lane = nullptr;
  const std::byte* src = nullptr;
  std::atomic<RdvState> rdv{RdvState::Queued};
};

struct Entry {
  std::size_t size = 0;
  RdvSend* rdv = nullptr;  ///< nullptr: the bytes sit in the eager ring
};

/// One directed lane, from -> to.  The mutex guards the queue and the
/// ring; every critical section is a push, a pop or an eager copy.
struct Lane {
  std::mutex mutex;
  std::deque<Entry> queue;
  std::unique_ptr<std::byte[]> ring;  ///< allocated by the first eager send
  std::size_t head = 0;               ///< oldest queued eager byte
  std::size_t used = 0;

  /// Queue `data` as an eager message; false when the ring is full.
  bool push_eager(std::span<const std::byte> data) {
    if (used + data.size() > kEagerRingBytes) return false;
    if (ring == nullptr) {
      ring = std::make_unique_for_overwrite<std::byte[]>(kEagerRingBytes);
    }
    const std::size_t tail = (head + used) % kEagerRingBytes;
    const std::size_t first = std::min(data.size(), kEagerRingBytes - tail);
    std::memcpy(ring.get() + tail, data.data(), first);
    std::memcpy(ring.get(), data.data() + first, data.size() - first);
    used += data.size();
    queue.push_back({data.size(), nullptr});
    return true;
  }

  /// Copy the front eager message (already popped from the queue) out.
  void pop_eager(std::byte* out, std::size_t n) {
    const std::size_t first = std::min(n, kEagerRingBytes - head);
    std::memcpy(out, ring.get() + head, first);
    std::memcpy(out + first, ring.get(), n - first);
    head = (head + n) % kEagerRingBytes;
    used -= n;
  }
};

/// Per-endpoint wake-up.  Every event another thread causes for the
/// endpoint — a message on an inbound lane, one of its rendezvous sends
/// copied, a peer closing — bumps seq and wakes a sleeper, if any.
struct alignas(64) Doorbell {
  std::atomic<std::uint32_t> seq{0};
  std::atomic<int> sleepers{0};
  std::mutex mutex;
  std::condition_variable cv;

  void ring() {
    // seq_cst on both sides: either the sleeper sees the new seq before
    // it sleeps, or this sees the sleeper and notifies under the mutex
    // the sleeper holds until it is parked.
    seq.fetch_add(1);
    if (sleepers.load() > 0) {
      std::lock_guard lock(mutex);
      cv.notify_all();
    }
  }

  /// Wait until seq moves past `seen`; false once `deadline` passes
  /// first (never, when it is Clock::time_point::max()).
  bool wait(std::uint32_t seen, Clock::time_point deadline) {
    const auto poll_end = std::min(deadline, Clock::now() + kPoll);
    while (Clock::now() < poll_end) {
      if (seq.load(std::memory_order_acquire) != seen) return true;
      std::this_thread::yield();
    }
    std::unique_lock lock(mutex);
    sleepers.fetch_add(1);
    const auto moved = [&] { return seq.load() != seen; };
    bool ok = true;
    if (deadline != Clock::time_point::max()) {
      ok = cv.wait_until(lock, deadline, moved);
    } else {
      cv.wait(lock, moved);
    }
    sleepers.fetch_sub(1);
    return ok;
  }
};

}  // namespace

struct InProcHub::State {
  explicit State(int world)
      : world(world),
        lanes(static_cast<std::size_t>(world) * static_cast<std::size_t>(world)),
        bells(static_cast<std::size_t>(world)),
        closed(static_cast<std::size_t>(world)) {}

  ~State() {
    for (auto& lane : lanes) delete lane.load(std::memory_order_relaxed);
  }

  /// The lane from -> to, created on first use: a G = 64 world has
  /// 4,032 directed pairs, and a ring touches only 2G of them.
  Lane& lane(int from, int to) {
    auto& slot = lanes[static_cast<std::size_t>(from) *
                           static_cast<std::size_t>(world) +
                       static_cast<std::size_t>(to)];
    if (Lane* lane = slot.load(std::memory_order_acquire)) return *lane;
    std::lock_guard lock(create_mutex);
    Lane* lane = slot.load(std::memory_order_relaxed);
    if (lane == nullptr) {
      lane = new Lane;
      slot.store(lane, std::memory_order_release);
    }
    return *lane;
  }

  Doorbell& bell(int rank) { return bells[static_cast<std::size_t>(rank)]; }

  bool lane_closed(int from, int to) const {
    return closed[static_cast<std::size_t>(from)].load() ||
           closed[static_cast<std::size_t>(to)].load();
  }

  const int world;
  std::mutex create_mutex;
  std::vector<std::atomic<Lane*>> lanes;
  std::vector<Doorbell> bells;
  std::vector<std::atomic<bool>> closed;  ///< per endpoint
};

namespace {

void fail(Completion::Op& op, std::exception_ptr error) {
  op.state = Completion::Op::State::Failed;
  op.error = std::move(error);
}

void complete(Completion::Op& op) {
  op.transferred = op.size;
  op.state = Completion::Op::State::Done;
}

/// Withdraw a rendezvous send the receiver has not taken.  If the
/// receiver is mid-copy, wait for the copy: the caller is about to
/// reuse or free the bytes.  Returns true when the message was
/// delivered after all.
bool retract(RdvSend& send) {
  {
    std::lock_guard lock(send.lane->mutex);
    const RdvState state = send.rdv.load(std::memory_order_acquire);
    if (state == RdvState::Queued) {
      auto& q = send.lane->queue;
      q.erase(std::find_if(q.begin(), q.end(),
                           [&](const Entry& e) { return e.rdv == &send; }));
      send.rdv.store(RdvState::Retracted, std::memory_order_relaxed);
      return false;
    }
    if (state != RdvState::Claimed) return state == RdvState::Done;
  }
  while (send.rdv.load(std::memory_order_acquire) != RdvState::Done) {
    std::this_thread::yield();
  }
  return true;
}

class InProcEndpoint final : public Transport {
 public:
  InProcEndpoint(std::shared_ptr<InProcHub::State> state, int rank)
      : state_(std::move(state)), rank_(rank) {}

  ~InProcEndpoint() override { close(); }

  int rank() const noexcept override { return rank_; }
  int world_size() const noexcept override { return state_->world; }
  const char* kind() const noexcept override { return "inproc"; }

  void close() override {
    if (state_->closed[static_cast<std::size_t>(rank_)].exchange(true)) return;
    for (int peer = 0; peer < state_->world; ++peer) {
      state_->bell(peer).ring();
    }
  }

 protected:
  std::shared_ptr<Completion::Op> post_send(
      int peer, std::span<const std::byte> data) override {
    Lane& lane = state_->lane(rank_, peer);
    std::shared_ptr<Completion::Op> op;
    {
      std::lock_guard lock(lane.mutex);
      if (state_->lane_closed(rank_, peer)) {
        op = std::make_shared<Completion::Op>();
        fail(*op, closed_error("send to", peer));
      } else if (data.size() <= kEagerMaxBytes && lane.push_eager(data)) {
        op = std::make_shared<Completion::Op>();
        op->state = Completion::Op::State::Done;
      } else {
        auto* send = new RdvSend;
        send->hub = state_;
        send->lane = &lane;
        send->src = data.data();
        // A caller that drops a pending send (an exception unwinding
        // past it) takes the message back before the bytes die.
        op = std::shared_ptr<Completion::Op>(send, [](Completion::Op* p) {
          auto* s = static_cast<RdvSend*>(p);
          retract(*s);
          delete s;
        });
        lane.queue.push_back({data.size(), send});
        pending_sends_.push_back(op);
      }
    }
    op->is_send = true;
    op->peer = peer;
    op->size = data.size();
    if (op->state == Completion::Op::State::Failed) return op;
    if (op->done()) op->transferred = data.size();
    state_->bell(peer).ring();
    stats_.wire_bytes_sent += data.size();
    return op;
  }

  std::shared_ptr<Completion::Op> post_recv(
      int peer, std::span<std::byte> into) override {
    auto op = std::make_shared<Completion::Op>();
    op->is_send = false;
    op->peer = peer;
    op->data = into.data();
    op->size = into.size();
    if (!recv_pending_from(peer, pending_recvs_.size())) {
      try_complete_recv(*op);
    }
    if (!op->done()) pending_recvs_.push_back({op, peer});
    return op;
  }

  void progress(double max_wait_seconds) override {
    Doorbell& bell = state_->bell(rank_);
    const std::uint32_t seen = bell.seq.load(std::memory_order_acquire);
    if (sweep() || max_wait_seconds <= 0.0 ||
        (pending_recvs_.empty() && pending_sends_.empty())) {
      return;
    }
    bell.wait(seen, Clock::now() + to_duration(max_wait_seconds));
    sweep();
  }

  void progress_until(Completion::Op& op) override {
    if (drive([&] { return op.done(); })) return;
    if (op.is_send && retract(static_cast<RdvSend&>(op))) {
      complete(op);
      return;
    }
    fail(op, std::make_exception_ptr(timeout_error(
                 op.is_send ? "send to" : "recv from", op.peer)));
  }

  void recv_in_place(int peer, std::span<std::byte> scratch,
                     const BytesFn& use) override {
    if (recv_pending_from(peer, pending_recvs_.size()) || scratch.empty()) {
      Transport::recv_in_place(peer, scratch, use);
      return;
    }
    check_peer(peer);
    stats_.recv_ops += 1;
    const auto start = Clock::now();
    if (!drive([&] { return take(peer, scratch, use); })) {
      throw timeout_error("recv from", peer);
    }
    stats_.recv_wait_seconds +=
        std::chrono::duration<double>(Clock::now() - start).count();
  }

 private:
  struct PendingRecv {
    std::weak_ptr<Completion::Op> op;
    int peer;
  };

  static Clock::duration to_duration(double seconds) {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(seconds));
  }

  static std::exception_ptr closed_error(const char* what, int peer) {
    return std::make_exception_ptr(PeerClosedError(
        std::string(what) + " rank " + std::to_string(peer) +
        ": channel closed"));
  }

  TransportTimeoutError timeout_error(const char* what, int peer) const {
    return TransportTimeoutError(std::string(what) + " rank " +
                                 std::to_string(peer) + " timed out after " +
                                 std::to_string(timeout_seconds()) + "s");
  }

  /// Make progress until `done()` holds; false once the timeout passes
  /// first.
  template <typename Done>
  bool drive(Done done) {
    const auto deadline = timeout_seconds() > 0.0
                              ? Clock::now() + to_duration(timeout_seconds())
                              : Clock::time_point::max();
    Doorbell& bell = state_->bell(rank_);
    for (;;) {
      // Read the doorbell before looking: an event after this read
      // moves seq, so the wait below cannot sleep through it.
      const std::uint32_t seen = bell.seq.load(std::memory_order_acquire);
      sweep();
      if (done()) return true;
      if (!bell.wait(seen, deadline)) {
        sweep();
        return done();
      }
    }
  }

  /// Receives from one peer match its messages in post order: is one of
  /// the first `n` pending recvs waiting on `peer`?
  bool recv_pending_from(int peer, std::size_t n) const {
    return std::any_of(
        pending_recvs_.begin(),
        pending_recvs_.begin() + static_cast<std::ptrdiff_t>(n),
        [&](const PendingRecv& p) { return p.peer == peer; });
  }

  /// Complete whatever pending operations can complete; drop resolved
  /// and abandoned ones.  Returns true when at least one completed.
  bool sweep() {
    bool progressed = false;
    std::size_t keep = 0;
    for (std::size_t i = 0; i < pending_recvs_.size(); ++i) {
      const auto op = pending_recvs_[i].op.lock();
      // Abandoned by its caller, or failed by a timeout.
      if (op == nullptr || op->done()) continue;
      if (!recv_pending_from(pending_recvs_[i].peer, keep) &&
          try_complete_recv(*op)) {
        progressed = true;
        continue;
      }
      if (keep != i) pending_recvs_[keep] = std::move(pending_recvs_[i]);
      ++keep;
    }
    pending_recvs_.resize(keep);

    keep = 0;
    for (std::size_t i = 0; i < pending_sends_.size(); ++i) {
      const auto op = pending_sends_[i].lock();
      if (op == nullptr || op->done()) continue;
      if (poll_send(static_cast<RdvSend&>(*op))) {
        progressed = true;
        continue;
      }
      if (keep != i) pending_sends_[keep] = std::move(pending_sends_[i]);
      ++keep;
    }
    pending_sends_.resize(keep);
    return progressed;
  }

  /// Resolve a rendezvous send once its receiver copied it or the lane
  /// closed.  Returns true when the send resolved.
  bool poll_send(RdvSend& send) {
    if (send.rdv.load(std::memory_order_acquire) == RdvState::Done) {
      complete(send);
      return true;
    }
    if (!state_->lane_closed(rank_, send.peer)) return false;
    if (retract(send)) {
      complete(send);
    } else {
      fail(send, closed_error("send to", send.peer));
    }
    return true;
  }

  /// Take the front message of the lane from `peer`, if one is queued,
  /// and hand its bytes to `use`: in place for a rendezvous, through
  /// `scratch` for an eager message.  Returns false while the lane is
  /// empty; throws PeerClosedError once it is empty and closed, and
  /// ProtocolError when the message is not scratch.size() bytes.
  bool take(int peer, std::span<std::byte> scratch, const BytesFn& use) {
    Lane& lane = state_->lane(peer, rank_);
    RdvSend* send = nullptr;
    {
      std::lock_guard lock(lane.mutex);
      if (lane.queue.empty()) {
        // Drained and closed: the peer is gone for good.
        if (!state_->lane_closed(peer, rank_)) return false;
        std::rethrow_exception(closed_error("recv from", peer));
      }
      const Entry front = lane.queue.front();
      if (front.size != scratch.size()) {
        throw ProtocolError("recv from rank " + std::to_string(peer) +
                            " posted " + std::to_string(scratch.size()) +
                            " bytes but message holds " +
                            std::to_string(front.size));
      }
      lane.queue.pop_front();
      if (front.rdv == nullptr) {
        lane.pop_eager(scratch.data(), front.size);
      } else {
        send = front.rdv;
        send->rdv.store(RdvState::Claimed, std::memory_order_relaxed);
      }
    }
    if (send == nullptr) {
      use(scratch);
    } else {
      // Outside the lane lock.  Once Done is stored the sender may free
      // `send`; only the hub's doorbell is touched after.
      use({send->src, scratch.size()});
      send->rdv.store(RdvState::Done, std::memory_order_release);
      state_->bell(peer).ring();
    }
    stats_.wire_bytes_received += scratch.size();
    return true;
  }

  /// Match the recv against the front of its lane.  Returns true when
  /// the recv resolved (delivered, or failed).
  bool try_complete_recv(Completion::Op& op) {
    try {
      const bool taken =
          take(op.peer, {op.data, op.size},
               [&](std::span<const std::byte> bytes) {
                 // The single copy of a rendezvous; eager bytes are
                 // already in place.
                 if (bytes.data() != op.data) {
                   std::memcpy(op.data, bytes.data(), bytes.size());
                 }
               });
      if (!taken) return false;
      complete(op);
    } catch (const TransportError&) {
      fail(op, std::current_exception());
    }
    return true;
  }

  std::shared_ptr<InProcHub::State> state_;
  const int rank_;
  /// Recvs posted before their message existed, in post order.
  /// weak_ptr: a caller abandoning its Completion must not pin the op.
  std::vector<PendingRecv> pending_recvs_;
  /// Rendezvous sends not yet copied by their receiver.
  std::vector<std::weak_ptr<Completion::Op>> pending_sends_;
};

}  // namespace

InProcHub::InProcHub(int world_size) {
  ZIPFLM_CHECK(world_size >= 1, "InProcHub needs at least one rank");
  state_ = std::make_shared<State>(world_size);
}

int InProcHub::world_size() const noexcept { return state_->world; }

std::unique_ptr<Transport> InProcHub::endpoint(int rank) {
  ZIPFLM_CHECK(rank >= 0 && rank < state_->world,
               "endpoint rank out of range");
  return std::make_unique<InProcEndpoint>(state_, rank);
}

}  // namespace zipflm::net
