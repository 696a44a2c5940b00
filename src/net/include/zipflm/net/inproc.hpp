// In-process transport backend: N endpoints in one address space, the
// transport under CommWorld's default (SharedMem) backend.
//
// Each directed peer pair has a lane: a FIFO of messages, created on
// first use.  A small message is eager — copied into the lane's bounded
// byte ring, so its send completes at post.  A large one (or a small one
// that finds the ring full) is a rendezvous: the receiver copies it
// straight out of the posted send buffer — or, through recv_in_place,
// reduces it there without any copy — and the send completes once the
// receiver is done with it.  A waiter polls (then polls between
// yields) for up to 50 µs, then sleeps on its endpoint's doorbell, so
// the transport timeout still fires.
//
// Closing an endpoint closes every lane that touches it: peers may still
// drain messages queued before the close, after which their operations
// fail with PeerClosedError — the same drain-then-fail order a real
// socket gives after the remote end disappears.
#pragma once

#include <memory>

#include "zipflm/net/transport.hpp"

namespace zipflm::net {

class InProcHub {
 public:
  explicit InProcHub(int world_size);

  int world_size() const noexcept;

  /// Create the endpoint for `rank`.  Each rank's endpoint is created
  /// once and then owned (and driven) by that rank's thread.
  std::unique_ptr<Transport> endpoint(int rank);

  struct State;  // lanes and doorbells; public so endpoints can hold it

 private:
  std::shared_ptr<State> state_;
};

}  // namespace zipflm::net
