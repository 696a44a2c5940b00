#include "zipflm/serve/socket_frontend.hpp"

#include <map>
#include <span>
#include <string>
#include <utility>

#include "zipflm/obs/metrics.hpp"
#include "zipflm/support/error.hpp"

namespace zipflm::serve {
namespace {

/// Event-loop slice: long enough that an idle loop costs no CPU to
/// speak of, short enough that a response pushed by a shard thread
/// reaches the wire within a millisecond.
constexpr double kProgressSliceSeconds = 500e-6;

}  // namespace

SocketFrontend::SocketFrontend(net::Transport& transport,
                               ShardedServer& server)
    : transport_(transport), server_(server) {
  for (int rank = 0; rank < transport_.world_size(); ++rank) {
    if (rank == transport_.rank()) continue;
    peers_.emplace(rank, Peer{});
  }
}

void SocketFrontend::run() {
  while (!drained()) {
    for (auto& [rank, peer] : peers_) {
      pump_recv(rank, peer);
      reap_sends(peer);
      collect_responses(rank, peer);
    }
    transport_.progress(kProgressSliceSeconds);
  }
}

bool SocketFrontend::drained() const {
  for (const auto& [rank, peer] : peers_) {
    if (!peer.gone || !peer.sends.empty() || !peer.outstanding.empty()) {
      return false;
    }
  }
  return true;
}

void SocketFrontend::pump_recv(int rank, Peer& peer) {
  if (peer.gone) return;
  // Keep exactly one recv posted per peer, alternating length prefix
  // and payload; handle every frame that has fully arrived.
  while (true) {
    if (!peer.pending_recv.valid()) {
      if (peer.reading_body) {
        peer.pending_recv = transport_.recv(
            rank, std::span(peer.body.data(), peer.body.size()));
      } else {
        peer.pending_recv = transport_.recv(
            rank, std::span(reinterpret_cast<std::byte*>(&peer.header),
                            sizeof(peer.header)));
      }
    }
    if (!peer.pending_recv.done()) return;
    try {
      peer.pending_recv.wait();  // non-blocking once done; rethrows failure
    } catch (const net::TransportError&) {
      // Peer died mid-stream: stop reading it.  Its admitted requests
      // still drain through the server; collect_responses() discards
      // the replies.
      peer.gone = true;
      drop_sends(peer);
      peer.pending_recv = net::Completion();
      return;
    }
    peer.pending_recv = net::Completion();
    if (!peer.reading_body) {
      if (peer.header == 0 || peer.header > wire::kMaxFrameBytes) {
        throw net::ProtocolError("serve frame length " +
                                 std::to_string(peer.header) +
                                 " out of range");
      }
      peer.body.assign(static_cast<std::size_t>(peer.header), std::byte{});
      peer.reading_body = true;
      continue;
    }
    peer.reading_body = false;
    handle_frame(rank, peer);
    if (peer.gone) return;
  }
}

void SocketFrontend::handle_frame(int rank, Peer& peer) {
  stats_.frames_received += 1;
  switch (wire::frame_type(peer.body)) {
    case wire::FrameType::Submit: {
      stats_.submits += 1;
      const Admission admission =
          server_.submit(wire::decode_submit(peer.body));
      if (admission.accepted) {
        stats_.accepts += 1;
        peer.outstanding.push_back(admission.request_id);
      } else {
        stats_.rejects += 1;
      }
      push_frame(rank, peer, wire::encode_admission(admission), false);
      return;
    }
    case wire::FrameType::StatsRequest: {
      // Live introspection: ship the registry (filtered by the
      // requested prefix) straight off the event loop — snapshotting
      // is lock-light and the reply rides the normal send queue.
      stats_.stats_requests += 1;
      const std::string prefix = wire::decode_stats_request(peer.body);
      obs::MetricsSnapshot snap = obs::MetricsRegistry::global().snapshot();
      if (!prefix.empty()) {
        const auto keep = [&](const std::string& name) {
          return name.compare(0, prefix.size(), prefix) == 0;
        };
        std::erase_if(snap.counters,
                      [&](const auto& kv) { return !keep(kv.first); });
        std::erase_if(snap.gauges,
                      [&](const auto& kv) { return !keep(kv.first); });
        std::erase_if(snap.histograms,
                      [&](const auto& kv) { return !keep(kv.first); });
      }
      push_frame(rank, peer, wire::encode_stats_reply(snap), false);
      return;
    }
    case wire::FrameType::Bye:
      peer.gone = true;
      return;
    case wire::FrameType::Admission:
    case wire::FrameType::Response:
    case wire::FrameType::StatsReply:
      throw net::ProtocolError(
          "client sent a server-only serve frame (type " +
          std::to_string(static_cast<int>(peer.body.front())) + ") from rank " +
          std::to_string(rank));
  }
}

void SocketFrontend::push_frame(int rank, Peer& peer,
                                std::vector<std::byte> payload,
                                bool response) {
  if (peer.gone) return;
  OutFrame frame;
  frame.response = response;
  frame.length = payload.size();
  frame.payload = std::move(payload);
  peer.sends.push_back(std::move(frame));
  // Deque nodes never move, so the length and payload addresses stay
  // stable until reap_sends() observes both completions.
  OutFrame& queued = peer.sends.back();
  queued.header = transport_.send(
      rank, std::span(reinterpret_cast<const std::byte*>(&queued.length),
                      sizeof(queued.length)));
  queued.body = transport_.send(
      rank, std::span(queued.payload.data(), queued.payload.size()));
}

void SocketFrontend::reap_sends(Peer& peer) {
  while (!peer.sends.empty() && peer.sends.front().header.done() &&
         peer.sends.front().body.done()) {
    try {
      peer.sends.front().header.wait();
      peer.sends.front().body.wait();
      stats_.frames_sent += 1;
    } catch (const net::TransportError&) {
      peer.gone = true;
      drop_sends(peer);
      return;
    }
    peer.sends.pop_front();
  }
}

void SocketFrontend::drop_sends(Peer& peer) {
  // A frame counts as sent once reap_sends() pops it, so every Response
  // still queued here never reached its peer: orphaned, exactly like
  // one whose request finished after the peer left.
  for (const OutFrame& frame : peer.sends) {
    if (frame.response) stats_.orphaned_responses += 1;
  }
  peer.sends.clear();
}

void SocketFrontend::collect_responses(int rank, Peer& peer) {
  for (std::size_t i = 0; i < peer.outstanding.size();) {
    Response response;
    if (!server_.poll(peer.outstanding[i], response)) {
      ++i;
      continue;
    }
    peer.outstanding.erase(peer.outstanding.begin() +
                           static_cast<std::ptrdiff_t>(i));
    if (peer.gone) {
      stats_.orphaned_responses += 1;
      continue;
    }
    push_frame(rank, peer, wire::encode_response(response), true);
  }
}

}  // namespace zipflm::serve
