// Socket serving frontend: one event-loop thread that multiplexes
// every connected client over a zipflm::net::Transport and feeds the
// sharded server.
//
// Topology reuses the PR 6 rendezvous protocol unchanged: the serving
// process and its clients form one net world (server = rank 0 by
// convention, clients = the remaining ranks), joined over UNIX-domain
// or TCP sockets — or a socketpair_mesh for in-process tests.  The
// Hello handshake (magic / world / rank) therefore guards the serving
// port exactly as it guards the collectives.
//
// The loop never blocks on any single peer: it drives
// Transport::progress() in sub-millisecond slices, advances a per-peer
// header/body receive state machine, submits decoded requests to the
// ShardedServer (replying with the Admission frame immediately), and
// pushes each Response frame to its submitting peer as the shards
// finish — clients just read, no poll round-trips.  A peer that sends
// Bye (or dies) stops being read; its in-flight requests still drain
// through the server, their responses discarded.
//
// run() returns once every peer said Bye (or died) and every pushed
// response has left the send buffers.
#pragma once

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "zipflm/net/transport.hpp"
#include "zipflm/serve/sharded_server.hpp"
#include "zipflm/serve/wire.hpp"

namespace zipflm::serve {

struct FrontendStats {
  std::uint64_t frames_received = 0;  ///< Submit + Bye + Stats decoded
  std::uint64_t frames_sent = 0;      ///< Admission/Response/StatsReply
  std::uint64_t submits = 0;
  std::uint64_t accepts = 0;
  std::uint64_t rejects = 0;
  std::uint64_t stats_requests = 0;  ///< live-introspection pulls served
  /// Responses whose peer was gone before the reply left: the request
  /// finished after the peer did, or its frame failed on the dead peer.
  std::uint64_t orphaned_responses = 0;
};

class SocketFrontend {
 public:
  /// `transport` and `server` outlive the frontend; the server must be
  /// started.  The frontend becomes the transport's single driving
  /// thread — nothing else may send or receive on it while run() is
  /// live.
  SocketFrontend(net::Transport& transport, ShardedServer& server);

  /// Serve until every peer disconnects.  Blocking; call on a
  /// dedicated thread.
  void run();

  const FrontendStats& stats() const noexcept { return stats_; }

 private:
  struct OutFrame {
    bool response = false;  ///< a Response frame (orphaned if dropped)
    std::uint64_t length = 0;
    std::vector<std::byte> payload;
    net::Completion header;
    net::Completion body;
  };
  struct Peer {
    bool gone = false;     ///< said Bye, or its connection died
    bool reading_body = false;
    std::uint64_t header = 0;        ///< length-prefix receive buffer
    std::vector<std::byte> body;     ///< payload receive buffer
    net::Completion pending_recv;
    std::deque<OutFrame> sends;      ///< buffers pinned until flushed
    std::vector<std::uint64_t> outstanding;  ///< admitted request ids
  };

  void pump_recv(int rank, Peer& peer);
  void handle_frame(int rank, Peer& peer);
  void push_frame(int rank, Peer& peer, std::vector<std::byte> payload,
                  bool response);
  void reap_sends(Peer& peer);
  /// The peer is gone: drop its queued frames, counting the Responses.
  void drop_sends(Peer& peer);
  void collect_responses(int rank, Peer& peer);
  bool drained() const;

  net::Transport& transport_;
  ShardedServer& server_;
  std::unordered_map<int, Peer> peers_;
  FrontendStats stats_;
};

}  // namespace zipflm::serve
