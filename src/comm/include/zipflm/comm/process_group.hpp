// One rank of a multi-process collective world.
//
// Where CommWorld spawns every rank as a thread of one process, a
// ProcessGroup is held by ONE OS process that joined an N-process world
// through the socket rendezvous (see net/socket.hpp).  It owns the
// rendezvous'd endpoint, this rank's TrafficLedger, and a Communicator
// over them — the identical collective engine CommWorld's Socket
// backend uses, so an N-process run produces bitwise the same results
// as an N-thread run.
//
// Typical use, under the zipflm_launch rank-runner:
//
//   auto pg = zipflm::ProcessGroup::connect_from_env();
//   pg->comm().allreduce_sum(grads);
#pragma once

#include <memory>
#include <string>

#include "zipflm/comm/communicator.hpp"
#include "zipflm/net/socket.hpp"

namespace zipflm {

class ProcessGroup {
 public:
  struct Options {
    CostModel cost;  ///< prices simulated_comm_seconds, as in CommWorld
    /// 0 = wait forever; otherwise a stalled collective throws
    /// CollectiveTimeoutError after this many seconds.
    double collective_timeout_seconds = 0.0;
    double rendezvous_timeout_seconds = 30.0;
    Options() : cost(CostModel::titan_x_cluster()) {}
  };

  /// Join the world at `address` ("unix:<prefix>" or "tcp:<host>:<port>")
  /// as rank `rank` of `world_size`.  Blocks until all pairwise
  /// connections are handshaken.
  static std::unique_ptr<ProcessGroup> connect(const std::string& address,
                                               int rank, int world_size,
                                               Options options = Options());

  /// connect() with rank / world / address from the environment set by
  /// zipflm_launch (ZIPFLM_NET_RANK, ZIPFLM_NET_WORLD,
  /// ZIPFLM_NET_RENDEZVOUS).
  static std::unique_ptr<ProcessGroup> connect_from_env(
      Options options = Options());

  ~ProcessGroup();
  ProcessGroup(const ProcessGroup&) = delete;
  ProcessGroup& operator=(const ProcessGroup&) = delete;

  Communicator& comm() noexcept { return *comm_; }
  int rank() const noexcept { return transport_->rank(); }
  int world_size() const noexcept { return transport_->world_size(); }
  const TrafficLedger& ledger() const noexcept { return ledger_; }
  net::Transport& transport() noexcept { return *transport_; }

 private:
  ProcessGroup(std::unique_ptr<net::Transport> transport, Options options);

  Options options_;
  std::unique_ptr<net::Transport> transport_;
  TrafficLedger ledger_;
  std::unique_ptr<Communicator> comm_;
};

}  // namespace zipflm
