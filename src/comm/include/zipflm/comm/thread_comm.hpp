// In-process multi-rank runtime: one OS thread per simulated GPU rank,
// every collective run by a Communicator (communicator.hpp) over an
// in-process transport mesh — net::InProcHub by default, or a
// socketpair mesh so every byte crosses the kernel.
//
// This is the substitution for the paper's 50-node MPI cluster.  The
// collectives move real data through the real ring schedule (so byte
// accounting, chunking and reduction order are faithful), while the
// CostModel converts the per-step transfer sizes into simulated seconds
// on the paper's interconnects.
//
// Besides the world communicator, every rank can obtain MPI-style
// sub-communicators (Communicator::node_comm / leader_comm) spanning its
// node and the set of node leaders — the building blocks of hierarchical
// collectives (see hierarchical.hpp).
//
// Fault tolerance: a FaultPlan injects rank failures at a chosen
// collective call — Kill (the rank silently stops participating, like a
// crashed process), Delay (a straggler), or Corrupt (the rank's payload
// is poisoned on the wire).  A killed rank closes its endpoint, which
// every survivor observes as CollectiveTimeoutError (as does a stall
// longer than the collective timeout); the dead rank is retired from
// the world, and the next run() proceeds over the survivors only.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "zipflm/comm/communicator.hpp"
#include "zipflm/comm/cost_model.hpp"

namespace zipflm {

/// One injected fault: fires when `rank` enters its `at_collective`-th
/// collective call (0-based, counted per rank across the world's whole
/// lifetime, sub-communicator calls included), then disarms.
struct FaultEvent {
  int rank = -1;
  FaultKind kind = FaultKind::Kill;
  std::uint64_t at_collective = 0;
  double delay_seconds = 0.0;  ///< Delay only
};

struct FaultPlan {
  std::vector<FaultEvent> events;
};

/// Which transport carries CommWorld's collectives.  Results are
/// bitwise identical on both.
enum class CommBackend : std::uint8_t {
  /// net::InProcHub: lanes in this address space, eager byte rings for
  /// small messages and single-copy rendezvous for large ones.
  SharedMem,
  /// A socketpair mesh: every collective byte crosses the kernel with
  /// genuine backpressure and partial transfers.
  Socket,
};

class CommWorld {
 public:
  struct Options {
    Topology topo;        ///< defaults to one 8-GPU node sized to world
    CostModel cost;       ///< defaults to the paper's Titan X cluster
    bool topo_set = false;
    /// Maximum wall time one collective crossing may take before the
    /// survivors throw CollectiveTimeoutError.  0 = wait forever (the
    /// pre-fault-tolerance behaviour).
    double collective_timeout_seconds = 0.0;
    CommBackend backend = CommBackend::SharedMem;
    Options() : cost(CostModel::titan_x_cluster()) {}
  };

  explicit CommWorld(int world_size, Options options = Options());

  CommWorld(const CommWorld&) = delete;
  CommWorld& operator=(const CommWorld&) = delete;

  /// Live (non-retired) rank count — the size every collective runs at.
  int world_size() const noexcept { return static_cast<int>(live_.size()); }
  /// Rank count the world was built with, dead ranks included.
  int total_ranks() const noexcept { return world_size_; }
  /// Global ids of the live ranks, ascending.  run() executes fn once
  /// per entry; Communicator::rank() is the dense index into this list.
  const std::vector<int>& live_ranks() const noexcept { return live_; }
  /// Global ids of ranks retired by Kill faults, in death order.
  const std::vector<int>& failed_ranks() const noexcept { return failed_; }

  const Topology& topology() const noexcept { return topo_; }
  const CostModel& cost_model() const noexcept { return cost_; }
  CommBackend backend() const noexcept { return backend_; }

  /// Arm (replacing any previous plan) the given fault schedule.  Only
  /// call between run() invocations.
  void inject_faults(FaultPlan plan);
  /// (Re)configure the collective timeout; 0 disables.  Only call
  /// between run() invocations.
  void set_collective_timeout(double seconds);
  double collective_timeout() const noexcept { return timeout_seconds_; }

  /// Execute fn(comm) concurrently on every live rank and join.  A rank
  /// leaving fn, by return or by throw, closes its endpoint, so its
  /// peers never deadlock on it.  The lowest-rank originating exception
  /// is rethrown here, in preference to the CollectiveTimeoutError its
  /// peers then see.  A rank killed by a FaultPlan is retired before
  /// this returns: the survivors' CollectiveTimeoutError is rethrown,
  /// and the next run() spans the remaining ranks only.
  void run(const std::function<void(Communicator&)>& fn);

  /// Per-rank traffic accounting for the most recent / cumulative runs.
  const TrafficLedger& ledger(int rank) const;
  TrafficLedger total_ledger() const;
  /// Maximum over ranks of simulated communication seconds — the
  /// critical-path figure the performance model consumes.
  double max_simulated_comm_seconds() const;
  void reset_ledgers();

 private:
  /// Advance `global_rank`'s collective counter and return the fault (if
  /// any) scheduled for this call.  Called only from that rank's thread.
  TransportFault next_fault(int global_rank);

  const int world_size_;
  Topology topo_;
  CostModel cost_;
  CommBackend backend_ = CommBackend::SharedMem;
  double timeout_seconds_ = 0.0;
  std::vector<TrafficLedger> ledgers_;
  std::vector<int> live_;    ///< global ids, ascending
  std::vector<int> failed_;  ///< retired ranks, in death order
  FaultPlan plan_;
  /// One byte per plan_.events entry; only the event's own rank thread
  /// touches its flag during run() (next_fault filters on rank first).
  std::vector<std::uint8_t> plan_consumed_;
  std::vector<std::uint64_t> fault_cursor_;  ///< per-rank collective count
};

}  // namespace zipflm
