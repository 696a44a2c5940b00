// In-process multi-rank runtime: one OS thread per simulated GPU rank,
// collectives executed step-for-step as ring algorithms over shared
// memory.
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
// is poisoned on the wire).  With a collective timeout configured, a
// killed rank surfaces as CollectiveTimeoutError on every survivor
// instead of a deadlock, the dead rank is retired from the world, and
// the next run() proceeds over the survivors only.
#pragma once

#include <atomic>
#include <exception>
#include <functional>
#include <memory>
#include <vector>

#include "zipflm/comm/communicator.hpp"
#include "zipflm/comm/cost_model.hpp"
#include "zipflm/support/barrier.hpp"

namespace zipflm {

class ThreadRankComm;

enum class FaultKind : std::uint8_t {
  Kill,     ///< rank stops participating (no abort, no exception escapes)
  Delay,    ///< rank sleeps delay_seconds before the collective
  Corrupt,  ///< rank's contribution is overwritten with NaN bytes
};

/// One injected fault: fires when `rank` enters its `at_collective`-th
/// collective call (0-based, counted per rank across the world's whole
/// lifetime), then disarms.
struct FaultEvent {
  int rank = -1;
  FaultKind kind = FaultKind::Kill;
  std::uint64_t at_collective = 0;
  double delay_seconds = 0.0;  ///< Delay only
};

struct FaultPlan {
  std::vector<FaultEvent> events;
};

/// Internal signal thrown inside a killed rank's collective.  Not
/// derived from zipflm::Error on purpose: user code catching Error must
/// not be able to swallow a simulated process death.
struct SimulatedRankDeath {
  int rank = -1;
};

/// Which engine carries CommWorld's collectives.
enum class CommBackend : std::uint8_t {
  /// Shared-memory rings synchronized by cyclic barriers (the original
  /// engine): deterministic, no kernel involvement.
  SharedMem,
  /// zipflm::net message-passing rings over in-memory channels — the
  /// transport code path with the deterministic in-process oracle
  /// underneath.
  InProcNet,
  /// The same message-passing rings over real socketpair fds: every
  /// collective byte crosses the kernel with genuine backpressure and
  /// partial transfers.  Results are bitwise identical to SharedMem.
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
  ~CommWorld();

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

  /// Execute fn(comm) concurrently on every live rank and join.  If any
  /// rank throws, all barriers abort (no deadlock) and the lowest-rank
  /// exception is rethrown here.  A rank killed by a FaultPlan is
  /// retired before this returns: the survivors' CollectiveTimeoutError
  /// is rethrown, and the next run() spans the remaining ranks only.
  void run(const std::function<void(Communicator&)>& fn);

  /// Per-rank traffic accounting for the most recent / cumulative runs.
  const TrafficLedger& ledger(int rank) const;
  TrafficLedger total_ledger() const;
  /// Maximum over ranks of simulated communication seconds — the
  /// critical-path figure the performance model consumes.
  double max_simulated_comm_seconds() const;
  void reset_ledgers();

 private:
  friend class ThreadRankComm;

  enum class Op : std::uint8_t {
    None,
    Barrier,
    AllReduceF32,
    AllReduceF16,
    AllReduceMaxF32,
    ReduceScatterF32,
    ReduceScatterF16,
    AllGatherChunks,
    AllGather,
    AllGatherV,
    AllToAllV,
    Broadcast,
  };

  // One collective "slot" per member, re-published at each collective.
  struct alignas(64) Slot {
    Op op = Op::None;
    const std::byte* src = nullptr;
    std::byte* dst = nullptr;
    std::size_t bytes = 0;
    int root = -1;
    WireCodec codec = WireCodec::None;
    /// Encoded size of the member's owned ring chunk, published before
    /// the reduce-scatter's last rendezvous so a coded allreduce can
    /// price its allgather hops.
    std::uint64_t owned_wire_bytes = 0;
  };

  /// Shared state of one communicator scope (the world, one node, or the
  /// node-leader set): a barrier and a slot per member, plus the
  /// topology the cost model prices its ring steps against.
  struct Group {
    Group(int size, Topology t)
        : barrier(size), slots(static_cast<std::size_t>(size)), topo(t) {}
    CyclicBarrier barrier;
    std::vector<Slot> slots;
    Topology topo;

    void validate_uniform(Op op, std::size_t bytes, int root,
                          WireCodec codec) const;
    int size() const noexcept { return static_cast<int>(slots.size()); }
  };

  /// What a rank must do on entering its next collective.
  struct FaultAction {
    FaultKind kind;
    double delay_seconds;
    bool armed = false;
  };

  /// Advance `global_rank`'s collective counter and return the fault (if
  /// any) scheduled for this call.  Called only from that rank's thread.
  FaultAction next_fault(int global_rank);

  /// run() body for the InProcNet / Socket backends: builds a fresh
  /// per-run transport mesh over the live ranks (poisoned streams from
  /// a failed run are discarded wholesale) and drives fn through
  /// TransportComm endpoints instead of the shared-memory groups.
  void run_transport(const std::function<void(Communicator&)>& fn);

  /// Shared run() epilogue: retire died ranks, rebuild groups, and
  /// rethrow preferring an originating error over victims —
  /// BarrierAborted always, CollectiveTimeoutError too when
  /// `transport_victims` (a closed peer surfaces as a timeout there).
  void finish_run(std::vector<int>& died,
                  std::vector<std::exception_ptr>& errors,
                  bool transport_victims);

  /// Rebuild the world/node/leader groups over the live ranks.  After
  /// any retirement the survivors are densely renumbered into a flat
  /// single-node topology (the degraded schedule makes no locality
  /// promises), matching how NCCL re-forms a communicator after a rank
  /// loss.
  void rebuild_groups();

  const int world_size_;
  Topology topo_;
  CostModel cost_;
  CommBackend backend_ = CommBackend::SharedMem;
  double timeout_seconds_ = 0.0;
  std::unique_ptr<Group> world_group_;
  std::vector<std::unique_ptr<Group>> node_groups_;  ///< one per node
  std::unique_ptr<Group> leader_group_;  ///< node leaders (nodes > 1)
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
