// Alpha-beta interconnect cost model for collectives.
//
// Simulated wall-clock time for a collective is computed from the exact
// number of ring steps and the exact bytes each step moves — the same
// quantities our in-process collectives execute — under per-link
// latency (alpha, seconds) and bandwidth (beta, bytes/second) parameters.
// The bottleneck link of a ring that crosses node boundaries is the
// inter-node fabric, matching how hierarchical rings behave in practice.
#pragma once

#include <cstddef>
#include <cstdint>

#include "zipflm/comm/topology.hpp"

namespace zipflm {

struct LinkParams {
  double alpha_s = 0.0;    ///< per-message latency, seconds
  double beta_Bps = 1.0;   ///< effective bandwidth, bytes per second

  double transfer_seconds(std::size_t bytes) const {
    return alpha_s + static_cast<double>(bytes) / beta_Bps;
  }
};

struct CostModel {
  LinkParams intra_node;  ///< PCIe (paper: 32 GB/s bidirectional)
  LinkParams inter_node;  ///< IB FDR (paper: 15 GB/s bidirectional)

  /// Paper's Table II testbed.  Effective per-direction bandwidths are
  /// half the quoted bidirectional figures, derated by a protocol
  /// efficiency factor (documented in EXPERIMENTS.md calibration notes).
  static CostModel titan_x_cluster();

  /// Puri et al. [21] style V100 + NVLink node (Section V-D comparison).
  static CostModel v100_nvlink_cluster();

  const LinkParams& bottleneck(const Topology& topo) const {
    return topo.ring_crosses_nodes() ? inter_node : intra_node;
  }

  /// Time for one ring step where every rank forwards `bytes` to its
  /// neighbour simultaneously (all links busy; bottleneck link dominates).
  double ring_step_seconds(const Topology& topo, std::size_t bytes) const {
    return bottleneck(topo).transfer_seconds(bytes);
  }

  /// Closed forms used by the performance model (zipflm::sim) and checked
  /// against the step-by-step accounting of the executing collectives.
  double ring_allreduce_seconds(const Topology& topo,
                                std::size_t buffer_bytes) const;
  /// One ring half over a chunked buffer — a reduce-scatter, or the
  /// allgather of every rank's chunk: G-1 steps of ~buffer/G bytes.
  double ring_reduce_scatter_seconds(const Topology& topo,
                                     std::size_t buffer_bytes) const;
  double ring_allgather_seconds(const Topology& topo,
                                std::size_t bytes_per_rank) const;
  double broadcast_seconds(const Topology& topo, std::size_t bytes) const;
};

}  // namespace zipflm
