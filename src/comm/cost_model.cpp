#include "zipflm/comm/cost_model.hpp"

namespace zipflm {

CostModel CostModel::titan_x_cluster() {
  // Table II: PCIe 32 GB/s bidirectional, IB FDR 15 GB/s bidirectional.
  // Per-direction is half; a further 0.8 protocol-efficiency derating
  // reflects achievable collective bandwidth (calibration constant).
  CostModel cm;
  cm.intra_node = LinkParams{5e-6, 0.5 * 32e9 * 0.8};
  cm.inter_node = LinkParams{2e-6, 0.5 * 15e9 * 0.8};
  return cm;
}

CostModel CostModel::v100_nvlink_cluster() {
  // NVLink ~300 GB/s bidirectional per GPU; EDR-class fabric between
  // nodes (Puri et al. DGX-style pods).
  CostModel cm;
  cm.intra_node = LinkParams{3e-6, 0.5 * 300e9 * 0.8};
  cm.inter_node = LinkParams{2e-6, 0.5 * 100e9 * 0.8};
  return cm;
}

double CostModel::ring_allreduce_seconds(const Topology& topo,
                                         std::size_t buffer_bytes) const {
  // Reduce-scatter + allgather: two halves of the same schedule.
  return 2.0 * ring_reduce_scatter_seconds(topo, buffer_bytes);
}

double CostModel::ring_reduce_scatter_seconds(const Topology& topo,
                                              std::size_t buffer_bytes) const {
  const int g = topo.world_size();
  if (g <= 1 || buffer_bytes == 0) return 0.0;
  const std::size_t chunk =
      (buffer_bytes + static_cast<std::size_t>(g) - 1) /
      static_cast<std::size_t>(g);
  return (g - 1) * ring_step_seconds(topo, chunk);
}

double CostModel::ring_allgather_seconds(const Topology& topo,
                                         std::size_t bytes_per_rank) const {
  const int g = topo.world_size();
  if (g <= 1 || bytes_per_rank == 0) return 0.0;
  // (G-1) steps; each step every rank forwards one rank's block.
  return (g - 1) * ring_step_seconds(topo, bytes_per_rank);
}

double CostModel::broadcast_seconds(const Topology& topo,
                                    std::size_t bytes) const {
  const int g = topo.world_size();
  if (g <= 1 || bytes == 0) return 0.0;
  // Pipelined ring broadcast: dominated by one traversal of the ring.
  return (g - 1) * bottleneck(topo).alpha_s +
         static_cast<double>(bytes) / bottleneck(topo).beta_Bps;
}

}  // namespace zipflm
