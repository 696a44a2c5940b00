#include "zipflm/comm/ledger.hpp"

#include <sstream>

namespace zipflm {

const char* codec_slot_name(CodecSlot slot) noexcept {
  switch (slot) {
    case CodecSlot::IndexVarint:
      return "index_varint";
    case CodecSlot::Packed:
      return "packed";
    case CodecSlot::Int8:
      return "int8";
  }
  return "unknown";
}

std::string TrafficLedger::to_json() const {
  std::ostringstream out;
  out.precision(17);
  out << "{\"bytes_sent\":" << bytes_sent
      << ",\"bytes_received\":" << bytes_received
      << ",\"allreduce_calls\":" << allreduce_calls
      << ",\"reduce_scatter_calls\":" << reduce_scatter_calls
      << ",\"allgather_calls\":" << allgather_calls
      << ",\"alltoall_calls\":" << alltoall_calls
      << ",\"broadcast_calls\":" << broadcast_calls
      << ",\"barrier_calls\":" << barrier_calls
      << ",\"max_collective_scratch_bytes\":" << max_collective_scratch_bytes
      << ",\"max_allreduce_payload_bytes\":" << max_allreduce_payload_bytes
      << ",\"max_reduce_scatter_payload_bytes\":"
      << max_reduce_scatter_payload_bytes
      << ",\"max_allgather_payload_bytes\":" << max_allgather_payload_bytes
      << ",\"max_alltoall_payload_bytes\":" << max_alltoall_payload_bytes
      << ",\"max_broadcast_payload_bytes\":" << max_broadcast_payload_bytes
      << ",\"simulated_comm_seconds\":" << simulated_comm_seconds
      << ",\"wire_bytes_sent\":" << wire_bytes_sent
      << ",\"wire_bytes_received\":" << wire_bytes_received
      << ",\"real_comm_seconds\":" << real_comm_seconds << ",\"codec\":{";
  for (std::size_t i = 0; i < kCodecSlotCount; ++i) {
    const auto& c = codec[i];
    if (i != 0) out << ',';
    out << '"' << codec_slot_name(static_cast<CodecSlot>(i))
        << "\":{\"logical_bytes\":" << c.logical_bytes
        << ",\"wire_bytes\":" << c.wire_bytes << ",\"ratio\":" << c.ratio()
        << '}';
  }
  out << "}}";
  return out.str();
}

}  // namespace zipflm
