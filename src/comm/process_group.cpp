#include "zipflm/comm/process_group.hpp"

namespace zipflm {

ProcessGroup::ProcessGroup(std::unique_ptr<net::Transport> transport,
                           Options options)
    : options_(std::move(options)), transport_(std::move(transport)) {
  transport_->set_timeout_seconds(options_.collective_timeout_seconds);
  Communicator::Hooks hooks;
  hooks.ledger = &ledger_;
  hooks.cost = &options_.cost;
  hooks.global_rank = transport_->rank();
  comm_ = std::make_unique<Communicator>(
      *transport_, Topology::for_world(transport_->world_size()),
      std::move(hooks));
}

ProcessGroup::~ProcessGroup() = default;

std::unique_ptr<ProcessGroup> ProcessGroup::connect(const std::string& address,
                                                    int rank, int world_size,
                                                    Options options) {
  net::RendezvousOptions rdzv;
  rdzv.timeout_seconds = options.rendezvous_timeout_seconds;
  auto transport = net::rendezvous(address, rank, world_size, rdzv);
  return std::unique_ptr<ProcessGroup>(
      new ProcessGroup(std::move(transport), std::move(options)));
}

std::unique_ptr<ProcessGroup> ProcessGroup::connect_from_env(Options options) {
  net::RendezvousOptions rdzv;
  rdzv.timeout_seconds = options.rendezvous_timeout_seconds;
  auto transport = net::rendezvous_from_env(rdzv);
  return std::unique_ptr<ProcessGroup>(
      new ProcessGroup(std::move(transport), std::move(options)));
}

}  // namespace zipflm
