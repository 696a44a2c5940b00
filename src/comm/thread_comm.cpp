#include "zipflm/comm/thread_comm.hpp"

#include <algorithm>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>

#include "comm_internal.hpp"
#include "zipflm/net/inproc.hpp"
#include "zipflm/net/socket.hpp"
#include "zipflm/obs/trace.hpp"

namespace zipflm {

using comm_internal::CommMetrics;

CommWorld::CommWorld(int world_size, Options options)
    : world_size_(world_size),
      topo_(options.topo_set ? options.topo : Topology::for_world(world_size)),
      cost_(options.cost),
      backend_(options.backend),
      timeout_seconds_(options.collective_timeout_seconds),
      ledgers_(static_cast<std::size_t>(world_size)),
      fault_cursor_(static_cast<std::size_t>(world_size), 0) {
  ZIPFLM_CHECK(world_size > 0, "world size must be positive");
  ZIPFLM_CHECK(topo_.world_size() == world_size,
               "topology must match world size");
  ZIPFLM_CHECK(timeout_seconds_ >= 0.0,
               "collective timeout must be non-negative");
  live_.resize(static_cast<std::size_t>(world_size));
  std::iota(live_.begin(), live_.end(), 0);
}

void CommWorld::inject_faults(FaultPlan plan) {
  for (const FaultEvent& e : plan.events) {
    ZIPFLM_CHECK(e.rank >= 0 && e.rank < world_size_,
                 "fault plan rank out of range");
    ZIPFLM_CHECK(e.kind != FaultKind::Delay || e.delay_seconds >= 0.0,
                 "fault delay must be non-negative");
  }
  plan_ = std::move(plan);
  plan_consumed_.assign(plan_.events.size(), 0);
}

void CommWorld::set_collective_timeout(double seconds) {
  ZIPFLM_CHECK(seconds >= 0.0, "collective timeout must be non-negative");
  timeout_seconds_ = seconds;
}

TransportFault CommWorld::next_fault(int global_rank) {
  // Only global_rank's own thread calls this, so the cursor needs no
  // synchronization; the plan itself is immutable during run().
  const std::uint64_t call =
      fault_cursor_[static_cast<std::size_t>(global_rank)]++;
  for (std::size_t i = 0; i < plan_.events.size(); ++i) {
    const FaultEvent& e = plan_.events[i];
    // Filter on rank FIRST: a consumed flag is then only ever touched
    // by its own event's rank (one byte per flag, no false sharing of
    // bits), so concurrent ranks scanning the plan never race.
    if (e.rank != global_rank || e.at_collective != call ||
        plan_consumed_[i] != 0) {
      continue;
    }
    plan_consumed_[i] = 1;
    return TransportFault{e.kind, e.delay_seconds, true};
  }
  return TransportFault{};
}

void CommWorld::run(const std::function<void(Communicator&)>& fn) {
  const std::size_t live = live_.size();
  // A fresh mesh per run: streams poisoned by a failed or timed-out
  // previous run are discarded wholesale.
  std::vector<std::unique_ptr<net::Transport>> endpoints;
  if (backend_ == CommBackend::Socket) {
    endpoints = net::socketpair_mesh(static_cast<int>(live));
  } else {
    net::InProcHub hub(static_cast<int>(live));
    endpoints.reserve(live);
    for (std::size_t i = 0; i < live; ++i) {
      endpoints.push_back(hub.endpoint(static_cast<int>(i)));
    }
  }
  for (auto& ep : endpoints) ep->set_timeout_seconds(timeout_seconds_);

  std::vector<std::exception_ptr> errors(live);
  std::vector<int> died;
  std::mutex died_mutex;
  std::vector<std::thread> threads;
  threads.reserve(live);
  for (std::size_t i = 0; i < live; ++i) {
    threads.emplace_back(
        [this, &fn, &errors, &died, &died_mutex, &endpoints, i] {
          const int global = live_[i];
#if ZIPFLM_TRACE
          // Lanes are keyed by global rank, so a rank's events land in
          // the same Perfetto track across every run() of its lifetime.
          obs::set_thread_lane("rank " + std::to_string(global), global);
#endif
          net::Transport& ep = *endpoints[i];
          Communicator::Hooks hooks;
          hooks.ledger = &ledgers_[static_cast<std::size_t>(global)];
          hooks.cost = &cost_;
          hooks.global_rank = global;
          hooks.fault = [this, global] { return next_fault(global); };
          try {
            Communicator comm(ep, topo_, std::move(hooks));
            fn(comm);
          } catch (const SimulatedRankDeath& death) {
            // A killed rank dies silently; closing its endpoint below
            // is what the survivors observe — as PeerClosedError, i.e.
            // CollectiveTimeoutError, the same signal a dead process
            // gives over a real wire.
            std::scoped_lock lock(died_mutex);
            died.push_back(death.rank);
          } catch (...) {
            errors[i] = std::current_exception();
          }
          // Close on every exit path: success (peers may still drain
          // what we already sent), death, and error (peers unblock
          // instead of waiting out their timeout).
          ep.close();
        });
  }
  for (auto& t : threads) t.join();

  // Retire killed ranks before rethrowing, so the caller can roll back
  // and immediately re-run over the survivors.  They are densely
  // renumbered into a flat single-node topology (the degraded schedule
  // makes no locality promises), as NCCL re-forms a communicator after
  // a rank loss.
  if (!died.empty()) {
    std::sort(died.begin(), died.end());
    auto& m = CommMetrics::get();
    for (const int r : died) {
      failed_.push_back(r);
      live_.erase(std::remove(live_.begin(), live_.end(), r), live_.end());
      ZIPFLM_TRACE_INSTANT("rank_retired", "rank", static_cast<double>(r));
      m.ranks_retired.add(1);
    }
    ZIPFLM_CHECK(!live_.empty(),
                 "no surviving ranks in the communicator world");
    topo_ = Topology{1, static_cast<int>(live_.size())};
    ZIPFLM_TRACE_INSTANT("world_rebuilt", "live_ranks",
                         static_cast<double>(live_.size()));
    m.world_rebuilds.add(1);
  }

  // Prefer an originating error over its victims: a rank failing for
  // any reason closes its endpoint, and every peer then surfaces the
  // loss as CollectiveTimeoutError.
  std::exception_ptr any;
  for (const auto& e : errors) {
    if (!e) continue;
    if (!any) any = e;
    try {
      std::rethrow_exception(e);
    } catch (const CollectiveTimeoutError&) {
      // victim; keep looking for the root cause
    } catch (...) {
      std::rethrow_exception(e);
    }
  }
  if (any) std::rethrow_exception(any);
}

const TrafficLedger& CommWorld::ledger(int rank) const {
  ZIPFLM_CHECK(rank >= 0 && rank < world_size_, "ledger rank out of range");
  return ledgers_[static_cast<std::size_t>(rank)];
}

TrafficLedger CommWorld::total_ledger() const {
  TrafficLedger total;
  for (const auto& l : ledgers_) total += l;
  return total;
}

double CommWorld::max_simulated_comm_seconds() const {
  double mx = 0.0;
  for (const auto& l : ledgers_) {
    mx = std::max(mx, l.simulated_comm_seconds);
  }
  return mx;
}

void CommWorld::reset_ledgers() {
  for (auto& l : ledgers_) l.reset();
}

}  // namespace zipflm
