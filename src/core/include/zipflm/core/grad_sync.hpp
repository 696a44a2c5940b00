// Dense-parameter gradient synchronization (the vision-style ALLREDUCE
// of Section II-B), with optional FP16 compression-scaling on the wire
// (Section III-C), split into its two ring halves around an owner-side
// update (ZeRO-1, Rajbhandari et al.):
//
//   reduce   each parameter's gradient is reduce-scattered; a rank
//            decompresses and averages only the ring chunk it owns,
//            Communicator::owned_chunk — chunk (rank + 1) mod G;
//   update   the optimizer steps owned() — so Adam's moments are sized
//            to the owned chunks;
//   gather   gather_values() allgathers each parameter's FP32 values.
//
// Every element is updated from the same averaged gradient as a
// replicated allreduce-then-step, so weights are bitwise identical to
// it.  At G == 1 the rank owns everything and no collective runs.
//
// One path: begin_step() groups the dense parameters into fixed-byte
// buckets in reverse-backprop order (last layer first); finish()
// launches every bucket not yet launched, in plan order, and drains the
// engine.  Inside a bucket each parameter runs its own reduce-scatter,
// so ring schedules and collective counts never depend on the bucket
// size.  Synchronous mode arms an inline AsyncCommEngine and no backward
// hook; overlapped mode arms a comm-thread engine and the layers'
// backward hooks call notify_ready(), so wire time hides under the
// remaining backward compute.  The two are bitwise identical.
//
// Every bucket reduces through one FP16 wire buffer per instance, sized
// to the largest parameter: the engine runs buckets one at a time and
// peers read the buffer only inside a collective.  An instance belongs
// to one rank; ranks never share one.
#pragma once

#include <cstddef>
#include <span>
#include <unordered_map>
#include <vector>

#include "zipflm/comm/async_exchange.hpp"
#include "zipflm/comm/communicator.hpp"
#include "zipflm/core/exchange.hpp"
#include "zipflm/nn/optimizer.hpp"
#include "zipflm/nn/param.hpp"
#include "zipflm/tensor/half.hpp"

namespace zipflm {

class DenseGradSync {
 public:
  explicit DenseGradSync(ExchangeOptions options = {}) : options_(options) {}

  /// Target bucket payload (bytes of FP32 gradient).  Buckets are
  /// parameter-granular: a parameter larger than the target gets its
  /// own bucket.  Takes effect at the next begin_step.
  void set_bucket_bytes(std::size_t bytes) noexcept { bucket_bytes_ = bytes; }

  /// Arm one step: (re)build the bucket plan over reverse(params) —
  /// reverse-backprop order, so bucket 0 holds the parameters whose
  /// gradients finalize first — and reset per-bucket completion counts.
  /// The engine must flush through finish() before `params` gradients
  /// are read.  The plan is cached: same parameter list, same buckets.
  void begin_step(Communicator& comm, AsyncCommEngine& engine,
                  std::span<Param* const> params);

  /// Mark one parameter's gradient final (call from the layer's
  /// backward-completion hook, on the rank's main thread).  Launches
  /// the parameter's bucket once every member has reported.  Unknown
  /// parameters (not in the armed plan) are ignored.
  void notify_ready(const Param* param);

  /// Launch any buckets still incomplete (in plan order), drain the
  /// engine, and disarm.  After this the owned() range of every
  /// gradient holds the world-averaged value; the rest of each gradient
  /// is scratch.  FP16 mode down-casts with compression scaling before
  /// the wire and up-casts the owned chunk after; a gradient wire codec
  /// in the options is armed around each bucket's reduce-scatters.
  void finish();

  /// This rank's owned chunk of every dense parameter, in plan order —
  /// whole parameters at G == 1.  Valid from begin_step on.
  std::span<const ParamRange> owned() const noexcept { return owned_; }

  /// Allgather every dense parameter's owned values, in plan order, so
  /// all ranks hold the full updated weights.  Runs on the caller's
  /// thread; no-op at G == 1.
  void gather_values(Communicator& comm);

  /// Buckets in the current (cached) plan — 0 before any begin_step.
  std::size_t plan_buckets() const noexcept { return plan_.size(); }

  /// Drop the armed engine without draining it — the exception path
  /// (e.g. a rank death unwinding the epoch), where the engine is about
  /// to be destroyed anyway.  No-op when not armed.
  void disarm() noexcept { engine_ = nullptr; }

 private:
  struct Bucket {
    std::vector<Param*> params;   ///< plan order (reverse backprop)
    std::size_t floats = 0;
    std::size_t pending = 0;      ///< params not yet notified this step
    bool launched = false;
  };

  void rebuild_plan(std::span<Param* const> params);
  void launch_bucket(std::size_t index);
  void run_bucket(Communicator& comm, std::size_t index);
  /// Reduce-scatter one gradient and average its owned chunk in place.
  void reduce(Communicator& comm, Param& param);

  ExchangeOptions options_;
  std::size_t bucket_bytes_ = std::size_t{4} << 20;

  std::vector<Bucket> plan_;
  std::vector<Param*> plan_params_;   ///< the list the plan was built on
  std::size_t plan_bucket_bytes_ = 0;
  std::unordered_map<const Param*, std::size_t> bucket_of_;
  AsyncCommEngine* engine_ = nullptr;  ///< non-null while armed
  std::vector<ParamRange> owned_;      ///< plan order
  /// FP16 wire scratch, grown to the largest parameter reduced so far
  /// and kept, so no step allocates.
  std::vector<Half> wire_;
};

}  // namespace zipflm
