#include "zipflm/core/grad_sync.hpp"

#include <algorithm>
#include <vector>

#include "zipflm/support/error.hpp"
#include "zipflm/tensor/cast.hpp"
#include "zipflm/tensor/ops.hpp"

namespace zipflm {

void DenseGradSync::reduce(Communicator& comm, Param& param) {
  const int g = comm.world_size();
  if (g == 1) return;
  const std::span<float> grad = param.grad.data();
  const ChunkRange own =
      Communicator::owned_chunk(grad.size(), comm.rank(), g);
  const std::span<float> owned = grad.subspan(own.begin, own.size());
  if (options_.precision == WirePrecision::FP32) {
    comm.reduce_scatter_sum(grad);
  } else {
    // Reduce straight out of the gradient through the one wire buffer
    // and up-cast only the owned chunk.  The buffer's old contents are
    // dead, so growing it never copies.
    if (wire_.size() < grad.size()) wire_ = std::vector<Half>(grad.size());
    const std::span<Half> wire(wire_.data(), grad.size());
    compress_fp16(grad, options_.compression_scale, wire);
    comm.reduce_scatter_sum(wire);
    decompress_fp16(wire.subspan(own.begin, own.size()),
                    options_.compression_scale, owned);
  }
  scale(owned, 1.0f / static_cast<float>(g));
}

void DenseGradSync::gather_values(Communicator& comm) {
  if (comm.world_size() == 1) return;
  for (const ParamRange& r : owned_) {
    comm.allgather_chunks(r.param->value.data());
  }
}

void DenseGradSync::rebuild_plan(std::span<Param* const> params) {
  plan_.clear();
  bucket_of_.clear();
  plan_params_.assign(params.begin(), params.end());
  plan_bucket_bytes_ = bucket_bytes_;
  const std::size_t target_floats =
      std::max<std::size_t>(1, bucket_bytes_ / sizeof(float));

  // Reverse-backprop order: the last dense parameter of the forward
  // graph finalizes first in backward, so it seeds bucket 0.
  for (std::size_t i = params.size(); i-- > 0;) {
    Param* p = params[i];
    const auto n = static_cast<std::size_t>(p->size());
    if (plan_.empty() || (plan_.back().floats > 0 &&
                          plan_.back().floats + n > target_floats)) {
      plan_.emplace_back();
    }
    Bucket& b = plan_.back();
    b.params.push_back(p);
    b.floats += n;
    bucket_of_.emplace(p, plan_.size() - 1);
  }
}

void DenseGradSync::begin_step(Communicator& comm, AsyncCommEngine& engine,
                               std::span<Param* const> params) {
  ZIPFLM_CHECK(engine_ == nullptr,
               "begin_step while a previous step is still armed");
  if (plan_params_.size() != params.size() ||
      !std::equal(plan_params_.begin(), plan_params_.end(), params.begin()) ||
      plan_bucket_bytes_ != bucket_bytes_) {
    rebuild_plan(params);
  }
  owned_.clear();
  for (Bucket& b : plan_) {
    b.pending = b.params.size();
    b.launched = false;
    for (Param* p : b.params) {
      const ChunkRange own = Communicator::owned_chunk(
          static_cast<std::size_t>(p->size()), comm.rank(), comm.world_size());
      owned_.push_back({p, own.begin, own.end});
    }
  }
  engine_ = &engine;
}

void DenseGradSync::notify_ready(const Param* param) {
  if (engine_ == nullptr) return;
  const auto it = bucket_of_.find(param);
  if (it == bucket_of_.end()) return;
  Bucket& b = plan_[it->second];
  ZIPFLM_ASSERT(b.pending > 0, "parameter notified ready twice in one step");
  if (--b.pending == 0) launch_bucket(it->second);
}

void DenseGradSync::launch_bucket(std::size_t index) {
  Bucket& b = plan_[index];
  if (b.launched) return;
  b.launched = true;
  engine_->submit("bucket_allreduce", b.floats * sizeof(float),
                  [this, index](Communicator& comm) {
                    run_bucket(comm, index);
                  });
}

void DenseGradSync::run_bucket(Communicator& comm, std::size_t index) {
  WireCodecScope codec_scope(comm, options_.codec);
  // One collective per parameter, in plan order.  A concatenated
  // bucket-wide reduce-scatter would shift the ring chunk boundaries and with
  // them each element's cross-rank summation order, so the result would
  // depend on the bucket size; keeping the wire schedule per-parameter
  // also keeps the collective count (and so every
  // FaultSpec::at_collective index) independent of bucketing.  The
  // bucket is purely the launch granularity: one engine job covering
  // every parameter whose gradient finalized together.
  for (Param* p : plan_[index].params) reduce(comm, *p);
}

void DenseGradSync::finish() {
  ZIPFLM_CHECK(engine_ != nullptr, "finish without begin_step");
  // Launch stragglers in plan order — deterministic whether or not the
  // model reported every parameter through notify_ready.
  for (std::size_t i = 0; i < plan_.size(); ++i) {
    if (!plan_[i].launched) launch_bucket(i);
  }
  AsyncCommEngine* engine = engine_;
  engine_ = nullptr;  // disarm before flush so a throw leaves us clean
  engine->flush();
}

}  // namespace zipflm
