#include "zipflm/nn/optimizer.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>

#include "zipflm/support/serialize.hpp"
#include "zipflm/support/thread_pool.hpp"
#include "zipflm/tensor/ops.hpp"
#include "zipflm/tensor/simd.hpp"

namespace zipflm {

namespace {

// Optimizer updates are elementwise, so they vectorize and chunk freely:
// every split produces the same bytes.  The spans below keep the exact
// per-element operation order of the scalar originals (clip, moment
// update, bias-corrected step), with the bias-correction denominators
// hoisted out of the loop — they depend only on the step count, and
// recomputing std::pow per element dominated the old Adam step.

template <class V>
void sgd_span(float* value, const float* grad, std::size_t n, float lr,
              float wd, float clip_limit) {
  using Reg = typename V::Reg;
  const bool use_clip = clip_limit > 0.0f;
  const Reg lo = V::set1(-clip_limit);
  const Reg hi = V::set1(clip_limit);
  const Reg lrv = V::set1(lr);
  const Reg wdv = V::set1(wd);
  std::size_t i = 0;
  for (; i + V::kWidth <= n; i += V::kWidth) {
    Reg g = V::load(grad + i);
    if (use_clip) g = V::min(V::max(g, lo), hi);
    const Reg v = V::load(value + i);
    V::store(value + i, V::sub(v, V::mul(lrv, V::add(g, V::mul(wdv, v)))));
  }
  for (; i < n; ++i) {
    float g = grad[i];
    if (use_clip) {
      g = simd::ScalarOps::min(simd::ScalarOps::max(g, -clip_limit),
                               clip_limit);
    }
    value[i] -= lr * (g + wd * value[i]);
  }
}

template <class V>
void adam_span(float* value, const float* grad, float* m, float* v,
               std::size_t n, const Adam::Config& cfg, float bc1, float bc2) {
  using Reg = typename V::Reg;
  const bool use_clip = cfg.clip > 0.0f;
  const Reg lo = V::set1(-cfg.clip);
  const Reg hi = V::set1(cfg.clip);
  const Reg b1 = V::set1(cfg.beta1);
  const Reg ob1 = V::set1(1.0f - cfg.beta1);
  const Reg b2 = V::set1(cfg.beta2);
  const Reg ob2 = V::set1(1.0f - cfg.beta2);
  const Reg bc1v = V::set1(bc1);
  const Reg bc2v = V::set1(bc2);
  const Reg epsv = V::set1(cfg.eps);
  const Reg lrv = V::set1(cfg.lr);
  const Reg wdv = V::set1(cfg.weight_decay);
  std::size_t i = 0;
  for (; i + V::kWidth <= n; i += V::kWidth) {
    Reg g = V::load(grad + i);
    if (use_clip) g = V::min(V::max(g, lo), hi);
    const Reg mv = V::add(V::mul(b1, V::load(m + i)), V::mul(ob1, g));
    const Reg vv =
        V::add(V::mul(b2, V::load(v + i)), V::mul(V::mul(ob2, g), g));
    V::store(m + i, mv);
    V::store(v + i, vv);
    const Reg mhat = V::div(mv, bc1v);
    const Reg vhat = V::div(vv, bc2v);
    const Reg val = V::load(value + i);
    const Reg upd = V::add(V::div(mhat, V::add(V::sqrt_(vhat), epsv)),
                           V::mul(wdv, val));
    V::store(value + i, V::sub(val, V::mul(lrv, upd)));
  }
  for (; i < n; ++i) {
    float g = grad[i];
    if (use_clip) {
      g = simd::ScalarOps::min(simd::ScalarOps::max(g, -cfg.clip), cfg.clip);
    }
    float& mi = m[i];
    float& vi = v[i];
    mi = cfg.beta1 * mi + (1.0f - cfg.beta1) * g;
    vi = cfg.beta2 * vi + (1.0f - cfg.beta2) * g * g;
    const float mhat = mi / bc1;
    const float vhat = vi / bc2;
    value[i] -= cfg.lr * (mhat / (std::sqrt(vhat) + cfg.eps) +
                          cfg.weight_decay * value[i]);
  }
}

/// A row-sparse table has no dense gradient to step on: its rows go
/// through step_rows.
void check_range(const ParamRange& r) {
  const Param& p = *r.param;
  ZIPFLM_CHECK(p.grad.size() == p.value.size(),
               "dense optimizer step on row-sparse parameter " + p.name);
  ZIPFLM_CHECK(r.begin <= r.end &&
                   r.end <= static_cast<std::size_t>(p.value.size()),
               "optimizer step range outside parameter " + p.name);
}

template <class Fn>
void dispatch_chunks(std::size_t n, const Fn& fn) {
  ThreadPool::global().parallel_chunks(n, fn);
}

}  // namespace

void Optimizer::save_state(std::ostream&, std::span<Param* const>) const {}
void Optimizer::load_state(std::istream&, std::span<Param* const>) {}

void Optimizer::step(std::span<Param* const> params) {
  std::vector<ParamRange> whole;
  whole.reserve(params.size());
  for (Param* p : params) {
    whole.push_back({p, 0, static_cast<std::size_t>(p->value.size())});
  }
  step(std::span<const ParamRange>(whole));
}

void Sgd::step(std::span<const ParamRange> ranges) {
  const bool native = simd::active_backend() == simd::Backend::kNative;
  for (const ParamRange& r : ranges) {
    check_range(r);
    const float* g = r.param->grad.data().data() + r.begin;
    float* v = r.param->value.data().data() + r.begin;
    dispatch_chunks(r.end - r.begin, [&](std::size_t b, std::size_t e) {
      if (native) {
        sgd_span<simd::NativeOps>(v + b, g + b, e - b, lr_, weight_decay_,
                                  clip_);
      } else {
        sgd_span<simd::ScalarOps>(v + b, g + b, e - b, lr_, weight_decay_,
                                  clip_);
      }
    });
  }
}

void Sgd::step_rows(Param& table, const Tensor& rows,
                    std::span<const Index> ids) {
  ZIPFLM_CHECK(rows.rank() == 2 && rows.cols() == table.value.cols(),
               "sparse step row width must match the table");
  ZIPFLM_CHECK(rows.rows() == static_cast<Index>(ids.size()),
               "one id per gradient row");
  const bool native = simd::active_backend() == simd::Backend::kNative;
  const std::size_t width = static_cast<std::size_t>(table.value.cols());
  const float* src = rows.data().data();
  float* val = table.value.data().data();
  // ids are unique (unique-exchange contract), so rows are independent.
  dispatch_chunks(ids.size(), [&](std::size_t rb, std::size_t re) {
    for (std::size_t i = rb; i < re; ++i) {
      float* dst = val + static_cast<std::size_t>(ids[i]) * width;
      const float* g = src + i * width;
      if (native) {
        sgd_span<simd::NativeOps>(dst, g, width, lr_, weight_decay_, clip_);
      } else {
        sgd_span<simd::ScalarOps>(dst, g, width, lr_, weight_decay_, clip_);
      }
    }
  });
}

Adam::Moments& Adam::moments_for(const Param& p, std::size_t begin,
                                 std::size_t end) {
  auto it = state_.find(&p);
  if (it == state_.end()) {
    Moments mo;
    mo.begin = begin;
    if (begin == 0 && end == static_cast<std::size_t>(p.value.size())) {
      mo.m = Tensor(p.value.shape());
      mo.v = Tensor(p.value.shape());
    } else {
      mo.m = Tensor({static_cast<Index>(end - begin)});
      mo.v = Tensor({static_cast<Index>(end - begin)});
    }
    it = state_.emplace(&p, std::move(mo)).first;
  }
  ZIPFLM_CHECK(it->second.begin == begin &&
                   static_cast<std::size_t>(it->second.m.size()) ==
                       end - begin,
               "Adam: moments of " + p.name +
                   " cover a different range than this step (restore the "
                   "optimizer state after the world size changes)");
  return it->second;
}

void Adam::set_moments(const Param& p, Tensor m, Tensor v, std::size_t begin) {
  ZIPFLM_CHECK(m.size() == v.size() &&
                   begin + static_cast<std::size_t>(m.size()) <=
                       static_cast<std::size_t>(p.value.size()),
               "Adam::set_moments: moments must fit the parameter");
  state_[&p] = Moments{begin, std::move(m), std::move(v)};
}

std::size_t Adam::state_bytes() const {
  std::size_t bytes = 0;
  for (const auto& [p, mo] : state_) bytes += mo.m.bytes() + mo.v.bytes();
  return bytes;
}

void Adam::step(std::span<const ParamRange> ranges) {
  const float t = static_cast<float>(std::max<std::int64_t>(t_, 1));
  const float bc1 = 1.0f - std::pow(cfg_.beta1, t);
  const float bc2 = 1.0f - std::pow(cfg_.beta2, t);
  const bool native = simd::active_backend() == simd::Backend::kNative;
  for (const ParamRange& r : ranges) {
    check_range(r);
    Moments& mo = moments_for(*r.param, r.begin, r.end);
    const float* g = r.param->grad.data().data() + r.begin;
    float* v = r.param->value.data().data() + r.begin;
    float* m_p = mo.m.data().data();
    float* v_p = mo.v.data().data();
    dispatch_chunks(r.end - r.begin, [&](std::size_t b, std::size_t e) {
      if (native) {
        adam_span<simd::NativeOps>(v + b, g + b, m_p + b, v_p + b, e - b,
                                   cfg_, bc1, bc2);
      } else {
        adam_span<simd::ScalarOps>(v + b, g + b, m_p + b, v_p + b, e - b,
                                   cfg_, bc1, bc2);
      }
    });
  }
}

void Adam::step_rows(Param& table, const Tensor& rows,
                     std::span<const Index> ids) {
  ZIPFLM_CHECK(rows.rank() == 2 && rows.cols() == table.value.cols(),
               "sparse step row width must match the table");
  ZIPFLM_CHECK(rows.rows() == static_cast<Index>(ids.size()),
               "one id per gradient row");
  Moments& mo =
      moments_for(table, 0, static_cast<std::size_t>(table.value.size()));
  const float t = static_cast<float>(std::max<std::int64_t>(t_, 1));
  const float bc1 = 1.0f - std::pow(cfg_.beta1, t);
  const float bc2 = 1.0f - std::pow(cfg_.beta2, t);
  const bool native = simd::active_backend() == simd::Backend::kNative;
  const std::size_t width = static_cast<std::size_t>(table.value.cols());
  const float* src = rows.data().data();
  float* val = table.value.data().data();
  float* m_p = mo.m.data().data();
  float* v_p = mo.v.data().data();
  // ids are unique (unique-exchange contract), so rows are independent.
  dispatch_chunks(ids.size(), [&](std::size_t rb, std::size_t re) {
    for (std::size_t i = rb; i < re; ++i) {
      const std::size_t base = static_cast<std::size_t>(ids[i]) * width;
      if (native) {
        adam_span<simd::NativeOps>(val + base, src + i * width, m_p + base,
                                   v_p + base, width, cfg_, bc1, bc2);
      } else {
        adam_span<simd::ScalarOps>(val + base, src + i * width, m_p + base,
                                   v_p + base, width, cfg_, bc1, bc2);
      }
    }
  });
}

void Adam::save_state(std::ostream& out,
                      std::span<Param* const> params) const {
  write_pod<std::int64_t>(out, t_);
  for (const Param* p : params) {
    const auto it = state_.find(p);
    write_pod<std::uint8_t>(out, it != state_.end() ? 1 : 0);
    if (it == state_.end()) continue;
    const Moments& mo = it->second;
    ZIPFLM_CHECK(mo.begin == 0 && mo.m.size() == p->value.size(),
                 "Adam::save_state: moments of " + p->name +
                     " are an owner slice, not the whole parameter");
    out.write(reinterpret_cast<const char*>(mo.m.data().data()),
              static_cast<std::streamsize>(mo.m.bytes()));
    out.write(reinterpret_cast<const char*>(mo.v.data().data()),
              static_cast<std::streamsize>(mo.v.bytes()));
  }
  ZIPFLM_CHECK(out.good(), "optimizer state write failed");
}

void Adam::load_state(std::istream& in, std::span<Param* const> params) {
  state_.clear();
  t_ = read_pod<std::int64_t>(in);
  ZIPFLM_CHECK(t_ >= 0, "negative Adam step count in optimizer state");
  for (Param* p : params) {
    if (read_pod<std::uint8_t>(in) == 0) continue;
    Moments& mo =
        moments_for(*p, 0, static_cast<std::size_t>(p->value.size()));
    in.read(reinterpret_cast<char*>(mo.m.data().data()),
            static_cast<std::streamsize>(mo.m.bytes()));
    in.read(reinterpret_cast<char*>(mo.v.data().data()),
            static_cast<std::streamsize>(mo.v.bytes()));
    ZIPFLM_CHECK(in.good(),
                 "optimizer state truncated for parameter " + p->name);
  }
}

float scaled_learning_rate(float base_lr, int nodes, int epoch, float decay) {
  ZIPFLM_CHECK(nodes >= 1, "node count must be positive");
  // Paper: multiply the 8-GPU base rate by log_e(#nodes).  Clamped below
  // at 1 so 1-2 node runs keep the base rate (ln 2 < 1 would otherwise
  // *reduce* the rate when adding the second node).
  const float scale = std::max(1.0f, std::log(static_cast<float>(nodes)));
  return base_lr * scale * std::pow(decay, static_cast<float>(epoch));
}

}  // namespace zipflm
