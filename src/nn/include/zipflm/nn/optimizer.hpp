// Optimizers used by the paper's two models (Section IV-B): plain SGD
// for the word LM, Adam with weight decay for the char LM.  Both expose
// a row-sparse step for embedding tables so the distributed exchange can
// hand them exactly the rows that changed, and a dense step over element
// ranges so a rank can update only the slice of each parameter it owns.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <span>
#include <unordered_map>
#include <vector>

#include "zipflm/nn/param.hpp"

namespace zipflm {

/// Elements [begin, end) of one parameter's flat value and gradient.
struct ParamRange {
  Param* param = nullptr;
  std::size_t begin = 0;
  std::size_t end = 0;
};

class Optimizer {
 public:
  virtual ~Optimizer() = default;

  /// Dense step over parameter ranges: value[i] -= update(grad[i]) for
  /// every i in each [begin, end).  The update is elementwise (clip is
  /// a per-element clamp), so a range ends at exactly the bytes a
  /// whole-parameter step leaves there.  Each parameter must be stepped
  /// over the same range every step: stateful optimizers keep their
  /// moments per range.
  virtual void step(std::span<const ParamRange> ranges) = 0;

  /// Dense step over whole parameters.
  void step(std::span<Param* const> params);

  /// Row-sparse step: table.value.row(ids[i]) -= update(rows.row(i)).
  /// ids must be unique (guaranteed by the unique exchange).
  virtual void step_rows(Param& table, const Tensor& rows,
                         std::span<const Index> ids) = 0;

  virtual void set_learning_rate(float lr) = 0;
  virtual float learning_rate() const = 0;

  /// Serialize internal state (moment tensors, step counts) for exact
  /// checkpoint/resume.  `params` fixes the parameter order and shapes;
  /// save and load must be given the same list (all_params() of the
  /// owning model).  Stateless optimizers write/read nothing.
  virtual void save_state(std::ostream& out,
                          std::span<Param* const> params) const;
  virtual void load_state(std::istream& in, std::span<Param* const> params);
};

/// SGD with optional gradient clipping and weight decay.
class Sgd final : public Optimizer {
 public:
  explicit Sgd(float lr, float clip = 0.0f, float weight_decay = 0.0f)
      : lr_(lr), clip_(clip), weight_decay_(weight_decay) {}

  using Optimizer::step;
  void step(std::span<const ParamRange> ranges) override;
  void step_rows(Param& table, const Tensor& rows,
                 std::span<const Index> ids) override;
  void set_learning_rate(float lr) override { lr_ = lr; }
  float learning_rate() const override { return lr_; }

 private:
  float lr_;
  float clip_;
  float weight_decay_;
};

/// Adam (Kingma & Ba) with decoupled weight decay.  Row-sparse steps
/// update first/second-moment state only for the touched rows ("sparse
/// Adam" semantics: bias correction uses the global step count).  A
/// range step keeps moments for that range only, so a rank that owns a
/// quarter of a parameter holds a quarter of its moments.
class Adam final : public Optimizer {
 public:
  struct Config {
    float lr = 1e-3f;
    float beta1 = 0.9f;
    float beta2 = 0.999f;
    float eps = 1e-8f;
    float weight_decay = 0.0f;
    float clip = 0.0f;
  };

  explicit Adam(Config config) : cfg_(config) {}

  using Optimizer::step;
  void step(std::span<const ParamRange> ranges) override;
  void step_rows(Param& table, const Tensor& rows,
                 std::span<const Index> ids) override;
  void set_learning_rate(float lr) override { cfg_.lr = lr; }
  float learning_rate() const override { return cfg_.lr; }

  /// Advance the shared timestep; call once per training step, before
  /// the step()/step_rows() calls of that step.
  void begin_step() { ++t_; }

  /// Whole-parameter layout: every present moment must cover its whole
  /// parameter (a rank holding owner slices has no standalone blob —
  /// DistributedTrainer stitches the slices into this same layout).
  void save_state(std::ostream& out,
                  std::span<Param* const> params) const override;
  void load_state(std::istream& in, std::span<Param* const> params) override;

  /// Direct state access, for checkpoint paths that assemble or re-slice
  /// moment slices across world sizes (dense owner chunks and row-sharded
  /// table slices alike).
  std::int64_t step_count() const noexcept { return t_; }
  void set_step_count(std::int64_t t) { t_ = t; }
  bool has_moments(const Param& p) const { return state_.contains(&p); }
  /// First/second moment of `p` over elements [moment_begin(p),
  /// moment_begin(p) + moment_m(p).size()); has_moments(p) must be true.
  const Tensor& moment_m(const Param& p) const { return state_.at(&p).m; }
  const Tensor& moment_v(const Param& p) const { return state_.at(&p).v; }
  std::size_t moment_begin(const Param& p) const {
    return state_.at(&p).begin;
  }
  /// Install (or replace) `p`'s moments over elements [begin, begin +
  /// m.size()); m and v must have equal sizes that fit in p.value.
  void set_moments(const Param& p, Tensor m, Tensor v, std::size_t begin = 0);
  /// Drop every parameter's moments (a manual load starts clean).
  void clear_moments() { state_.clear(); }
  /// Bytes held in moment tensors, over every parameter.
  std::size_t state_bytes() const;

 private:
  struct Moments {
    std::size_t begin = 0;
    Tensor m;
    Tensor v;
  };
  /// `p`'s moments over [begin, end), zero-initialized on first use.
  Moments& moments_for(const Param& p, std::size_t begin, std::size_t end);

  Config cfg_;
  std::int64_t t_ = 0;
  std::unordered_map<const Param*, Moments> state_;
};

/// The paper's learning-rate schedule (Section IV-B): base rate for an
/// 8-GPU node, multiplied by log_e(#nodes), decayed per epoch.
float scaled_learning_rate(float base_lr, int nodes, int epoch = 0,
                           float decay = 1.0f);

}  // namespace zipflm
