#include "nn/batchnorm.hpp"

#include <cmath>
#include <stdexcept>

namespace gbo::nn {

BatchNormBase::BatchNormBase(std::size_t num_features, float eps, float momentum)
    : features_(num_features), eps_(eps), momentum_(momentum) {
  gamma_ = Param("gamma", Tensor::ones({features_}));
  beta_ = Param("beta", Tensor({features_}));
  running_mean_ = Param("running_mean", Tensor({features_}));
  running_var_ = Param("running_var", Tensor::ones({features_}));
  running_mean_.requires_grad = false;
  running_var_.requires_grad = false;
}

std::vector<Param*> BatchNormBase::params() { return {&gamma_, &beta_}; }
std::vector<Param*> BatchNormBase::buffers() {
  return {&running_mean_, &running_var_};
}

Tensor BatchNormBase::forward_ncs(const Tensor& x, std::size_t n, std::size_t s) {
  const std::size_t c = features_;
  const std::size_t count = n * s;  // elements per channel
  if (count == 0) throw std::invalid_argument("BatchNorm: empty batch");

  Tensor out(x.shape());
  cached_xhat_ = Tensor(x.shape());
  cached_invstd_.assign(c, 0.0f);

  const float* in = x.data();
  float* xo = out.data();
  float* xh = cached_xhat_.data();
  const float* g = gamma_.value.data();
  const float* b = beta_.value.data();
  float* rm = running_mean_.value.data();
  float* rv = running_var_.value.data();

  for (std::size_t ch = 0; ch < c; ++ch) {
    float mean, var;
    if (training_) {
      double acc = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        const float* row = in + (i * c + ch) * s;
        for (std::size_t j = 0; j < s; ++j) acc += row[j];
      }
      mean = static_cast<float>(acc / count);
      double vacc = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        const float* row = in + (i * c + ch) * s;
        for (std::size_t j = 0; j < s; ++j) {
          const double d = row[j] - mean;
          vacc += d * d;
        }
      }
      var = static_cast<float>(vacc / count);  // biased, as in torch training
      // Running stats use the unbiased variance, matching torch semantics.
      const float unbiased =
          count > 1 ? static_cast<float>(vacc / (count - 1)) : var;
      rm[ch] = (1.0f - momentum_) * rm[ch] + momentum_ * mean;
      rv[ch] = (1.0f - momentum_) * rv[ch] + momentum_ * unbiased;
    } else {
      mean = rm[ch];
      var = rv[ch];
    }
    const float invstd = 1.0f / std::sqrt(var + eps_);
    cached_invstd_[ch] = invstd;
    for (std::size_t i = 0; i < n; ++i) {
      const float* row = in + (i * c + ch) * s;
      float* orow = xo + (i * c + ch) * s;
      float* hrow = xh + (i * c + ch) * s;
      for (std::size_t j = 0; j < s; ++j) {
        const float xhat = (row[j] - mean) * invstd;
        hrow[j] = xhat;
        orow[j] = g[ch] * xhat + b[ch];
      }
    }
  }
  return out;
}

Tensor BatchNormBase::infer_ncs(const Tensor& x, std::size_t n,
                                std::size_t s, EvalContext& ctx) const {
  const std::size_t c = features_;
  if (n * s == 0) throw std::invalid_argument("BatchNorm: empty batch");

  Tensor out = ctx.make(x.shape());
  const float* in = x.data();
  float* xo = out.data();
  const float* g = gamma_.value.data();
  const float* b = beta_.value.data();
  const float* rm = running_mean_.value.data();
  const float* rv = running_var_.value.data();

  for (std::size_t ch = 0; ch < c; ++ch) {
    // Per-channel constants in locals, so the element loop vectorizes (the
    // output cannot alias them); the arithmetic is forward_ncs's.
    const float mean = rm[ch];
    const float invstd = 1.0f / std::sqrt(rv[ch] + eps_);
    const float gc = g[ch], bc = b[ch];
    for (std::size_t i = 0; i < n; ++i) {
      const float* row = in + (i * c + ch) * s;
      float* orow = xo + (i * c + ch) * s;
      for (std::size_t j = 0; j < s; ++j) {
        const float xhat = (row[j] - mean) * invstd;
        orow[j] = gc * xhat + bc;
      }
    }
  }
  return out;
}

Tensor BatchNormBase::backward_ncs(const Tensor& grad_out, std::size_t n,
                                   std::size_t s) {
  const std::size_t c = features_;
  const std::size_t count = n * s;
  Tensor grad_in(grad_out.shape());

  const float* go = grad_out.data();
  const float* xh = cached_xhat_.data();
  float* gi = grad_in.data();
  const float* g = gamma_.value.data();
  float* gg = gamma_.grad.data();
  float* gb = beta_.grad.data();

  for (std::size_t ch = 0; ch < c; ++ch) {
    // Accumulate sum(dy) and sum(dy * xhat) for the channel.
    double sum_dy = 0.0, sum_dy_xhat = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const float* grow = go + (i * c + ch) * s;
      const float* hrow = xh + (i * c + ch) * s;
      for (std::size_t j = 0; j < s; ++j) {
        sum_dy += grow[j];
        sum_dy_xhat += static_cast<double>(grow[j]) * hrow[j];
      }
    }
    gb[ch] += static_cast<float>(sum_dy);
    gg[ch] += static_cast<float>(sum_dy_xhat);

    if (training_) {
      // dx = gamma*invstd/count * (count*dy - sum(dy) - xhat*sum(dy*xhat))
      const float k = g[ch] * cached_invstd_[ch] / static_cast<float>(count);
      const float sdy = static_cast<float>(sum_dy);
      const float sdyx = static_cast<float>(sum_dy_xhat);
      for (std::size_t i = 0; i < n; ++i) {
        const float* grow = go + (i * c + ch) * s;
        const float* hrow = xh + (i * c + ch) * s;
        float* irow = gi + (i * c + ch) * s;
        for (std::size_t j = 0; j < s; ++j)
          irow[j] = k * (static_cast<float>(count) * grow[j] - sdy -
                         hrow[j] * sdyx);
      }
    } else {
      // Eval-mode BN is an affine map with fixed statistics.
      const float k = g[ch] * cached_invstd_[ch];
      for (std::size_t i = 0; i < n; ++i) {
        const float* grow = go + (i * c + ch) * s;
        float* irow = gi + (i * c + ch) * s;
        for (std::size_t j = 0; j < s; ++j) irow[j] = k * grow[j];
      }
    }
  }
  return grad_in;
}

Tensor BatchNorm2d::forward(const Tensor& x) {
  if (x.ndim() != 4 || x.dim(1) != features_)
    throw std::invalid_argument("BatchNorm2d: bad input " + x.shape_str());
  cached_shape_ = x.shape();
  return forward_ncs(x, x.dim(0), x.dim(2) * x.dim(3));
}

Tensor BatchNorm2d::infer(const Tensor& x, EvalContext& ctx) const {
  if (x.ndim() != 4 || x.dim(1) != features_)
    throw std::invalid_argument("BatchNorm2d: bad input " + x.shape_str());
  return infer_ncs(x, x.dim(0), x.dim(2) * x.dim(3), ctx);
}

Tensor BatchNorm2d::backward(const Tensor& grad_out) {
  if (grad_out.shape() != cached_shape_)
    throw std::invalid_argument("BatchNorm2d::backward: shape mismatch");
  return backward_ncs(grad_out, grad_out.dim(0), grad_out.dim(2) * grad_out.dim(3));
}

Tensor BatchNorm1d::forward(const Tensor& x) {
  if (x.ndim() != 2 || x.dim(1) != features_)
    throw std::invalid_argument("BatchNorm1d: bad input " + x.shape_str());
  return forward_ncs(x, x.dim(0), 1);
}

Tensor BatchNorm1d::infer(const Tensor& x, EvalContext& ctx) const {
  if (x.ndim() != 2 || x.dim(1) != features_)
    throw std::invalid_argument("BatchNorm1d: bad input " + x.shape_str());
  return infer_ncs(x, x.dim(0), 1, ctx);
}

Tensor BatchNorm1d::backward(const Tensor& grad_out) {
  if (grad_out.shape() != cached_xhat_.shape())
    throw std::invalid_argument("BatchNorm1d::backward: shape mismatch");
  return backward_ncs(grad_out, grad_out.dim(0), 1);
}

}  // namespace gbo::nn
