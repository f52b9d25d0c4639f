#include "nn/pooling.hpp"

#include <limits>
#include <stdexcept>

namespace gbo::nn {

MaxPool2d::MaxPool2d(std::size_t window) : window_(window) {
  if (window == 0)
    throw std::invalid_argument("MaxPool2d: window must be >= 1");
}

AvgPool2d::AvgPool2d(std::size_t window) : window_(window) {
  if (window == 0)
    throw std::invalid_argument("AvgPool2d: window must be >= 1");
}

Tensor MaxPool2d::pool(const Tensor& x, std::vector<std::size_t>* argmax,
                       EvalContext* ctx) const {
  if (x.ndim() != 4) throw std::invalid_argument("MaxPool2d: expected NCHW");
  const std::size_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  if (h % window_ != 0 || w % window_ != 0)
    throw std::invalid_argument("MaxPool2d: size not divisible by window");
  const std::size_t oh = h / window_, ow = w / window_;
  Tensor out = ctx ? ctx->make({n, c, oh, ow}) : Tensor({n, c, oh, ow});
  if (argmax) argmax->assign(out.numel(), 0);

  const float* in = x.data();
  float* o = out.data();
  std::size_t oidx = 0;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t ch = 0; ch < c; ++ch) {
      const float* plane = in + (i * c + ch) * h * w;
      for (std::size_t oy = 0; oy < oh; ++oy)
        for (std::size_t ox = 0; ox < ow; ++ox, ++oidx) {
          float best = -std::numeric_limits<float>::infinity();
          std::size_t best_idx = 0;
          for (std::size_t ky = 0; ky < window_; ++ky)
            for (std::size_t kx = 0; kx < window_; ++kx) {
              const std::size_t iy = oy * window_ + ky;
              const std::size_t ix = ox * window_ + kx;
              const float v = plane[iy * w + ix];
              if (v > best) {
                best = v;
                best_idx = (i * c + ch) * h * w + iy * w + ix;
              }
            }
          o[oidx] = best;
          if (argmax) (*argmax)[oidx] = best_idx;
        }
    }
  return out;
}

Tensor MaxPool2d::forward(const Tensor& x) {
  Tensor out = pool(x, &cached_argmax_, nullptr);
  cached_shape_ = x.shape();
  return out;
}

Tensor MaxPool2d::infer(const Tensor& x, EvalContext& ctx) const {
  return pool(x, nullptr, &ctx);
}

namespace {

/// True when grad_out has the pooled shape of the cached forward input.
bool matches_pooled(const Tensor& grad_out,
                    const std::vector<std::size_t>& in_shape,
                    std::size_t window) {
  return in_shape.size() == 4 &&
         grad_out.shape() == std::vector<std::size_t>{in_shape[0], in_shape[1],
                                                      in_shape[2] / window,
                                                      in_shape[3] / window};
}

}  // namespace

Tensor MaxPool2d::backward(const Tensor& grad_out) {
  if (!matches_pooled(grad_out, cached_shape_, window_))
    throw std::invalid_argument("MaxPool2d::backward: shape mismatch");
  Tensor grad_in(cached_shape_);
  float* gi = grad_in.data();
  const float* go = grad_out.data();
  for (std::size_t i = 0; i < grad_out.numel(); ++i)
    gi[cached_argmax_[i]] += go[i];
  return grad_in;
}

Tensor AvgPool2d::pool(const Tensor& x, EvalContext* ctx) const {
  if (x.ndim() != 4) throw std::invalid_argument("AvgPool2d: expected NCHW");
  const std::size_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  if (h % window_ != 0 || w % window_ != 0)
    throw std::invalid_argument("AvgPool2d: size not divisible by window");
  const std::size_t oh = h / window_, ow = w / window_;
  Tensor out = ctx ? ctx->make({n, c, oh, ow}) : Tensor({n, c, oh, ow});
  const float inv = 1.0f / static_cast<float>(window_ * window_);

  const float* in = x.data();
  float* o = out.data();
  std::size_t oidx = 0;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t ch = 0; ch < c; ++ch) {
      const float* plane = in + (i * c + ch) * h * w;
      for (std::size_t oy = 0; oy < oh; ++oy)
        for (std::size_t ox = 0; ox < ow; ++ox, ++oidx) {
          float acc = 0.0f;
          for (std::size_t ky = 0; ky < window_; ++ky)
            for (std::size_t kx = 0; kx < window_; ++kx)
              acc += plane[(oy * window_ + ky) * w + ox * window_ + kx];
          o[oidx] = acc * inv;
        }
    }
  return out;
}

Tensor AvgPool2d::forward(const Tensor& x) {
  Tensor out = pool(x, nullptr);
  cached_shape_ = x.shape();
  return out;
}

Tensor AvgPool2d::infer(const Tensor& x, EvalContext& ctx) const {
  return pool(x, &ctx);
}

Tensor AvgPool2d::backward(const Tensor& grad_out) {
  if (!matches_pooled(grad_out, cached_shape_, window_))
    throw std::invalid_argument("AvgPool2d::backward: shape mismatch");
  const std::size_t n = cached_shape_[0], c = cached_shape_[1],
                    h = cached_shape_[2], w = cached_shape_[3];
  const std::size_t oh = h / window_, ow = w / window_;
  const float inv = 1.0f / static_cast<float>(window_ * window_);
  Tensor grad_in(cached_shape_);
  float* gi = grad_in.data();
  const float* go = grad_out.data();
  std::size_t oidx = 0;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t ch = 0; ch < c; ++ch) {
      float* plane = gi + (i * c + ch) * h * w;
      for (std::size_t oy = 0; oy < oh; ++oy)
        for (std::size_t ox = 0; ox < ow; ++ox, ++oidx) {
          const float g = go[oidx] * inv;
          for (std::size_t ky = 0; ky < window_; ++ky)
            for (std::size_t kx = 0; kx < window_; ++kx)
              plane[(oy * window_ + ky) * w + ox * window_ + kx] += g;
        }
    }
  return grad_in;
}

}  // namespace gbo::nn
