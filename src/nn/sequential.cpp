#include "nn/sequential.hpp"

namespace gbo::nn {

Tensor Sequential::forward(const Tensor& x) { return forward_suffix(x, 0); }

Tensor Sequential::infer(const Tensor& x, EvalContext& ctx) const {
  if (modules_.empty()) return x;
  // Each child runs through the fusion seam (Module::infer_run) and may
  // consume the siblings after it. The first call reads the caller's input
  // directly (no copy); every finished intermediate goes back to the
  // context's arena, so a long-lived serving context replays the whole
  // chain without touching the heap.
  const std::span<const ModulePtr> all(modules_);
  Tensor cur;
  std::size_t i = modules_.front()->infer_run(all, x, ctx, cur);
  while (i < modules_.size()) {
    Tensor next;
    i += modules_[i]->infer_run(all.subspan(i), cur, ctx, next);
    ctx.recycle(std::move(cur));
    cur = std::move(next);
  }
  return cur;
}

Tensor Sequential::forward_prefix(const Tensor& x, std::size_t upto) {
  Tensor cur = x;
  for (std::size_t i = 0; i < upto && i < modules_.size(); ++i)
    cur = modules_[i]->forward(cur);
  return cur;
}

Tensor Sequential::forward_suffix(const Tensor& x, std::size_t from) {
  Tensor cur = x;
  for (std::size_t i = from; i < modules_.size(); ++i)
    cur = modules_[i]->forward(cur);
  return cur;
}

Tensor Sequential::backward(const Tensor& grad_out) {
  Tensor grad = grad_out;
  for (std::size_t i = modules_.size(); i-- > 0;)
    grad = modules_[i]->backward(grad);
  return grad;
}

std::vector<const Module*> Sequential::children() const {
  std::vector<const Module*> out;
  out.reserve(modules_.size());
  for (const auto& m : modules_) out.push_back(m.get());
  return out;
}

std::vector<Param*> Sequential::params() {
  std::vector<Param*> out;
  for (auto& m : modules_)
    for (Param* p : m->params()) out.push_back(p);
  return out;
}

std::vector<Param*> Sequential::buffers() {
  std::vector<Param*> out;
  for (auto& m : modules_)
    for (Param* b : m->buffers()) out.push_back(b);
  return out;
}

void Sequential::set_training(bool training) {
  training_ = training;
  for (auto& m : modules_) m->set_training(training);
}

StateDict Sequential::state_dict(const std::string& prefix) {
  StateDict state;
  for (std::size_t i = 0; i < modules_.size(); ++i)
    modules_[i]->collect_state(prefix + std::to_string(i) + ".", state);
  return state;
}

void Sequential::load_state_dict(const StateDict& state, const std::string& prefix) {
  for (std::size_t i = 0; i < modules_.size(); ++i)
    modules_[i]->load_state(prefix + std::to_string(i) + ".", state);
}

}  // namespace gbo::nn
