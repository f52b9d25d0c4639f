#include "nn/module.hpp"

#include <stdexcept>

namespace gbo::nn {

Tensor Module::infer(const Tensor& /*x*/, EvalContext& /*ctx*/) const {
  throw std::logic_error(kind() + ": stateless infer() not implemented");
}

std::size_t Module::infer_run(std::span<const ModulePtr> /*run*/,
                              const Tensor& x, EvalContext& ctx,
                              Tensor& out) const {
  out = infer(x, ctx);
  return 1;
}

void Module::collect_state(const std::string& prefix, StateDict& out) {
  for (Param* p : params())
    out[prefix + p->name] = NamedBlob{p->value.shape(), p->value.vec()};
  for (Param* b : buffers())
    out[prefix + b->name] = NamedBlob{b->value.shape(), b->value.vec()};
}

void Module::load_state(const std::string& prefix, const StateDict& in) {
  auto restore = [&](Param* p) {
    const std::string key = prefix + p->name;
    auto it = in.find(key);
    if (it == in.end())
      throw std::runtime_error("load_state: missing key '" + key + "'");
    if (it->second.shape != p->value.shape())
      throw std::runtime_error("load_state: shape mismatch for '" + key + "'");
    p->value.vec() = it->second.data;
    p->grad = Tensor(p->value.shape());
  };
  for (Param* p : params()) restore(p);
  for (Param* b : buffers()) restore(b);
}

}  // namespace gbo::nn
