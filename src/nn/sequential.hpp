// Ordered container of modules; owns them and chains forward/backward.
//
// infer walks the children through Module::infer_run, so a child may fuse
// with the siblings that follow it (QuantConv2d's level-domain chain,
// DESIGN.md §8); the result is bitwise the per-module loop over
// at(i).infer, which the tests keep as the oracle.
#pragma once

#include "nn/module.hpp"

namespace gbo::nn {

class Sequential : public Module {
 public:
  Sequential() = default;

  /// Appends a module; returns a typed raw pointer for later hooks
  /// (the container keeps ownership).
  template <typename M>
  M* add(std::unique_ptr<M> m) {
    M* raw = m.get();
    modules_.push_back(std::move(m));
    return raw;
  }

  template <typename M, typename... Args>
  M* emplace(Args&&... args) {
    return add(std::make_unique<M>(std::forward<Args>(args)...));
  }

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  Tensor infer(const Tensor& x, EvalContext& ctx) const override;
  std::vector<const Module*> children() const override;
  std::vector<Param*> params() override;
  std::vector<Param*> buffers() override;
  void set_training(bool training) override;
  std::string kind() const override { return "Sequential"; }

  std::size_t size() const { return modules_.size(); }
  Module& at(std::size_t i) { return *modules_.at(i); }
  const Module& at(std::size_t i) const { return *modules_.at(i); }

  /// Serializes the whole stack with "<prefix><index>." key prefixes.
  StateDict state_dict(const std::string& prefix = "") ;
  void load_state_dict(const StateDict& state, const std::string& prefix = "");

  /// Runs forward through layers [0, upto) only — used by the layer-wise
  /// noise-sensitivity analysis (Fig. 2) to splice noise mid-network.
  Tensor forward_prefix(const Tensor& x, std::size_t upto);
  /// Continues forward through layers [from, size()).
  Tensor forward_suffix(const Tensor& x, std::size_t from);

 private:
  std::vector<ModulePtr> modules_;
};

}  // namespace gbo::nn
