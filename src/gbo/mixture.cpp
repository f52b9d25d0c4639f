#include "gbo/mixture.hpp"

#include "common/keyed_normal.hpp"
#include "common/logging.hpp"
#include "common/thread_pool.hpp"
#include "nn/loss.hpp"
#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace gbo::opt {
namespace {

// Output elements per parallel_for block of the mixture add.
constexpr std::size_t kMixGrain = 8192;

}  // namespace

std::vector<double> softmax(const std::vector<double>& z) {
  std::vector<double> a(z.size());
  double mx = z[0];
  for (std::size_t k = 1; k < z.size(); ++k) mx = std::max(mx, z[k]);
  double denom = 0.0;
  for (std::size_t k = 0; k < z.size(); ++k) {
    a[k] = std::exp(z[k] - mx);
    denom += a[k];
  }
  for (double& v : a) v /= denom;
  return a;
}

SchemeMixtureState::SchemeMixtureState(std::vector<std::size_t> pulses,
                                       const std::vector<double>& stddevs,
                                       double gamma, Rng rng, const char* who)
    : rng_(rng),
      pulses_(std::move(pulses)),
      stddevs_(stddevs.begin(), stddevs.end()),
      gamma_(gamma),
      who_(who) {
  if (pulses_.empty())
    throw std::invalid_argument(std::string(who) + ": empty scheme set");
  // λ starts uniform (all schemes equally likely).
  lambda_ = nn::Param("lambda", Tensor({pulses_.size()}));
}

std::vector<double> SchemeMixtureState::alpha() const {
  std::vector<double> z(pulses_.size());
  for (std::size_t k = 0; k < z.size(); ++k) z[k] = lambda_.value[k];
  return softmax(z);
}

double SchemeMixtureState::expected_pulses() const {
  const auto a = alpha();
  double expected = 0.0;
  for (std::size_t k = 0; k < pulses_.size(); ++k)
    expected += a[k] * static_cast<double>(pulses_[k]);
  return expected;
}

std::size_t SchemeMixtureState::selected_scheme() const {
  std::size_t best = 0;
  for (std::size_t k = 1; k < pulses_.size(); ++k)
    if (lambda_.value[k] > lambda_.value[best]) best = k;
  return best;
}

void SchemeMixtureState::on_forward(Tensor& out) {
  cached_alpha_ = alpha();
  draw_noise(out);
  add_noise(out, cached_alpha_);
}

void SchemeMixtureState::on_backward(const Tensor& grad_out) {
  accumulate_noise_grad(grad_out, cached_alpha_, 1.0);
}

void SchemeMixtureState::accumulate_latency_grad() {
  accumulate_pulse_grad(alpha(), 1.0);
}

void SchemeMixtureState::draw_noise(const Tensor& out) {
  const std::size_t m = pulses_.size(), n = out.numel();
  noise_.resize(m);
  noise_data_.resize(m);
  for (std::size_t k = 0; k < m; ++k) {
    if (noise_[k].shape() != out.shape()) noise_[k] = Tensor(out.shape());
    noise_data_[k] = noise_[k].data();
  }
  // One key per call; ε_k is keyed stream k, drawn in fixed blocks of one
  // pool pass over all m tensors.
  const std::uint64_t key = rng_();
  const std::size_t blocks = (n + kKeyedNormalGrain - 1) / kKeyedNormalGrain;
  parallel_for(0, m * blocks, 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t b = lo; b < hi; ++b) {
      const std::size_t k = b / blocks, i = b % blocks * kKeyedNormalGrain;
      keyed_normal(key, i, noise_data_[k] + i,
                   std::min(kKeyedNormalGrain, n - i), stddevs_[k],
                   static_cast<std::uint32_t>(k));
    }
  });
}

void SchemeMixtureState::add_noise(Tensor& out,
                                   const std::vector<double>& w) const {
  float* o = out.data();
  parallel_for(0, out.numel(), kMixGrain, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t k = 0; k < noise_.size(); ++k) {
      const float s = static_cast<float>(w[k]);
      const float* e = noise_[k].data();
      for (std::size_t i = lo; i < hi; ++i) o[i] += s * e[i];
    }
  });
}

void SchemeMixtureState::accumulate_noise_grad(const Tensor& grad_out,
                                               const std::vector<double>& w,
                                               double tau) {
  const std::size_t m = pulses_.size();
  if (noise_.size() != m || w.size() != m)
    throw std::logic_error(std::string(who_) + ": backward without forward");
  std::vector<double> c(m, 0.0);
  const float* g = grad_out.data();
  const std::size_t n = grad_out.numel();
  parallel_for(0, m, 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t k = lo; k < hi; ++k) {
      const float* e = noise_[k].data();
      double acc = 0.0;
      for (std::size_t i = 0; i < n; ++i)
        acc += static_cast<double>(g[i]) * e[i];
      c[k] = acc;
    }
  });
  double mean_c = 0.0;
  for (std::size_t k = 0; k < m; ++k) mean_c += w[k] * c[k];
  for (std::size_t j = 0; j < m; ++j)
    lambda_.grad[j] += static_cast<float>(w[j] * (c[j] - mean_c) / tau);
}

void SchemeMixtureState::accumulate_pulse_grad(const std::vector<double>& w,
                                               double tau) {
  const std::size_t m = pulses_.size();
  double expected = 0.0;
  for (std::size_t k = 0; k < m; ++k)
    expected += w[k] * static_cast<double>(pulses_[k]);
  for (std::size_t j = 0; j < m; ++j)
    lambda_.grad[j] += static_cast<float>(
        gamma_ * w[j] * (static_cast<double>(pulses_[j]) - expected) / tau);
}

LambdaTrainer::LambdaTrainer(
    nn::Sequential& net, std::vector<quant::Hookable*> encoded_layers,
    const LambdaLoopConfig& loop, const char* name,
    const std::function<std::unique_ptr<SchemeMixtureState>(Rng)>& make_state)
    : net_(net), layers_(std::move(encoded_layers)), loop_(loop), name_(name) {
  if (loop_.batch_size == 0)
    throw std::invalid_argument(std::string(name_) + ": batch_size must be > 0");
  Rng rng(loop_.seed);
  states_.reserve(layers_.size());
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    states_.push_back(make_state(rng.fork(i + 1)));
    layers_[i]->set_noise_hook(states_[i].get());
  }
  // Freeze the pre-trained network: GBO only trains λ (paper §III-A).
  for (nn::Param* p : net_.params()) {
    saved_requires_grad_.push_back(p->requires_grad);
    p->requires_grad = false;
  }
  // BN running statistics are frozen too (eval mode) for stable convergence.
  net_.set_training(false);
}

LambdaTrainer::~LambdaTrainer() {
  for (auto* layer : layers_) layer->set_noise_hook(nullptr);
  auto params = net_.params();
  for (std::size_t i = 0;
       i < params.size() && i < saved_requires_grad_.size(); ++i)
    params[i]->requires_grad = saved_requires_grad_[i];
}

std::vector<GboEpochStats> LambdaTrainer::train(const data::Dataset& train) {
  if (train.size() == 0) {
    log_warn(name_, ": empty training dataset, returning zeroed stats");
    return std::vector<GboEpochStats>(loop_.epochs);
  }
  std::vector<nn::Param*> lambdas;
  lambdas.reserve(states_.size());
  for (auto& st : states_) lambdas.push_back(&st->lambda());
  nn::Adam opt(lambdas, loop_.lr);

  Rng loader_rng(loop_.seed ^ 0xABCDEF);
  data::DataLoader loader(train, loop_.batch_size, /*shuffle=*/true,
                          loader_rng);

  std::vector<GboEpochStats> history;
  for (std::size_t epoch = 0; epoch < loop_.epochs; ++epoch) {
    begin_epoch(epoch);
    GboEpochStats stats;
    std::size_t batches = 0, correct = 0, seen = 0;
    loader.reset();
    data::Batch batch;
    while (loader.next(batch)) {
      opt.zero_grad();
      Tensor logits = net_.forward(batch.images);
      Tensor grad;
      const float ce =
          nn::CrossEntropy::forward_backward(logits, batch.labels, grad);
      net_.backward(grad);  // λ gradients accumulate via on_backward
      for (auto& st : states_) st->accumulate_latency_grad();
      opt.step();

      stats.loss_ce += ce;
      const auto preds = ops::argmax_rows(logits);
      for (std::size_t i = 0; i < preds.size(); ++i)
        if (preds[i] == batch.labels[i]) ++correct;
      seen += preds.size();
      ++batches;
    }
    stats.loss_ce /= static_cast<float>(batches);
    stats.train_accuracy =
        static_cast<float>(correct) / static_cast<float>(seen);
    double total_expected = 0.0, latency_loss = 0.0;
    for (auto& st : states_) {
      const double e = st->expected_pulses();
      total_expected += e;
      latency_loss += loop_.gamma * e;
    }
    stats.loss_latency = static_cast<float>(latency_loss);
    stats.avg_expected_pulses =
        total_expected / static_cast<double>(states_.size());
    history.push_back(stats);
    log_info(name_, " epoch ", epoch + 1, "/", loop_.epochs,
             " ce=", stats.loss_ce, " acc=", stats.train_accuracy,
             " avg_pulses=", stats.avg_expected_pulses);
  }
  return history;
}

std::vector<std::size_t> LambdaTrainer::selected_pulses() const {
  std::vector<std::size_t> out;
  out.reserve(states_.size());
  for (const auto& st : states_) out.push_back(st->selected_pulses());
  return out;
}

double LambdaTrainer::avg_selected_pulses() const {
  double acc = 0.0;
  for (const auto& st : states_)
    acc += static_cast<double>(st->selected_pulses());
  return states_.empty() ? 0.0 : acc / static_cast<double>(states_.size());
}

}  // namespace gbo::opt
