#include "gbo/scheme_search.hpp"

#include "core/pipeline.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>

namespace gbo::opt {

std::string SchemeCandidate::name() const {
  std::ostringstream os;
  os << (spec.scheme == enc::Scheme::kThermometer ? "TC" : "BS") << "-"
     << spec.num_pulses;
  return os.str();
}

std::vector<SchemeCandidate> default_mixed_candidates(std::size_t base_pulses) {
  std::vector<SchemeCandidate> out;
  // Thermometer at the paper's PLA pulse lengths {p/2 .. 2p}.
  for (double scale : {0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0}) {
    SchemeCandidate c;
    c.spec.scheme = enc::Scheme::kThermometer;
    c.spec.num_pulses = enc::scaled_pulse_count(scale, base_pulses);
    out.push_back(c);
  }
  // Bit slicing carrying comparable information: 3 pulses ≈ 8 levels
  // (vs thermometer's 9 levels at 8 pulses), then 4 pulses = 16 levels.
  for (std::size_t p : {3, 4}) {
    SchemeCandidate c;
    c.spec.scheme = enc::Scheme::kBitSlicing;
    c.spec.num_pulses = p;
    out.push_back(c);
  }
  return out;
}

float evaluate_selection(const nn::Sequential& net,
                         xbar::LayerNoiseController& ctrl,
                         const std::vector<SchemeCandidate>& selection,
                         const data::Dataset& test, std::size_t trials,
                         std::size_t batch_size) {
  if (selection.size() != ctrl.num_layers())
    throw std::invalid_argument(
        "evaluate_selection: selection length does not match the network");
  std::vector<enc::EncodingSpec> specs;
  specs.reserve(selection.size());
  for (const SchemeCandidate& c : selection) specs.push_back(c.spec);
  ctrl.set_specs(specs);
  return core::evaluate_noisy(net, ctrl, test, trials, batch_size);
}

namespace {

std::vector<std::size_t> candidate_pulses(const MixedGboConfig& cfg) {
  std::vector<std::size_t> out;
  for (const SchemeCandidate& c : cfg.candidates) out.push_back(c.pulses());
  return out;
}

std::vector<double> candidate_stddevs(const MixedGboConfig& cfg) {
  std::vector<double> out;
  for (const SchemeCandidate& c : cfg.candidates)
    out.push_back(cfg.sigma * std::sqrt(c.variance_factor()));
  return out;
}

}  // namespace

MixedLayerState::MixedLayerState(const MixedGboConfig& cfg, Rng rng)
    : SchemeMixtureState(candidate_pulses(cfg), candidate_stddevs(cfg),
                         cfg.gamma, rng, "MixedLayerState"),
      candidates_(cfg.candidates) {}

MixedGboTrainer::MixedGboTrainer(nn::Sequential& net,
                                 std::vector<quant::Hookable*> encoded_layers,
                                 const MixedGboConfig& cfg)
    : LambdaTrainer(net, std::move(encoded_layers), cfg, "MixedGBO",
                    [&cfg](Rng rng) {
                      return std::make_unique<MixedLayerState>(cfg, rng);
                    }) {}

std::vector<SchemeCandidate> MixedGboTrainer::selected() const {
  std::vector<SchemeCandidate> out;
  out.reserve(states_.size());
  for (const auto& st : states_)
    out.push_back(static_cast<const MixedLayerState&>(*st).selected());
  return out;
}

std::string MixedGboTrainer::selection_string() const {
  const std::vector<SchemeCandidate> sel = selected();
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < sel.size(); ++i) {
    if (i) os << ", ";
    os << sel[i].name();
  }
  os << "]";
  return os.str();
}

}  // namespace gbo::opt
