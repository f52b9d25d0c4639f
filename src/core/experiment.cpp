#include "core/experiment.hpp"

#include "common/artifact_cache.hpp"
#include "common/keyed_normal.hpp"
#include "common/logging.hpp"
#include "data/cifar10.hpp"

#include <cstdlib>
#include <sstream>

namespace gbo::core {
namespace {

std::size_t env_size(const char* name, std::size_t fallback) {
  if (const char* v = std::getenv(name); v && *v) {
    const long parsed = std::atol(v);
    if (parsed > 0) return static_cast<std::size_t>(parsed);
  }
  return fallback;
}

float env_float(const char* name, float fallback) {
  if (const char* v = std::getenv(name); v && *v) {
    const float parsed = static_cast<float>(std::atof(v));
    if (parsed > 0.0f) return parsed;
  }
  return fallback;
}

}  // namespace

std::string StandardConfig::data_fingerprint() const {
  std::ostringstream oss;
  oss << data.fingerprint() << ":tr" << num_train << ":te" << num_test;
  return oss.str();
}

StandardConfig standard_config() {
  StandardConfig cfg;
  cfg.model.width = env_size("GBO_WIDTH", 16);
  cfg.model.image_size = env_size("GBO_IMAGE", 16);
  cfg.data.image_size = cfg.model.image_size;
  // Difficulty knob: tuned so the reduced VGG9 lands near the paper's 90.8%
  // clean-accuracy operating point.
  cfg.data.pixel_noise_std = env_float("GBO_DATA_NOISE", 0.85f);
  cfg.num_train = env_size("GBO_TRAIN_SIZE", 3000);
  cfg.num_test = env_size("GBO_TEST_SIZE", 1000);
  cfg.pretrain.epochs = env_size("GBO_EPOCHS", 15);
  if (!data::cifar10_dir_from_env().empty()) {
    cfg.model.image_size = 32;
    cfg.data.image_size = 32;
  }
  return cfg;
}

Experiment make_experiment() {
  StandardConfig cfg = standard_config();
  Experiment exp{cfg, models::build_vgg9(cfg.model), {}, {}, 0.0f};

  const std::string cifar_dir = data::cifar10_dir_from_env();
  std::string data_fp = cfg.data_fingerprint();
  if (!cifar_dir.empty()) {
    auto train = data::load_cifar10(cifar_dir, /*train=*/true);
    auto test = data::load_cifar10(cifar_dir, /*train=*/false);
    if (train && test) {
      exp.train = std::move(*train);
      exp.test = std::move(*test);
      data_fp = "cifar10";
      log_info("using real CIFAR-10 from ", cifar_dir);
    } else {
      log_warn("GBO_CIFAR10_DIR set but files missing; using SynthCIFAR");
    }
  }
  if (exp.train.size() == 0) {
    exp.train = data::make_synth_cifar(cfg.data, cfg.num_train, /*stream=*/0);
    exp.test = data::make_synth_cifar(cfg.data, cfg.num_test, /*stream=*/1);
  }

  exp.clean_acc =
      load_or_pretrain(exp.model, exp.train, exp.test, cfg.pretrain, data_fp);
  return exp;
}

std::vector<double> calibrated_sigmas(Experiment& exp) {
  const std::string fp = exp.cfg.model.fingerprint() + "|" +
                         exp.cfg.data_fingerprint() + "|" +
                         exp.cfg.pretrain.fingerprint() + "|sigmas|" +
                         kKeyedNormalTag;
  const std::string path = artifact_path("sigma-calibration", fp);
  if (artifact_exists(path)) {
    bool ok = false;
    const StateDict state = load_state_dict(path, &ok);
    if (ok) {
      if (auto it = state.find("sigmas"); it != state.end()) {
        std::vector<double> sigmas(it->second.data.begin(),
                                   it->second.data.end());
        log_info("loaded calibrated sigmas from cache");
        return sigmas;
      }
    }
  }

  Rng rng(exp.cfg.model.seed ^ 0x5151);
  xbar::LayerNoiseController ctrl(exp.model.encoded, /*sigma=*/0.0,
                                  exp.model.base_pulses(), rng);
  auto sigmas = calibrate_sigmas(*exp.model.net, ctrl, exp.test,
                                 exp.cfg.baseline_targets);
  StateDict state;
  state["sigmas"] = NamedBlob{{sigmas.size()},
                              std::vector<float>(sigmas.begin(), sigmas.end())};
  save_state_dict(path, state);
  return sigmas;
}

}  // namespace gbo::core
