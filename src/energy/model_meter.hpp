// Model-based energy meter.
//
// Substitutes for RAPL on hosts without it. Joules come from the process's
// measured CPU time: a busy context-second costs one context's share of
// the PowerModel's machine power with every context working, an idle
// context-second its share of the machine's idle power. A waiter that
// sleeps in the kernel frees its context and costs idle power; a spinning
// waiter keeps it busy. That difference is what the paper measures, and a
// meter blind to CPU time could not see it.
#ifndef SRC_ENERGY_MODEL_METER_HPP_
#define SRC_ENERGY_MODEL_METER_HPP_

#include <chrono>
#include <memory>

#include "src/energy/energy_meter.hpp"
#include "src/energy/power_model.hpp"

namespace lockin {

class ModelMeter : public EnergyMeter {
 public:
  explicit ModelMeter(const PowerModel& model);

  // Stop() is a non-destructive read of the energy since Start(), so a
  // sampler may call it repeatedly.
  void Start() override;
  EnergySample Stop() override;
  std::string Name() const override { return "model"; }

  // The model's energy for `cpu_s` CPU seconds spent over `wall_s` on
  // every context: busy W/context x cpu_s + idle W/context x
  // max(0, contexts x wall_s - cpu_s).
  EnergySample Energy(double cpu_s, double wall_s) const;

 private:
  // One context's share of the machine's package and DRAM watts.
  struct ContextWatts {
    double package_w = 0;
    double dram_w = 0;
  };
  static ContextWatts PerContext(const PowerModel& model, ActivityState state);

  ContextWatts busy_per_context_;
  ContextWatts idle_per_context_;
  int contexts_;
  double start_cpu_s_ = 0;
  std::chrono::steady_clock::time_point start_wall_;
};

// Picks the best available meter: RAPL when readable, the model of the
// detected topology with the paper's calibration otherwise.
std::unique_ptr<EnergyMeter> MakeDefaultMeter();

}  // namespace lockin

#endif  // SRC_ENERGY_MODEL_METER_HPP_
