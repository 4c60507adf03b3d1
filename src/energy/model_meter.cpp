#include "src/energy/model_meter.hpp"

#include <time.h>

#include <algorithm>
#include <cstdio>
#include <vector>

#include "src/energy/rapl_meter.hpp"

namespace lockin {
namespace {

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

ModelMeter::ContextWatts ModelMeter::PerContext(const PowerModel& model, ActivityState state) {
  const int n = model.topology().total_contexts();
  const PowerModel::Breakdown machine =
      model.ComponentWatts(std::vector<ActivityState>(static_cast<std::size_t>(n), state), {});
  return ContextWatts{machine.package_w / n, machine.dram_w / n};
}

ModelMeter::ModelMeter(const PowerModel& model)
    : busy_per_context_(PerContext(model, ActivityState::kWorking)),
      idle_per_context_(PerContext(model, ActivityState::kInactive)),
      contexts_(model.topology().total_contexts()),
      start_wall_(std::chrono::steady_clock::now()) {}

EnergySample ModelMeter::Energy(double cpu_s, double wall_s) const {
  const double idle_s = std::max(0.0, contexts_ * wall_s - cpu_s);
  EnergySample sample;
  sample.package_joules =
      cpu_s * busy_per_context_.package_w + idle_s * idle_per_context_.package_w;
  sample.dram_joules = cpu_s * busy_per_context_.dram_w + idle_s * idle_per_context_.dram_w;
  sample.seconds = wall_s;
  return sample;
}

void ModelMeter::Start() {
  start_cpu_s_ = ProcessCpuSeconds();
  start_wall_ = std::chrono::steady_clock::now();
}

EnergySample ModelMeter::Stop() {
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_wall_).count();
  return Energy(ProcessCpuSeconds() - start_cpu_s_, wall_s);
}

std::unique_ptr<EnergyMeter> MakeDefaultMeter() {
  if (RaplMeter::Available()) {
    return std::make_unique<RaplMeter>();
  }
  // Graceful degradation, explained once per process: powercap nodes that
  // exist but are root-only are the usual unprivileged-host case, and a
  // silent model fallback there would look like "RAPL numbers" to a reader
  // of the output.
  static const bool logged = [] {
    if (RaplMeter::PowercapPresent()) {
      std::fprintf(stderr,
                   "lockin: powercap sysfs is present but no RAPL domain is readable "
                   "(usually needs root); falling back to the model energy meter\n");
    }
    return true;
  }();
  (void)logged;
  return std::make_unique<ModelMeter>(
      PowerModel(Topology::Detect(), PowerParams::PaperXeon()));
}

}  // namespace lockin
