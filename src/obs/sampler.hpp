// Periodic energy sampler: a background thread that reads an EnergyMeter
// (RAPL where permitted, the CPU-time model elsewhere) while a workload
// runs and emits the average watts of each interval into a trace buffer,
// so Perfetto shows a power track alongside the lock/futex slices.
//
// The sampler relies on this repo's meter contract: Stop() is a
// non-destructive read of "energy since Start()" (both RaplMeter and
// ModelMeter compute deltas against state captured at Start()), so calling
// it repeatedly yields a cumulative series. One Start() by the owner, many
// Stop() reads by the sampler.
#ifndef SRC_OBS_SAMPLER_HPP_
#define SRC_OBS_SAMPLER_HPP_

#include <atomic>
#include <cstdint>
#include <thread>

#include "src/energy/energy_meter.hpp"
#include "src/obs/trace.hpp"

namespace lockin {

class EnergySampler {
 public:
  // Samples `meter` every `interval_ms`; each sample lands in `sink` as a
  // kWattsSample event (arg = milliwatts). The meter must already be
  // Start()ed, and it and the sink must outlive the sampler.
  EnergySampler(EnergyMeter* meter, std::uint64_t interval_ms, TraceBuffer* sink);
  ~EnergySampler();

  EnergySampler(const EnergySampler&) = delete;
  EnergySampler& operator=(const EnergySampler&) = delete;

  // Stops the thread and takes one final sample, so even sub-interval
  // runs get a point. Idempotent.
  void Finish();

 private:
  void Sample();

  EnergyMeter* meter_;
  TraceBuffer* sink_;
  std::uint64_t interval_ms_;
  std::atomic<bool> stop_{false};
  bool finished_ = false;
  double last_seconds_ = 0;
  double last_joules_ = 0;
  std::thread thread_;
};

}  // namespace lockin

#endif  // SRC_OBS_SAMPLER_HPP_
