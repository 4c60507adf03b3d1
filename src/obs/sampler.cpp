#include "src/obs/sampler.hpp"

#include <chrono>

namespace lockin {

EnergySampler::EnergySampler(EnergyMeter* meter, std::uint64_t interval_ms, TraceBuffer* sink)
    : meter_(meter), sink_(sink), interval_ms_(interval_ms == 0 ? 1 : interval_ms) {
  thread_ = std::thread([this] {
    while (!stop_.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms_));
      Sample();
    }
  });
}

void EnergySampler::Sample() {
  const EnergySample cumulative = meter_->Stop();
  const double dt = cumulative.seconds - last_seconds_;
  const double watts = dt > 0 ? (cumulative.total_joules() - last_joules_) / dt : 0;
  last_seconds_ = cumulative.seconds;
  last_joules_ = cumulative.total_joules();
  sink_->Push(ReadCycles(), TraceEventKind::kWattsSample,
              static_cast<std::uint32_t>(watts * 1000.0));
}

void EnergySampler::Finish() {
  if (!finished_) {
    stop_.store(true, std::memory_order_release);
    thread_.join();
    Sample();  // final point covers the tail of the run
    finished_ = true;
  }
}

EnergySampler::~EnergySampler() { Finish(); }

}  // namespace lockin
