// Domain scenario: measuring the energy of a lock-based workload with the
// EnergyMeter stack -- RAPL when the host exposes it, otherwise the
// calibrated power model charged with the process's measured CPU time (the
// paper's measurement methodology, portable).
//
// Runs a contended counter under two waiting strategies and prints average
// power, energy and TPP (operations/Joule). Sleeping waiters free their
// hardware contexts, so the mutex row draws less power than the spinlock.
//
//   $ ./energy_report
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "src/energy/model_meter.hpp"
#include "src/energy/rapl_meter.hpp"
#include "src/locks/futex_lock.hpp"
#include "src/locks/spinlocks.hpp"
#include "src/platform/topology.hpp"

namespace {

using namespace lockin;

template <typename Lock>
EnergySample MeasureCounter(Lock& lock, EnergyMeter* meter, std::uint64_t* ops_out) {
  constexpr int kThreads = 4;
  constexpr int kOps = 600000;
  meter->Start();
  std::vector<std::thread> workers;
  long long counter = 0;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < kOps; ++i) {
        lock.lock();
        counter = counter + 1;
        lock.unlock();
      }
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  *ops_out = static_cast<std::uint64_t>(counter);
  return meter->Stop();
}

}  // namespace

int main() {
  const Topology host = Topology::Detect();
  std::printf("host topology: %s\n", host.ToString().c_str());
  std::printf("RAPL available: %s\n\n", RaplMeter::Available() ? "yes" : "no (using model)");

  std::unique_ptr<EnergyMeter> meter = MakeDefaultMeter();

  std::printf("%-22s %10s %10s %10s %12s\n", "configuration", "seconds", "joules", "watts",
              "TPP(ops/J)");

  {
    FutexLock mutex;  // sleeping waiters
    std::uint64_t ops = 0;
    const EnergySample sample = MeasureCounter(mutex, meter.get(), &ops);
    std::printf("%-22s %10.3f %10.2f %10.1f %12.0f\n", "mutex (sleeping)", sample.seconds,
                sample.total_joules(), sample.average_watts(),
                sample.Tpp(static_cast<double>(ops)));
  }
  {
    SpinConfig config;
    config.yield_after = 256;  // stay live on small hosts
    TtasLock spin(config);     // busy-waiting waiters
    std::uint64_t ops = 0;
    const EnergySample sample = MeasureCounter(spin, meter.get(), &ops);
    std::printf("%-22s %10.3f %10.2f %10.1f %12.0f\n", "spinlock (busy-wait)", sample.seconds,
                sample.total_joules(), sample.average_watts(),
                sample.Tpp(static_cast<double>(ops)));
  }

  std::printf("\nmeter backend: %s\n", meter->Name().c_str());
  std::printf("(the paper's Figure 1 trade-off: spinning can buy throughput at higher\n"
              "power; whether TPP improves depends on the contention level)\n");
  return 0;
}
