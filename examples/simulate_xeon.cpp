// Domain scenario: driving the simulated Xeon directly -- sweep one lock
// workload across thread counts on the paper's 40-hyper-thread testbed and
// print throughput, power and TPP, like a row of the paper's Figure 11.
//
//   $ ./simulate_xeon --lock MUTEXEE --cs-cycles 2000
#include <cstdio>
#include <stdexcept>
#include <string>

#include "src/platform/flags.hpp"
#include "src/sim/workload.hpp"

int main(int argc, char** argv) {
  using namespace lockin;
  std::string lock = "MUTEXEE";
  std::uint64_t cs = 1000;
  FlagParser flags;
  flags.String("--lock", &lock, "NAME", "simulated lock (default MUTEXEE)");
  flags.Int<std::uint64_t>("--cs-cycles", &cs, 0, 1000000000,
                           "critical-section length in cycles (default 1000)");
  flags.Parse(argc, argv);

  std::printf("simulated 2-socket Xeon (40 hyper-threads), lock=%s, critical section=%llu "
              "cycles\n\n",
              lock.c_str(), (unsigned long long)cs);
  std::printf("%8s %14s %10s %14s %12s %12s\n", "threads", "tput(Macq/s)", "power(W)",
              "TPP(Kacq/J)", "p95(cyc)", "p99.99(cyc)");
  for (int threads : {1, 4, 10, 20, 30, 40, 50, 60}) {
    WorkloadConfig config;
    config.threads = threads;
    config.cs_cycles = cs;
    config.non_cs_cycles = 100;
    config.duration_cycles = 28'000'000;
    WorkloadResult r;
    try {
      r = RunLockWorkload(lock, config);
    } catch (const std::invalid_argument& error) {
      std::fprintf(stderr, "%s: %s\n", argv[0], error.what());
      return 2;
    }
    std::printf("%8d %14.3f %10.1f %14.2f %12llu %12llu\n", threads, r.ThroughputM(),
                r.average_watts, r.TppK(),
                (unsigned long long)r.acquire_latency_cycles.P95(),
                (unsigned long long)r.acquire_latency_cycles.P9999());
  }
  return 0;
}
