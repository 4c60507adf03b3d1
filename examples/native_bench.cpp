// Paper-style lock microbenchmark on *this* machine: the tool a user with a
// real multi-socket box runs to produce Figure-11-style rows from the
// native lock library. Every registered lock runs the "lock/counter"
// scenario on the shared scenario driver (throughput via rdtsc; energy via
// RAPL when the host exposes it, the calibrated model otherwise). Latency
// columns are per op: acquire, critical section, release and the spin
// outside the lock.
//
//   $ ./native_bench --threads 8 --cs-cycles 2000 --ms 500
#include <cstdio>
#include <string>

#include "src/energy/rapl_meter.hpp"
#include "src/platform/flags.hpp"
#include "src/platform/topology.hpp"
#include "src/systems/scenarios/scenario_defs.hpp"

int main(int argc, char** argv) {
  using namespace lockin;
  int threads = 4;
  std::uint64_t cs = 1000;
  std::uint64_t ms = 200;
  FlagParser flags;
  flags.Int("--threads", &threads, 1, 4096, "worker threads (default 4)");
  flags.Int<std::uint64_t>("--cs-cycles", &cs, 0, 1000000000,
                           "critical-section length in cycles (default 1000)");
  flags.Int<std::uint64_t>("--ms", &ms, 1, 86400000, "run length per lock (default 200)");
  flags.Parse(argc, argv);

  std::printf("host: %s | RAPL: %s\n", Topology::Detect().ToString().c_str(),
              RaplMeter::Available() ? "yes" : "no (model)");
  std::printf("threads=%d cs=%llu cycles, %llu ms per lock\n\n", threads,
              (unsigned long long)cs, (unsigned long long)ms);

  // Percentiles come from the sampled ops (about one in kOpLatencySampleGap,
  // ~10k in a 200 ms run), too few for a p99.99 that is not just the max.
  std::printf("%-10s %14s %10s %12s %10s %10s %8s\n", "lock", "tput(op/s)", "watts", "TPP(op/J)",
              "p95(cyc)", "p99(cyc)", "samples");
  LockCounterScenario::Params params;
  params.cs_cycles = cs;
  int status = 0;
  for (const std::string& name : RegisteredLockNames()) {
    LockCounterScenario scenario(params);
    ScenarioConfig config;
    config.lock_name = name;
    config.threads = threads;
    config.duration_ms = ms;
    config.yield_after = 512;  // survive oversubscribed hosts
    const ScenarioResult r = RunScenario(scenario, config, "lock/counter");
    std::printf("%-10s %14.0f %10.1f %12.0f %10llu %10llu %8llu\n", name.c_str(), r.ops_per_s,
                r.AvgWatts(), r.Tpp(), (unsigned long long)r.op_latency_cycles.P95(),
                (unsigned long long)r.op_latency_cycles.P99(),
                (unsigned long long)r.op_latency_cycles.count());
    if (r.MetricOr("counted") != static_cast<double>(r.total_ops)) {
      std::fprintf(stderr, "%s lost mutual exclusion: counted %.0f of %llu ops\n",
                   name.c_str(), r.MetricOr("counted"), (unsigned long long)r.total_ops);
      status = 1;
    }
  }
  return status;
}
