// NetServe client CLI: pipelined open-loop RESP load against lock_server.
//
//   $ ./loadgen --port 7911 --connections 8 --pipeline 64 --duration-ms 5000
//   $ ./loadgen --port 7911 --rate 50000 --json
//
// `--help` lists every flag (the usage is generated from the registrations
// in main). --port is required.
//
// Open-loop semantics: in rate mode a late reply never delays the next
// send, so queueing delay shows up in the latency histogram instead of
// being silently absorbed (no coordinated omission).
#include <cstdio>
#include <string>

#include "src/net/loadgen.hpp"
#include "src/platform/flags.hpp"

int main(int argc, char** argv) {
  using namespace lockin;
  LoadgenOptions options;
  bool json = false;
  FlagParser flags("--port N [options]");
  flags.Int<std::uint16_t>("--port", &options.port, 1, 65535, "server port on 127.0.0.1");
  flags.Int<std::size_t>("--connections", &options.connections, 1, 10000,
                         "concurrent connections (default 4)");
  flags.Int<std::size_t>("--pipeline", &options.pipeline, 1, 100000,
                         "in-flight requests per connection (default 8)");
  flags.Int<std::uint64_t>("--duration-ms", &options.duration_ms, 1, 86400000,
                           "send window in milliseconds (default 2000)");
  flags.Int("--get-percent", &options.get_percent, 0, 100,
            "GET share of the mix, rest SET (default 80)");
  flags.Int<std::uint64_t>("--key-space", &options.key_space, 1, 1000000000,
                           "keys are uniform over [0, N) (default 10000)");
  flags.Int<std::size_t>("--value-bytes", &options.value_bytes, 1, 1000000,
                         "SET payload size (default 64)");
  flags.Int<std::uint64_t>("--rate", &options.rate_per_s, 1, 1000000000,
                           "fixed offered rate in requests/s (default: saturation)");
  flags.Int<std::size_t>("--threads", &options.threads, 1, 256,
                         "client threads; connections are striped (default 1)");
  flags.Int<std::uint64_t>("--seed", &options.seed, 0, UINT64_MAX, "workload seed (default 42)");
  flags.Bool("--json", &json, "print the result as one JSON object");
  flags.Parse(argc, argv);
  if (options.port == 0) {
    flags.Fail("--port is required");
  }

  const LoadgenResult result = RunLoadgen(options);
  if (json) {
    std::printf("%s\n", result.ToJson().c_str());
  } else {
    std::printf("requests:       %llu (%.0f/s over %.2fs)\n",
                static_cast<unsigned long long>(result.requests), result.RequestsPerS(),
                result.seconds);
    std::printf("busy (shed):    %llu\n", static_cast<unsigned long long>(result.busy));
    std::printf("errors:         %llu\n", static_cast<unsigned long long>(result.errors));
    std::printf("nil GETs:       %llu\n", static_cast<unsigned long long>(result.not_found));
    std::printf("latency (us):   p50=%.1f p99=%.1f max=%.1f\n",
                result.latency_ns.P50() / 1000.0, result.latency_ns.P99() / 1000.0,
                result.latency_ns.max() / 1000.0);
  }
  // Nothing answered: the target is down or the port is wrong. Scripts (CI
  // net-smoke) key off a nonzero exit instead of parsing for zero.
  return result.requests > 0 ? 0 : 1;
}
