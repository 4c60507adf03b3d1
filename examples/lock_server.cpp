// NetServe server CLI: serve a Scenario API system (KvStore, MemCache or a
// NosqlDb backend) over a RESP-style loopback socket, under any registered
// lock algorithm -- the networked counterpart of running the same system
// in process with scenario_runner.
//
//   $ ./lock_server --port 7911 --system cache --lock MUTEXEE --workers 2
//   $ ./lock_server --system kvstore --lock TICKET --deadline-us 500
//
// `--help` lists every flag (the usage is generated from the registrations
// in main). --failpoints takes the grammar in src/platform/failpoint.hpp;
// `scenario/op` fires once per command inside the deadline window.
//
// SIGINT/SIGTERM drain cleanly: the listener closes, every connection gets
// its buffered pipelined commands executed and replies flushed, then the
// process exits 0 with a final stats line on stderr. A second signal exits
// at once with 128 + signal, for a drain that hangs.
#include <chrono>
#include <csignal>
#include <cstdio>
#include <exception>
#include <memory>
#include <string>
#include <thread>

#include "src/locks/lock_registry.hpp"
#include "src/net/server.hpp"
#include "src/platform/failpoint.hpp"
#include "src/platform/flags.hpp"

int main(int argc, char** argv) {
  using namespace lockin;
  NetServerOptions server_options;
  NetBackendConfig& backend = server_options.backend;
  std::uint64_t deadline_us = 0;
  std::string failpoints_spec;
  std::uint64_t stats_every_s = 0;
  FlagParser flags;
  flags.Int<std::uint16_t>("--port", &server_options.port, 0, 65535,
                           "TCP port on 127.0.0.1 (default 0 = ephemeral; printed either way)");
  flags.Choice("--system", &backend.system, CommandDispatcher::KnownSystems(),
               "system to serve (default kvstore)");
  flags.String("--lock", &backend.lock_name, "NAME", "lock algorithm (default MUTEX)");
  flags.Int<std::uint32_t>("--shards", &backend.shards, 1, 4096, "shard count override");
  flags.Bool("--combine", &backend.combine, "flat-combine shard mutations");
  flags.Bool("--rw", &backend.rw, "per-shard reader-writer locks");
  flags.Int<std::size_t>("--workers", &server_options.workers, 1, 256,
                         "event-loop worker threads (default 1)");
  flags.Int<std::uint64_t>("--deadline-us", &deadline_us, 1, 1000000000,
                           "per-op deadline: shed with -BUSY if the entry lock is late");
  flags.String("--failpoints", &failpoints_spec, "SPEC", "arm named failpoints");
  flags.Int<std::uint64_t>("--watchdog-ms", &server_options.watchdog_ms, 1, 3600000,
                           "stall watchdog over the event loops");
  flags.Int<std::uint64_t>("--stats-every", &stats_every_s, 1, 86400,
                           "print the metrics JSON to stderr every N seconds");
  flags.Parse(argc, argv);
  backend.op_deadline_ns = deadline_us * 1000;
  try {
    MakeLockOrThrow(backend.lock_name);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "%s: %s\n", argv[0], error.what());
    return 2;
  }
  if (backend.combine && backend.rw) {
    flags.Fail("--combine and --rw are mutually exclusive");
  }

  InstallStopSignalHandlers();
  std::signal(SIGPIPE, SIG_IGN);  // stray writes to dead sockets are handled per-fd

  std::unique_ptr<ScopedFailpoints> failpoints;
  if (!failpoints_spec.empty()) {
    try {
      failpoints = std::make_unique<ScopedFailpoints>(failpoints_spec, /*seed=*/1);
    } catch (const std::exception& error) {
      flags.Fail(error.what());
    }
  }

  LockServer server(server_options);
  try {
    server.Start();
  } catch (const std::exception& error) {
    std::fprintf(stderr, "%s: %s\n", argv[0], error.what());
    return 1;
  }
  std::printf("listening on 127.0.0.1:%u (system=%s lock=%s workers=%zu)\n",
              static_cast<unsigned>(server.port()), backend.system.c_str(),
              backend.lock_name.c_str(), server_options.workers);
  std::fflush(stdout);  // the port line is how scripts find an ephemeral port

  // The signal handler only stores atomics; this watcher thread turns the
  // flag into a Drain() from a normal context.
  std::uint64_t waited_ms = 0;
  while (!StopFlag().load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    waited_ms += 50;
    if (stats_every_s > 0 && waited_ms >= stats_every_s * 1000) {
      waited_ms = 0;
      std::fprintf(stderr, "%s\n", server.StatsJson().c_str());
    }
  }
  server.Drain();
  server.Join();
  std::fprintf(stderr, "drained: %s\n", server.StatsJson().c_str());
  return 0;
}
