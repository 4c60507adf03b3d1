// Unified scenario CLI: run any registered scenario under any registered
// lock through the shared native driver (src/systems/workload_api.hpp).
//
//   $ ./scenario_runner --list
//   $ ./scenario_runner --scenario kvstore/WT --lock MUTEXEE --threads 8
//   $ ./scenario_runner --scenario cache/set-heavy --lock all --json
//   $ ./scenario_runner --all --quick
//
// `--help` lists every flag; the usage is generated from RegisterFlags
// below. What the one-line help leaves out:
//   --shards N        the registered shapes are 1 shard for the single-lock
//                     systems, 16 cache, 32 graph, 8 nosql/hash
//   --rw              mutually exclusive with --combine
//   --thread-sweep L  with --json, emits the whole scaling-curve set as ONE
//                     JSON document ({"thread_sweep": ..., "curves": [...]})
//   --trace FILE      loads in ui.perfetto.dev; one scenario x lock only
//   --sample-ms N     needs --trace and a meter (not --meter off)
//   --failpoints SPEC grammar in src/platform/failpoint.hpp, e.g.
//                     futex/wait=p0.01
//
// SIGINT/SIGTERM stop the runs cleanly: partial results, traces and metrics
// are still written, and the process exits with 128 + signal. A second
// signal exits at once with 128 + signal (a hung run cannot flush).
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "src/locks/lock_registry.hpp"
#include "src/obs/export.hpp"
#include "src/obs/metrics.hpp"
#include "src/platform/cycles.hpp"
#include "src/platform/failpoint.hpp"
#include "src/platform/flags.hpp"
#include "src/stats/table.hpp"
#include "src/systems/workload_api.hpp"

namespace {

using namespace lockin;

struct RunnerOptions {
  bool list = false;
  bool all = false;
  bool json = false;
  bool quick = false;
  std::string scenario;
  std::string lock = "MUTEX";
  int ops = 0;  // 0 = default (40000, or 8000 with --quick)
  double seconds = 0;
  std::vector<int> thread_sweep;
  std::string trace_path;
  std::string metrics_path;
  std::string meter = "auto";
  std::string failpoints;
  bool chaos = false;
  std::uint64_t deadline_us = 0;
  bool no_watchdog_abort = false;
};

// Registers every flag; the ScenarioConfig knobs that need no translation
// are set in `config` directly.
void RegisterFlags(FlagParser& flags, RunnerOptions& options, ScenarioConfig& config) {
  flags.Bool("--list", &options.list, "print the scenario table");
  flags.String("--scenario", &options.scenario, "NAME", "scenario to run");
  flags.Bool("--all", &options.all, "run every registered scenario");
  flags.String("--lock", &options.lock, "NAME|all", "lock algorithm (default MUTEX)");
  flags.Int("--threads", &config.threads, 1, 4096, "worker threads (default 4)");
  flags.Int("--ops", &options.ops, 1, 1000000000,
            "operations per thread (default 40000; --quick: 8000)");
  flags.Double("--seconds", &options.seconds, 0.001, 86400,
               "run length in seconds, instead of a fixed op count");
  flags.Int<std::uint64_t>("--seed", &config.seed, 0, UINT64_MAX, "workload seed (default 1)");
  flags.Int("--read-percent", &config.read_percent, 0, 100, "override the scenario's mix");
  flags.Int<std::uint64_t>("--key-space", &config.key_space, 1, 1000000000,
                           "override the scenario's key space");
  flags.Bool("--json", &options.json, "one JSON object per run");
  flags.Bool("--quick", &options.quick, "short run (CI smoke)");
  flags.Int<std::uint32_t>("--shards", &config.shards, 1, 4096,
                           "override the scenario's shard count");
  flags.Bool("--combine", &config.combine, "flat-combine shard mutations");
  flags.Bool("--rw", &config.rw, "per-shard reader-writer locks");
  flags.IntList("--thread-sweep", &options.thread_sweep, 1, 4096,
                "run at every thread count in the list");
  flags.String("--trace", &options.trace_path, "FILE", "write a Chrome trace-event JSON");
  flags.String("--metrics", &options.metrics_path, "FILE", "write the MetricsRegistry JSON");
  flags.Bool("--lockdep", &config.lockdep, "arm the lock-order detector (exit 1 on a report)");
  flags.Choice("--meter", &options.meter, {"auto", "off"},
               "energy meter (auto: RAPL else the CPU-time model)");
  flags.Int<std::uint32_t>("--sample-ms", &config.energy_sample_ms, 1, 60000,
                           "sample watts into the trace every N ms");
  flags.String("--failpoints", &options.failpoints, "SPEC", "arm named failpoints");
  flags.Bool("--chaos", &options.chaos, "arm the default chaos profile");
  flags.Int<std::uint64_t>("--deadline-us", &options.deadline_us, 1, 1000000000,
                           "per-op deadline on the entry lock");
  flags.Int<std::uint32_t>("--op-retries", &config.op_retries, 0, 1000000,
                           "deadline-miss retries before shedding (default 3)");
  flags.Int<std::uint32_t>("--watchdog-ms", &config.watchdog_ms, 1, 3600000,
                           "stall watchdog: abort (exit 3) after N ms without progress");
  flags.Bool("--no-watchdog-abort", &options.no_watchdog_abort,
             "count stalls instead of aborting");
}

void ListScenarios(bool json) {
  TextTable table({"scenario", "system", "description"});
  for (const ScenarioInfo& info : RegisteredScenarios()) {
    table.AddRow({info.name, info.system, info.description});
  }
  if (json) {
    table.PrintJson(std::cout);
  } else {
    table.Print(std::cout);
  }
}

void EmitJson(const ScenarioResult& r, const ScenarioConfig& config) {
  std::printf("{\"scenario\": \"%s\", \"lock\": \"%s\", \"threads\": %d, "
              "\"seconds\": %.6f, \"total_ops\": %llu, \"ops_per_s\": %.1f",
              r.scenario.c_str(), r.lock_name.c_str(), r.threads, r.seconds,
              static_cast<unsigned long long>(r.total_ops), r.ops_per_s);
  // ShardCombine variant labels: printed only when requested on the command
  // line, so default runs keep byte-identical output.
  if (config.shards > 0) {
    std::printf(", \"shards\": %u", config.shards);
  }
  if (config.combine) {
    std::printf(", \"combine\": true");
  }
  if (config.rw) {
    std::printf(", \"rw\": true");
  }
  if (config.record_latency) {
    // Cycles stay the JSON unit (bit-stable across hosts whose TSC
    // calibration drifts); the human-readable table converts to ns.
    // The percentiles come from op_latency_samples timed ops (about one in
    // kOpLatencySampleGap).
    std::printf(", \"op_p50_cycles\": %llu, \"op_p99_cycles\": %llu, \"op_max_cycles\": %llu"
                ", \"op_latency_samples\": %llu",
                static_cast<unsigned long long>(r.op_latency_cycles.P50()),
                static_cast<unsigned long long>(r.op_latency_cycles.P99()),
                static_cast<unsigned long long>(r.op_latency_cycles.max()),
                static_cast<unsigned long long>(r.op_latency_cycles.count()));
  }
  // FailSafe accounting: only printed when nonzero so default runs keep
  // byte-identical output.
  if (r.ops_shed != 0 || r.shed_retries != 0) {
    std::printf(", \"ops_shed\": %llu, \"shed_retries\": %llu",
                static_cast<unsigned long long>(r.ops_shed),
                static_cast<unsigned long long>(r.shed_retries));
  }
  if (r.watchdog_stalls != 0) {
    std::printf(", \"watchdog_stalls\": %llu",
                static_cast<unsigned long long>(r.watchdog_stalls));
  }
  if (!r.meter_name.empty()) {
    // Dedicated fields, not scenario metrics: the metrics below print with
    // %.0f (they are counters) and sub-Joule values would truncate to 0.
    std::printf(", \"meter\": \"%s\", \"joules\": %.6f, \"avg_watts\": %.3f, \"tpp\": %.3f",
                r.meter_name.c_str(), r.energy.total_joules(), r.AvgWatts(), r.Tpp());
  }
  for (const ScenarioMetric& metric : r.metrics) {
    std::printf(", \"%s\": %.0f", metric.name.c_str(), metric.value);
  }
  std::printf("}\n");
}

std::string MetricsToString(const ScenarioResult& r) {
  std::string out;
  const auto append = [&out](const std::string& name, double value) {
    if (!out.empty()) {
      out += " ";
    }
    out += name + "=" + FormatDouble(value, 0);
  };
  for (const ScenarioMetric& metric : r.metrics) {
    append(metric.name, metric.value);
  }
  if (r.ops_shed != 0 || r.shed_retries != 0) {
    append("ops_shed", static_cast<double>(r.ops_shed));
    append("shed_retries", static_cast<double>(r.shed_retries));
  }
  if (r.watchdog_stalls != 0) {
    append("watchdog_stalls", static_cast<double>(r.watchdog_stalls));
  }
  return out;
}

// Writes the collected trace rings as a Chrome trace-event file. Shared by
// the normal end-of-run path and the watchdog/signal flush paths.
bool WriteTraceFile(const std::string& path, const std::string& process_name) {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  ChromeTraceOptions trace_options;
  trace_options.cycles_per_us = CyclesPerNs() * 1000.0;
  trace_options.process_name = process_name;
  TraceSession& session = TraceSession::Instance();
  const std::vector<TraceEvent> events = session.Collect();
  WriteChromeTrace(out, events, trace_options);
  std::fprintf(stderr, "trace: %zu events -> %s (%llu dropped)\n", events.size(), path.c_str(),
               static_cast<unsigned long long>(session.dropped()));
  return true;
}

// Writes the MetricsRegistry as one JSON document. Shared, like
// WriteTraceFile, by the end-of-run and watchdog flush paths.
bool WriteMetricsFile(const std::string& path) {
  std::ofstream out(path);
  MetricsRegistry::Instance().WriteJson(out);
  out.close();
  return !out.fail();
}

}  // namespace

int main(int argc, char** argv) {
  RunnerOptions options;
  ScenarioConfig config;
  FlagParser flags("--list | --scenario NAME | --all [options]");
  RegisterFlags(flags, options, config);
  flags.Parse(argc, argv);
  if (options.list) {
    ListScenarios(options.json);
    return 0;
  }
  InstallStopSignalHandlers();

  if (options.all && !options.scenario.empty()) {
    flags.Fail("--all and --scenario are mutually exclusive");
  }
  std::vector<std::string> scenario_names;
  if (options.all) {
    for (const ScenarioInfo& info : RegisteredScenarios()) {
      scenario_names.push_back(info.name);
    }
  } else if (!options.scenario.empty()) {
    if (ScenarioRegistry::Instance().Find(options.scenario) == nullptr) {
      std::fprintf(stderr, "%s: unknown scenario: %s (try --list)\n", argv[0],
                   options.scenario.c_str());
      return 2;
    }
    scenario_names.push_back(options.scenario);
  } else {
    flags.Fail("one of --list, --scenario NAME or --all is required");
  }

  std::vector<std::string> lock_names;
  if (options.lock == "all") {
    lock_names = RegisteredLockNames();
  } else {
    try {
      MakeLockOrThrow(options.lock);
    } catch (const std::exception& error) {
      std::fprintf(stderr, "%s: %s\n", argv[0], error.what());
      return 2;
    }
    lock_names.push_back(options.lock);
  }

  if (options.ops > 0 && options.seconds > 0) {
    flags.Fail("--ops and --seconds are mutually exclusive");
  }
  config.ops_per_thread = options.ops > 0 ? options.ops : (options.quick ? 8000 : 40000);
  // --seconds is at least 1 ms, so a time-bounded run never truncates to 0
  // (which would silently fall back to fixed-op mode).
  config.duration_ms = static_cast<std::uint64_t>(options.seconds * 1000.0);
  if (config.combine && config.rw) {
    flags.Fail("--combine and --rw are mutually exclusive (a combiner pass "
               "needs exclusive shard ownership)");
  }
  config.trace = !options.trace_path.empty();
  config.meter = options.meter == "off" ? MeterChoice::kOff : MeterChoice::kAuto;
  // Settings RunScenario would reject (e.g. --sample-ms without --trace or
  // with --meter off) fail here as a bad command line.
  try {
    ValidateScenarioConfig(config);
  } catch (const std::exception& error) {
    flags.Fail(error.what());
  }

  if (options.chaos && !options.failpoints.empty()) {
    flags.Fail("--chaos and --failpoints are mutually exclusive");
  }
  config.failpoints = options.chaos ? DefaultChaosSpec() : options.failpoints;
  if (!config.failpoints.empty()) {
    // Validate the spec up front: a typo should fail with the parser's
    // site-enumerating message before any scenario runs.
    try {
      ScopedFailpoints probe(config.failpoints, config.seed);
    } catch (const std::exception& error) {
      flags.Fail(error.what());
    }
  }
  config.op_deadline_ns = options.deadline_us * 1000;
  config.watchdog_abort = !options.no_watchdog_abort;
  config.external_stop = &StopFlag();

  // One run per thread count: a plain run uses --threads, a sweep runs the
  // whole list (the scaling-curve mode).
  std::vector<int> thread_counts = options.thread_sweep;
  if (thread_counts.empty()) {
    thread_counts.push_back(config.threads);
  }

  if (config.trace && scenario_names.size() * lock_names.size() * thread_counts.size() != 1) {
    flags.Fail("--trace captures one run; pick a single --scenario and --lock "
               "(and no --thread-sweep)");
  }

  // Before an aborting watchdog kills the process, flush whatever
  // observability outputs were requested (best-effort: workers may still be
  // appending to their trace rings while we collect).
  const std::string trace_process_name =
      "scenario_runner " + scenario_names.front() + " / " + lock_names.front();
  config.on_stall = [&options, &trace_process_name] {
    if (!options.trace_path.empty()) {
      WriteTraceFile(options.trace_path, trace_process_name);
    }
    if (!options.metrics_path.empty()) {
      WriteMetricsFile(options.metrics_path);
    }
    std::fflush(nullptr);
  };

  // Table latencies in nanoseconds via the calibrated cycle counter
  // (src/platform/cycles.hpp); --json keeps raw cycles.
  TextTable table({"scenario", "lock", "threads", "Mops/s", "p50_ns", "p99_ns", "joules",
                   "TPP(op/J)", "metrics"});
  // Sweep mode + --json emits all scaling curves as one document; the
  // string below accumulates it so an interrupted sweep still flushes a
  // well-formed prefix of curves.
  const bool sweep_json = options.json && !options.thread_sweep.empty();
  std::string sweep_points;
  std::string sweep_curves;
  for (const std::string& scenario : scenario_names) {
    if (StopFlag().load(std::memory_order_relaxed)) {
      break;  // interrupted: flush what completed, skip the rest
    }
    for (const std::string& lock : lock_names) {
      if (StopFlag().load(std::memory_order_relaxed)) {
        break;
      }
      config.lock_name = lock;
      sweep_points.clear();
      for (const int threads : thread_counts) {
        if (StopFlag().load(std::memory_order_relaxed)) {
          break;
        }
        config.threads = threads;
        ScenarioResult result;
        try {
          result = RunScenarioByName(scenario, config);
        } catch (const std::exception& error) {
          std::fprintf(stderr, "%s: %s under %s failed: %s\n", argv[0], scenario.c_str(),
                       lock.c_str(), error.what());
          return 1;
        }
        if (sweep_json) {
          char point[160];
          std::snprintf(point, sizeof point,
                        "{\"threads\": %d, \"seconds\": %.6f, \"total_ops\": %llu, "
                        "\"ops_per_s\": %.1f}",
                        result.threads, result.seconds,
                        static_cast<unsigned long long>(result.total_ops), result.ops_per_s);
          if (!sweep_points.empty()) {
            sweep_points += ", ";
          }
          sweep_points += point;
        } else if (options.json) {
          EmitJson(result, config);
        } else {
          table.AddRow({scenario, lock, std::to_string(result.threads),
                        FormatDouble(result.MopsPerS(), 3),
                        FormatDouble(CyclesToNs(result.op_latency_cycles.P50()), 0),
                        FormatDouble(CyclesToNs(result.op_latency_cycles.P99()), 0),
                        FormatDouble(result.energy.total_joules(), 3),
                        FormatDouble(result.Tpp(), 0), MetricsToString(result)});
        }
      }
      if (sweep_json && !sweep_points.empty()) {
        if (!sweep_curves.empty()) {
          sweep_curves += ",\n    ";
        }
        sweep_curves += "{\"scenario\": \"" + scenario + "\", \"lock\": \"" + lock +
                        "\", \"points\": [" + sweep_points + "]}";
      }
    }
  }
  if (sweep_json) {
    std::string sweep_list;
    for (const int threads : thread_counts) {
      if (!sweep_list.empty()) {
        sweep_list += ", ";
      }
      sweep_list += std::to_string(threads);
    }
    std::printf("{\"thread_sweep\": [%s], \"shards\": %u, \"combine\": %s, \"rw\": %s,\n"
                "  \"curves\": [\n    %s\n  ]}\n",
                sweep_list.c_str(), config.shards, config.combine ? "true" : "false",
                config.rw ? "true" : "false", sweep_curves.c_str());
  } else if (!options.json) {
    table.Print(std::cout);
  }

  if (config.trace) {
    if (!WriteTraceFile(options.trace_path, trace_process_name)) {
      std::fprintf(stderr, "%s: cannot open trace file: %s\n", argv[0],
                   options.trace_path.c_str());
      return 1;
    }
  }
  if (!options.metrics_path.empty() && !WriteMetricsFile(options.metrics_path)) {
    std::fprintf(stderr, "%s: cannot write metrics file: %s\n", argv[0],
                 options.metrics_path.c_str());
    return 1;
  }
  if (config.lockdep) {
    const std::vector<LockdepReport> reports = LockdepReports();
    const LockdepStats stats = LockdepGetStats();
    std::fprintf(stderr, "lockdep: %llu events, %llu edges, %zu violation(s)\n",
                 static_cast<unsigned long long>(stats.events),
                 static_cast<unsigned long long>(stats.edges), reports.size());
    for (const LockdepReport& report : reports) {
      std::fprintf(stderr, "lockdep: %s\n", report.Describe().c_str());
    }
    if (!reports.empty()) {
      return 1;
    }
  }
  const int sig = StopSignal();
  if (sig != 0) {
    std::fprintf(stderr, "%s: interrupted by signal %d; partial results flushed\n", argv[0], sig);
    return 128 + sig;
  }
  return 0;
}
