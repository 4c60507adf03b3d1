// Native hot-path perf tracker (BENCH_native.json).
//
// PR-over-PR trajectory for the *native* measurement path (the code a user
// runs on real hardware for paper-style numbers), complementing the
// simulator tracker (bench_sim_perf / BENCH_sim.json). Five sections:
//
//   1. Uncontested lock+unlock ns/op for every concrete lock, measured via
//      both dispatch tiers: the devirtualized static tier (templated loop,
//      src/locks/static_dispatch.hpp) and the type-erased LockHandle tier.
//      The gap between them is pure dispatch overhead. This is the one
//      section where lock()/unlock() is the whole payload, so it is the one
//      place that measures the static tier.
//   2. Scenario driver overhead: "lock/counter" under TAS with an empty
//      critical section on one thread, latency recording off and on (the
//      batched rdtsc + histogram increment).
//   3. MemCache Mops/s per LRU mode (kGlobalLock = paper-shape SET
//      contention, kPerShard = segmented-LRU scale scenario) on GET- and
//      SET-heavy mixes, built as CacheScenario with a capacity below the
//      working set.
//   4. Every registered scenario (src/systems/workload_api.hpp) through the
//      unified native driver, so the trajectory tracks all mini-systems,
//      not just the cache. --scenario restricts to one, --lock/--threads
//      override the defaults (MUTEX, 4).
//   5. ShardCombine thread scaling: per-scenario 1/2/4/8-thread rows for
//      single-lock vs sharded vs flat-combined (src/systems/sharded.hpp),
//      emitted as `scenario_scaling`.
//
// Output: aligned tables (or --csv/--json), plus BENCH_native.json in the
// current directory. Numbers are best-of-3 (uncontested) on whatever host
// runs this; the tracked signal is the tier ratio and the mode ratio, which
// are host-relative.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "src/locks/static_dispatch.hpp"
#include "src/net/loadgen.hpp"
#include "src/net/server.hpp"
#include "src/platform/cycles.hpp"
#include "src/systems/scenarios/scenario_defs.hpp"

namespace lockin {
namespace {

constexpr int kReps = 5;

// The shared bench flags plus the scenario-section overrides.
struct NativePerfOptions : BenchOptions {
  int threads = 4;
  std::string lock = "MUTEX";
  std::string scenario;  // empty: every scenario
};

// One timed pass of the uncontested lock+unlock loop. Instantiated with a
// concrete lock type (static tier: lock()/unlock() inline into the loop) or
// with LockHandle (type-erased tier: two virtual calls per iteration).
template <typename Lock>
double UncontestedPassNs(Lock& lock, int iters) {
  const std::uint64_t start = ReadCycles();
  for (int i = 0; i < iters; ++i) {
    lock.lock();
    lock.unlock();
  }
  return static_cast<double>(CyclesToNs(ReadCycles() - start)) / static_cast<double>(iters);
}

template <typename Lock>
void WarmLock(Lock& lock) {
  for (int i = 0; i < 1000; ++i) {  // warm the line and any TLS nodes
    lock.lock();
    lock.unlock();
  }
}

struct TierRow {
  std::string lock;
  double static_ns = 0;
  double handle_ns = 0;

  double Speedup() const { return static_ns > 0 ? handle_ns / static_ns : 0; }
};

// Hardware floor for a TAS-shaped op: one implicitly-locked exchange plus a
// release store on a private line. The static tier's TAS ns/op should sit
// on this floor -- any gap is residual dispatch/loop overhead. (On hosts
// where the locked RMW is slow -- e.g. virtualized CPUs at ~17 cycles --
// the floor dominates both tiers and compresses the tier speedup on
// single-RMW locks; TICKET/MUTEX, with two RMWs per op, expose the
// dispatch overhead more.)
double RawExchangeStoreFloorNs(int iters) {
  alignas(64) static std::atomic<std::uint32_t> word{0};
  double best = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    const std::uint64_t start = ReadCycles();
    for (int i = 0; i < iters; ++i) {
      word.exchange(1, std::memory_order_acquire);
      word.store(0, std::memory_order_release);
    }
    const double per_op =
        static_cast<double>(CyclesToNs(ReadCycles() - start)) / static_cast<double>(iters);
    best = rep == 0 ? per_op : std::min(best, per_op);
  }
  return best;
}

TierRow MeasureLock(const std::string& name, int iters) {
  TierRow row;
  row.lock = name;
  LockBuildOptions options;
  options.spin.yield_after = 1024;  // oversubscription escape hatch
  const std::unique_ptr<LockHandle> handle = MakeLockOrThrow(name, options);
  WarmLock(*handle);
  // Interleave the tiers rep by rep and take each tier's minimum: scheduler
  // noise (this may run on a shared CI host) then shifts both tiers
  // alike instead of corrupting the ratio.
  WithConcreteLock(name, options, [&](auto tag, auto&&... args) {
    using L = typename decltype(tag)::type;
    L lock(args...);
    WarmLock(lock);
    for (int rep = 0; rep < kReps; ++rep) {
      const double s = UncontestedPassNs(lock, iters);
      const double h = UncontestedPassNs(*handle, iters);
      row.static_ns = rep == 0 ? s : std::min(row.static_ns, s);
      row.handle_ns = rep == 0 ? h : std::min(row.handle_ns, h);
    }
  });
  return row;
}

struct DriverRow {
  double ns = 0;                 // ns/op, no latency recording
  double record_latency_ns = 0;  // ns/op timing 1 op in kOpLatencySampleGap
};

// One thread, TAS, empty critical section: what remains is the driver's
// per-op cost plus one uncontended TAS acquire/release through the handle.
double DriverNsPerOp(bool record_latency, std::uint64_t duration_ms) {
  LockCounterScenario scenario({1, 0, 0});
  ScenarioConfig config;
  config.lock_name = "TAS";
  config.threads = 1;
  config.duration_ms = duration_ms;
  config.record_latency = record_latency;
  config.meter = MeterChoice::kOff;
  config.yield_after = 1024;
  const ScenarioResult result = RunScenario(scenario, config, "lock/counter");
  return result.total_ops > 0 ? result.seconds * 1e9 / static_cast<double>(result.total_ops)
                              : 0;
}

// Min-of-reps for the driver rows, for the same reason as the tier rows.
double MinDriverNs(bool record_latency, std::uint64_t duration_ms) {
  double best = 0;
  for (int rep = 0; rep < 3; ++rep) {
    const double ns = DriverNsPerOp(record_latency, duration_ms);
    best = rep == 0 ? ns : std::min(best, ns);
  }
  return best;
}

struct CacheRow {
  std::string mode;
  double set_heavy_mops = 0;  // 10% GET / 90% SET
  double get_heavy_mops = 0;  // 90% GET / 10% SET
  std::uint64_t evictions = 0;
};

CacheRow MeasureCache(MemCache::LruMode mode, int ops_per_thread) {
  CacheRow row;
  row.mode = mode == MemCache::LruMode::kGlobalLock ? "global" : "per_shard";
  CacheScenario::Params params;
  params.lru_mode = mode;
  // Capacity below the hot-key working set so the eviction scan (the LRU
  // mode's actual cost) is part of the measured workload.
  params.capacity = 10000;
  ScenarioConfig config;
  config.lock_name = "MUTEX";
  config.threads = 4;
  config.ops_per_thread = ops_per_thread;
  config.record_latency = false;  // throughput-only section
  params.get_percent = 10;
  CacheScenario set_heavy(params);
  const ScenarioResult set_result = RunScenario(set_heavy, config, "cache");
  row.set_heavy_mops = set_result.MopsPerS();
  row.evictions = static_cast<std::uint64_t>(set_result.MetricOr("evictions"));
  params.get_percent = 90;
  CacheScenario get_heavy(params);
  row.get_heavy_mops = RunScenario(get_heavy, config, "cache").MopsPerS();
  return row;
}

struct ScenarioRow {
  std::string name;
  std::string system;
  double mops = 0;
  double p99_cycles = 0;
  double joules = 0;
  double avg_watts = 0;
  double tpp = 0;  // ops/Joule via the meter fallback chain (RAPL -> model)
  std::string meter;
};

// One run per registered scenario through the unified driver, under the
// --lock/--threads values (the same values label the table and the JSON
// record). Per-op latency recording stays on here (unlike the
// cache rows): the p99 is part of the tracked trajectory. The driver
// attaches the default meter chain, so every row also carries joules/TPP --
// RAPL numbers on permitted hosts, calibrated-model numbers elsewhere.
std::vector<ScenarioRow> MeasureScenarios(const NativePerfOptions& options) {
  ScenarioConfig config;
  config.lock_name = options.lock;
  config.threads = options.threads;
  config.ops_per_thread = options.quick ? 6000 : 25000;
  std::vector<ScenarioRow> rows;
  for (const ScenarioInfo& info : RegisteredScenarios()) {
    if (!options.scenario.empty() && options.scenario != info.name) {
      continue;
    }
    const ScenarioResult result = RunScenarioByName(info.name, config);
    rows.push_back({info.name, info.system, result.MopsPerS(),
                    static_cast<double>(result.op_latency_cycles.P99()),
                    result.energy.total_joules(), result.AvgWatts(), result.Tpp(),
                    result.meter_name});
  }
  return rows;
}

// --- 5. ShardCombine thread scaling -----------------------------------------

struct ScalingVariant {
  const char* name;      // "single" | "sharded" | "combined"
  std::uint32_t shards;  // explicit count (0 never used here: "single" pins 1)
  bool combine;
};

struct ScalingRow {
  std::string scenario;
  std::string variant;
  std::uint32_t shards = 0;
  bool combine = false;
  int threads = 0;
  double mops = 0;
};

// The scaling section deliberately runs under TICKET, not the section-4
// MUTEX default: the paper's fair spinlock is the lock whose single-lock
// collapse under oversubscription (Figures 13-14) sharding and combining
// exist to fix, and on a small CI host it is the only regime where lock
// contention is visible at all -- the blocking MUTEX serializes through
// the kernel and hides it (see README "Sharding & combining" caveats).
constexpr const char* kScalingLock = "TICKET";

// Per-scenario 1/2/4/8-thread rows for single-lock vs sharded vs combined
// (src/systems/sharded.hpp), covering the four systems the scaling
// acceptance tracks (KvStore, NosqlDb, GraphStore, WalStore) on read-heavy
// and mixed mixes. Emitted as `scenario_scaling` in BENCH_native.json.
// Throughput is best-of-3 per point: these runs are milliseconds long and
// shared CI hosts routinely steal half a timeslice.
std::vector<ScalingRow> MeasureScaling(const NativePerfOptions& options) {
  struct Target {
    const char* scenario;
    std::uint32_t sharded_shards;  // the "sharded"/"combined" shard count
  };
  // Shard counts: kvstore stays at 8 because its range scans fan out over
  // every shard (hash-partitioned trees), so more shards buy contention
  // relief but pay a wider fan-out; nosql/btree has no scans and 8 matches
  // the HT region count; graph's registered default is already 32 shards
  // (its "single" variant pins shards=1 so the single-lock baseline is a
  // real one-lock system).
  const Target targets[] = {
      {"kvstore/RD", 8},      {"kvstore/WT-RD", 8},        {"nosql/btree", 8},
      {"graph/traverse", 32}, {"walstore/readwrite", 8},
  };
  const int thread_counts[] = {1, 2, 4, 8};
  constexpr int kScalingReps = 3;
  std::vector<ScalingRow> rows;
  ScenarioConfig config;
  config.lock_name = kScalingLock;
  config.ops_per_thread = options.quick ? 2500 : 10000;
  config.record_latency = false;  // throughput-only section
  config.meter = MeterChoice::kOff;
  for (const Target& target : targets) {
    if (!options.scenario.empty() && options.scenario != target.scenario) {
      continue;
    }
    const ScalingVariant variants[] = {
        {"single", 1, false},
        {"sharded", target.sharded_shards, false},
        {"combined", target.sharded_shards, true},
    };
    for (const ScalingVariant& variant : variants) {
      config.shards = variant.shards;
      config.combine = variant.combine;
      for (const int threads : thread_counts) {
        config.threads = threads;
        double best = 0;
        for (int rep = 0; rep < kScalingReps; ++rep) {
          const ScenarioResult result = RunScenarioByName(target.scenario, config);
          best = std::max(best, result.MopsPerS());
        }
        rows.push_back({target.scenario, variant.name, variant.shards, variant.combine,
                        threads, best});
      }
    }
  }
  return rows;
}

// --- NetServe loopback serving -----------------------------------------------

struct NetServeRow {
  std::string lock;
  std::size_t pipeline = 0;
  double requests_per_s = 0;
  double p50_us = 0;
  double p99_us = 0;
  std::uint64_t busy = 0;
};

// Requests/s and service percentiles for the epoll front-end over real
// loopback sockets, per lock and pipeline depth. Client and server run in
// one process (src/net/loadgen.hpp); on a host with a few cores the numbers
// measure the full stack -- epoll, RESP parsing, the lock under the cache
// -- not isolated lock throughput, so the tracked signal is the pipeline
// scaling ratio and the lock-to-lock ordering, not the absolute rate.
std::vector<NetServeRow> MeasureNetServe(const BenchOptions& options) {
  const std::size_t pipelines[] = {1, 8, 64};
  std::vector<NetServeRow> rows;
  for (const char* lock : {"MUTEX", "TICKET", "MUTEXEE"}) {
    NetServerOptions server_options;
    server_options.backend.system = "cache";
    server_options.backend.lock_name = lock;
    server_options.workers = 1;
    LockServer server(server_options);
    server.Start();
    for (const std::size_t pipeline : pipelines) {
      LoadgenOptions load;
      load.port = server.port();
      load.connections = 2;
      load.pipeline = pipeline;
      load.duration_ms = options.quick ? 150 : 500;
      const LoadgenResult result = RunLoadgen(load);
      NetServeRow row;
      row.lock = lock;
      row.pipeline = pipeline;
      row.requests_per_s = result.RequestsPerS();
      row.p50_us = static_cast<double>(result.latency_ns.P50()) / 1000.0;
      row.p99_us = static_cast<double>(result.latency_ns.P99()) / 1000.0;
      row.busy = result.busy;
      rows.push_back(row);
    }
    server.Drain();
    server.Join();
  }
  return rows;
}

}  // namespace
}  // namespace lockin

int main(int argc, char** argv) {
  using namespace lockin;
  NativePerfOptions options;
  FlagParser flags;
  options.Register(flags);
  flags.Int("--threads", &options.threads, 1, 4096, "scenario worker threads (default 4)");
  flags.String("--lock", &options.lock, "NAME", "lock for the scenario section (default MUTEX)");
  flags.String("--scenario", &options.scenario, "NAME",
               "restrict the scenario sections to one scenario");
  flags.Parse(argc, argv);
  // Validate the scenario-section overrides up front: a typo must fail
  // loudly here, not abort mid-run (--lock) or silently empty the tracked
  // scenarios array (--scenario).
  if (MakeLock(options.lock) == nullptr) {
    flags.Fail("unknown lock: " + options.lock);
  }
  if (!options.scenario.empty() &&
      ScenarioRegistry::Instance().Find(options.scenario) == nullptr) {
    flags.Fail("unknown scenario: " + options.scenario + " (see scenario_runner --list)");
  }

  // --- 1. Dispatch tiers, uncontested -------------------------------------
  const int iters = options.quick ? 200000 : 1000000;
  const std::vector<std::string> lock_names = {"TAS",  "TTAS",    "TICKET",  "MCS",
                                               "CLH",  "MUTEX",   "MUTEXEE", "PTHREAD"};
  std::vector<TierRow> tier_rows;
  for (const std::string& name : lock_names) {
    tier_rows.push_back(MeasureLock(name, iters));
  }
  const double floor_ns = RawExchangeStoreFloorNs(iters);

  TextTable tier_table({"lock", "static_ns/op", "handle_ns/op", "speedup"});
  for (const TierRow& row : tier_rows) {
    tier_table.AddRow({row.lock, FormatDouble(row.static_ns, 2), FormatDouble(row.handle_ns, 2),
                       FormatDouble(row.Speedup(), 2)});
  }
  tier_table.AddRow({"xchg+store floor", FormatDouble(floor_ns, 2), "-", "-"});
  EmitTable(tier_table, options,
            "Uncontested lock+unlock by dispatch tier (static = devirtualized templated loop, "
            "handle = LockHandle virtual calls; floor = bare locked exchange + release store)");

  // --- 2. Scenario driver overhead -----------------------------------------
  const std::uint64_t duration_ms = options.quick ? 40 : 150;
  DriverRow driver;
  driver.ns = MinDriverNs(false, duration_ms);
  driver.record_latency_ns = MinDriverNs(true, duration_ms);

  TextTable driver_table({"driver_ns", "driver_record_latency_ns"});
  driver_table.AddRow(
      {FormatDouble(driver.ns, 2), FormatDouble(driver.record_latency_ns, 2)});
  EmitTable(driver_table, options,
            "Scenario driver overhead (lock/counter, 1 thread, TAS, empty critical section, "
            "ns/op)");

  // --- 3. MemCache per LRU mode -------------------------------------------
  const int cache_ops = options.quick ? 30000 : 120000;
  std::vector<CacheRow> cache_rows;
  cache_rows.push_back(MeasureCache(MemCache::LruMode::kGlobalLock, cache_ops));
  cache_rows.push_back(MeasureCache(MemCache::LruMode::kPerShard, cache_ops));

  TextTable cache_table({"lru_mode", "set_heavy_Mops/s", "get_heavy_Mops/s", "evictions"});
  for (const CacheRow& row : cache_rows) {
    cache_table.AddRow({row.mode, FormatDouble(row.set_heavy_mops, 3),
                        FormatDouble(row.get_heavy_mops, 3), std::to_string(row.evictions)});
  }
  EmitTable(cache_table, options,
            "MemCache Mops/s by LRU mode (global = paper-shape SET contention, per_shard = "
            "segmented-LRU scale scenario; 4 threads, MUTEX)");

  // --- 4. Scenario layer: every mini-system through the unified driver -----
  const std::vector<ScenarioRow> scenario_rows = MeasureScenarios(options);
  TextTable scenario_table({"scenario", "system", "Mops/s", "op_p99_kcycles", "joules",
                            "TPP(op/J)", "meter"});
  for (const ScenarioRow& row : scenario_rows) {
    scenario_table.AddRow({row.name, row.system, FormatDouble(row.mops, 3),
                           FormatDouble(row.p99_cycles / 1e3, 1), FormatDouble(row.joules, 3),
                           FormatDouble(row.tpp, 0), row.meter});
  }
  EmitTable(scenario_table, options,
            "Registered scenarios via the unified native driver (" + options.lock + ", " +
                std::to_string(options.threads) + " threads; energy via RAPL-or-model chain)");

  // --- 5. ShardCombine thread scaling --------------------------------------
  const std::vector<ScalingRow> scaling_rows = MeasureScaling(options);
  TextTable scaling_table({"scenario", "variant", "shards", "threads", "Mops/s"});
  for (const ScalingRow& row : scaling_rows) {
    scaling_table.AddRow({row.scenario, row.variant, std::to_string(row.shards),
                          std::to_string(row.threads), FormatDouble(row.mops, 3)});
  }
  EmitTable(scaling_table, options,
            std::string("ShardCombine thread scaling (") + kScalingLock +
                ", best-of-3): single-lock vs sharded vs flat-combined, 1/2/4/8 threads");

  // --- 6. NetServe: served throughput over loopback -------------------------
  const std::vector<NetServeRow> net_rows = MeasureNetServe(options);
  TextTable net_table({"lock", "pipeline", "requests/s", "p50_us", "p99_us", "busy"});
  for (const NetServeRow& row : net_rows) {
    net_table.AddRow({row.lock, std::to_string(row.pipeline),
                      FormatDouble(row.requests_per_s, 0), FormatDouble(row.p50_us, 1),
                      FormatDouble(row.p99_us, 1), std::to_string(row.busy)});
  }
  EmitTable(net_table,
            options,
            "NetServe loopback serving (cache system, 1 worker, 2 connections): requests/s "
            "and reply latency per lock x pipeline depth");

  // --- Machine-readable trajectory record ----------------------------------
  std::ofstream json("BENCH_native.json");
  json << "{\n"
       << "  \"quick\": " << (options.quick ? "true" : "false") << ",\n"
       << "  \"uncontested_ns_per_op\": [\n";
  for (std::size_t i = 0; i < tier_rows.size(); ++i) {
    const TierRow& row = tier_rows[i];
    json << "    {\"lock\": \"" << row.lock << "\", \"static_ns\": "
         << FormatDouble(row.static_ns, 3) << ", \"handle_ns\": "
         << FormatDouble(row.handle_ns, 3) << ", \"speedup\": "
         << FormatDouble(row.Speedup(), 3) << "}" << (i + 1 < tier_rows.size() ? "," : "")
         << "\n";
  }
  json << "  ],\n"
       << "  \"raw_xchg_store_floor_ns\": " << FormatDouble(floor_ns, 3) << ",\n"
       << "  \"driver_ns_per_op\": {\"record_latency_off\": " << FormatDouble(driver.ns, 3)
       << ", \"record_latency_on\": " << FormatDouble(driver.record_latency_ns, 3)
       << "},\n"
       << "  \"memcache_mops\": [\n";
  for (std::size_t i = 0; i < cache_rows.size(); ++i) {
    const CacheRow& row = cache_rows[i];
    json << "    {\"lru_mode\": \"" << row.mode << "\", \"set_heavy\": "
         << FormatDouble(row.set_heavy_mops, 4) << ", \"get_heavy\": "
         << FormatDouble(row.get_heavy_mops, 4) << ", \"evictions\": " << row.evictions << "}"
         << (i + 1 < cache_rows.size() ? "," : "") << "\n";
  }
  json << "  ],\n"
       << "  \"scenario_lock\": \"" << options.lock << "\",\n"
       << "  \"scenario_threads\": " << options.threads << ",\n"
       << "  \"scenarios\": [\n";
  for (std::size_t i = 0; i < scenario_rows.size(); ++i) {
    const ScenarioRow& row = scenario_rows[i];
    json << "    {\"name\": \"" << row.name << "\", \"system\": \"" << row.system
         << "\", \"mops\": " << FormatDouble(row.mops, 4)
         << ", \"op_p99_cycles\": " << FormatDouble(row.p99_cycles, 0)
         << ", \"joules\": " << FormatDouble(row.joules, 6)
         << ", \"tpp\": " << FormatDouble(row.tpp, 3)
         << ", \"meter\": \"" << row.meter << "\"}"
         << (i + 1 < scenario_rows.size() ? "," : "") << "\n";
  }
  // LockScope trajectory section: the paper's efficiency metric (TPP,
  // ops/Joule) per scenario, from the same runs as the scenarios array.
  json << "  ],\n"
       << "  \"scenario_tpp\": [\n";
  for (std::size_t i = 0; i < scenario_rows.size(); ++i) {
    const ScenarioRow& row = scenario_rows[i];
    json << "    {\"name\": \"" << row.name << "\", \"tpp\": " << FormatDouble(row.tpp, 3)
         << ", \"avg_watts\": " << FormatDouble(row.avg_watts, 3)
         << ", \"meter\": \"" << row.meter << "\"}"
         << (i + 1 < scenario_rows.size() ? "," : "") << "\n";
  }
  // ShardCombine trajectory section: thread-scaling curves per scenario and
  // sharding variant (see MeasureScaling).
  json << "  ],\n"
       << "  \"scenario_scaling_lock\": \"" << kScalingLock << "\",\n"
       << "  \"scenario_scaling\": [\n";
  for (std::size_t i = 0; i < scaling_rows.size(); ++i) {
    const ScalingRow& row = scaling_rows[i];
    json << "    {\"scenario\": \"" << row.scenario << "\", \"variant\": \"" << row.variant
         << "\", \"lock\": \"" << kScalingLock << "\", \"shards\": " << row.shards
         << ", \"combine\": " << (row.combine ? "true" : "false")
         << ", \"threads\": " << row.threads << ", \"mops\": " << FormatDouble(row.mops, 4)
         << "}" << (i + 1 < scaling_rows.size() ? "," : "") << "\n";
  }
  // NetServe trajectory section: served requests/s + reply latency over
  // loopback per lock and pipeline depth (see MeasureNetServe).
  json << "  ],\n"
       << "  \"net_serve\": [\n";
  for (std::size_t i = 0; i < net_rows.size(); ++i) {
    const NetServeRow& row = net_rows[i];
    json << "    {\"lock\": \"" << row.lock << "\", \"system\": \"cache\", \"pipeline\": "
         << row.pipeline << ", \"requests_per_s\": " << FormatDouble(row.requests_per_s, 0)
         << ", \"p50_us\": " << FormatDouble(row.p50_us, 2)
         << ", \"p99_us\": " << FormatDouble(row.p99_us, 2)
         << ", \"busy\": " << row.busy << "}" << (i + 1 < net_rows.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::cout << "wrote BENCH_native.json\n";
  return 0;
}
