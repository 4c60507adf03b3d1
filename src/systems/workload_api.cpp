#include "src/systems/workload_api.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <thread>
#include <utility>

#include "src/analysis/lockdep.hpp"
#include "src/energy/model_meter.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/sampler.hpp"
#include "src/platform/cacheline.hpp"
#include "src/platform/cycles.hpp"
#include "src/platform/failpoint.hpp"
#include "src/platform/spin_hint.hpp"
#include "src/systems/scenarios/scenario_defs.hpp"

namespace lockin {
namespace {

std::uint64_t SteadyNowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// The calling thread's one-shot op deadline (see ArmOpDeadline). Plain TLS:
// armed by the driver and consumed by the first DeadlineHandle::lock of the
// same op, always on the same thread.
struct OpDeadline {
  std::uint64_t deadline_ns = 0;  // absolute steady-clock ns
  bool armed = false;
};
thread_local constinit OpDeadline tls_op_deadline;

// Converts the op's entry acquisition into a timed wait. Only the FIRST
// lock() after ArmOpDeadline is bounded: past the entry lock the op has
// typically started mutating and must run to completion (a nested CondVar
// re-acquire or hand-over-hand chain aborted halfway would tear system
// state), so nested acquisitions block normally.
class DeadlineHandle final : public LockHandle {
 public:
  explicit DeadlineHandle(std::unique_ptr<LockHandle> inner) : inner_(std::move(inner)) {}

  void lock() LL_ACQUIRE() LL_NO_THREAD_SAFETY_ANALYSIS override {
    if (tls_op_deadline.armed) [[unlikely]] {
      tls_op_deadline.armed = false;
      const std::uint64_t deadline = tls_op_deadline.deadline_ns;
      const std::uint64_t now = SteadyNowNs();
      if (now >= deadline || !inner_->AcquireFor(deadline - now)) {
        throw OpShedError("op deadline expired acquiring " + inner_->name());
      }
      return;
    }
    inner_->lock();
  }

  void unlock() LL_RELEASE() LL_NO_THREAD_SAFETY_ANALYSIS override { inner_->unlock(); }
  bool try_lock() LL_TRY_ACQUIRE(true) LL_NO_THREAD_SAFETY_ANALYSIS override {
    return inner_->try_lock();
  }
  bool AcquireFor(std::uint64_t timeout_ns) LL_TRY_ACQUIRE(true)
      LL_NO_THREAD_SAFETY_ANALYSIS override {
    return inner_->AcquireFor(timeout_ns);
  }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<LockHandle> inner_;
};

// 1 / log(1 - 1/kOpLatencySampleGap): scales log(U), U uniform in (0, 1],
// into a geometric gap with mean kOpLatencySampleGap.
const double kSampleGapScale = 1.0 / std::log1p(-1.0 / kOpLatencySampleGap);

// A countdown no run can exhaust: with recording off no op is timed.
constexpr std::uint64_t kNeverSample = ~std::uint64_t{0};

// Salt that keeps the latency sampler's stream apart from the workload's.
constexpr std::uint64_t kSamplerSeedSalt = 0x6c8e9cf570932bd5ULL;

// Per-worker hot state, one slot per thread: everything a worker writes
// per op (op counter, sample countdown, counters, histogram) lives in its
// own slot, each slot starting on a cache-line boundary and spanning whole
// lines, so the measured loop shares no written line across threads and the
// driver itself performs no per-op heap allocation. (ThreadContext's scratch
// strings own heap blocks, but those are per-thread and stop reallocating
// once warm.)
struct alignas(kCacheLineSize) WorkerSlot {
  WorkerSlot(std::uint64_t rng_seed, std::uint64_t sampler_seed, bool record)
      : ctx(rng_seed), sampler(sampler_seed) {
    if (record) {
      sample_countdown = NextSampleGap();
    }
  }

  // Ops up to and including the next timed one: 1 + Geometric(1/N).
  std::uint64_t NextSampleGap() {
    const double u = 1.0 - sampler.NextDouble();  // (0, 1]
    return 1 + static_cast<std::uint64_t>(std::log(u) * kSampleGapScale);
  }

  ThreadContext ctx;
  Xoshiro256 sampler;  // latency sampling only; never ctx.rng
  std::uint64_t sample_countdown = kNeverSample;
  LatencyHistogram latency;
  std::uint64_t counters[ScenarioWorkload::kMaxCounters] = {};

  // FailSafe cross-thread fields. Plain members (the slot must stay movable
  // for the slots vector); the worker writes and the watchdog reads them
  // through std::atomic_ref once the vector has stopped growing. `progress`
  // counts op *attempts* (shed ops included), so a worker that is shedding
  // under a deadline still reads as live, not stalled.
  std::uint64_t progress = 0;
  bool finished = false;
  std::uint64_t shed = 0;          // ops abandoned after deadline + retries
  std::uint64_t shed_retries = 0;  // deadline expiries that were retried
};
static_assert(alignof(WorkerSlot) == kCacheLineSize,
              "worker slots must start on a cache-line boundary");
static_assert(sizeof(WorkerSlot) % kCacheLineSize == 0,
              "worker slots must span whole cache lines so adjacent slots "
              "never share one (false-sharing regression guard)");

// One op, timed when the slot's countdown reaches zero. Op keeps one call
// site, so a timed op runs the same code as an untimed one. The next gap is
// drawn after the closing ReadCycles, so the draw (a log) never lands in a
// timed window. An op that throws records nothing and leaves the countdown
// at zero for DoOneOp to re-arm.
inline void RunOpTimed(ScenarioWorkload& workload, WorkerSlot& slot) {
  const bool timed = --slot.sample_countdown == 0;
  std::uint64_t before = 0;
  if (timed) [[unlikely]] {
    before = ReadCycles();
  }
  workload.Op(slot.ctx);
  if (timed) [[unlikely]] {
    slot.latency.Record(ReadCycles() - before);
    slot.sample_countdown = slot.NextSampleGap();
  }
}

// One operation with op counting and sampled latency recording wrapped
// around it. With a per-op deadline configured, a deadline miss on the op's
// entry acquisition (OpShedError from the DeadlineHandle wrapper) is retried
// with exponential backoff up to config.op_retries times, then the op is
// shed: op_index and latency record successes only, so throughput and tail
// latency describe completed work.
inline void DoOneOp(ScenarioWorkload& workload, const ScenarioConfig& config, WorkerSlot& slot) {
  (void)FailpointFired(FailpointId::kScenarioOp);  // delay-only chaos site
  if (config.op_deadline_ns == 0) {
    RunOpTimed(workload, slot);
    ++slot.ctx.op_index;
    return;
  }
  for (std::uint32_t attempt = 0;; ++attempt) {
    ArmOpDeadline(config.op_deadline_ns);
    try {
      RunOpTimed(workload, slot);
      DisarmOpDeadline();
      ++slot.ctx.op_index;
      return;
    } catch (const OpShedError&) {
      DisarmOpDeadline();
      if (slot.sample_countdown == 0) {
        slot.sample_countdown = slot.NextSampleGap();  // the shed attempt was the timed one
      }
      TraceEmit(TraceEventKind::kOpShed, attempt);
      if (attempt >= config.op_retries) {
        ++slot.shed;
        return;
      }
      ++slot.shed_retries;
      // Sleep rather than spin between retries: the deadline expired because
      // the entry lock is congested, so give the holder the core.
      const std::uint32_t shift = attempt < 6 ? attempt : 6;
      std::this_thread::sleep_for(std::chrono::microseconds(std::uint64_t{1} << shift));
    }
  }
}

void WorkerBody(ScenarioWorkload& workload, const ScenarioConfig& config, WorkerSlot& slot,
                const std::atomic<bool>& start_flag, const std::atomic<bool>& stop_flag) {
  // Bind the counter slots here rather than in the constructor: the slots
  // vector may move its elements while being filled.
  slot.ctx.counters = slot.counters;
  while (!start_flag.load(std::memory_order_acquire)) {
    SpinPause(PauseKind::kYield);
  }
  std::atomic_ref<std::uint64_t> progress(slot.progress);
  std::uint64_t attempts = 0;
  const std::uint32_t cadence = config.stop_check_every == 0 ? 1 : config.stop_check_every;
  if (config.duration_ms == 0) {
    // Fixed-op mode: deterministic for a fixed seed. The external stop flag
    // (SIGINT wiring) is polled only when one is installed, so plain runs
    // keep the exact per-op instruction sequence.
    std::uint32_t countdown = cadence;
    for (int i = 0; i < config.ops_per_thread; ++i) {
      if (config.external_stop != nullptr && --countdown == 0) {
        if (config.external_stop->load(std::memory_order_relaxed)) {
          break;
        }
        countdown = cadence;
      }
      DoOneOp(workload, config, slot);
      progress.store(++attempts, std::memory_order_relaxed);
    }
  } else {
    // Time-bounded mode: the stop flag is the only cross-thread line the
    // loop reads, polled once per `stop_check_every` ops.
    std::uint32_t countdown = 0;
    for (;;) {
      if (countdown == 0) {
        if (stop_flag.load(std::memory_order_relaxed)) {
          break;
        }
        countdown = cadence;
      }
      --countdown;
      DoOneOp(workload, config, slot);
      progress.store(++attempts, std::memory_order_relaxed);
    }
  }
  std::atomic_ref<bool>(slot.finished).store(true, std::memory_order_release);
}

}  // namespace

void ArmOpDeadline(std::uint64_t timeout_ns) {
  tls_op_deadline.deadline_ns = SteadyNowNs() + timeout_ns;
  tls_op_deadline.armed = true;
}

void DisarmOpDeadline() { tls_op_deadline.armed = false; }

std::unique_ptr<LockHandle> WrapDeadline(std::unique_ptr<LockHandle> inner) {
  return std::make_unique<DeadlineHandle>(std::move(inner));
}

double ScenarioResult::MetricOr(const std::string& name, double fallback) const {
  for (const ScenarioMetric& metric : metrics) {
    if (metric.name == name) {
      return metric.value;
    }
  }
  return fallback;
}

void ValidateScenarioConfig(const ScenarioConfig& config, const std::string& scenario_name) {
  if (config.threads < 1) {
    throw std::invalid_argument("scenario " + scenario_name + " needs at least one thread, got " +
                                std::to_string(config.threads));
  }
  // The sampler's only output is the trace's watts track.
  if (config.energy_sample_ms > 0 && (!config.trace || config.meter == MeterChoice::kOff)) {
    throw std::invalid_argument(
        "energy sampling writes a watts track into the trace; it needs trace on and a meter");
  }
}

ScenarioResult RunScenario(ScenarioWorkload& workload, const ScenarioConfig& config,
                           const std::string& scenario_name) {
  const std::vector<std::string> counter_names = workload.CounterNames();
  if (counter_names.size() > ScenarioWorkload::kMaxCounters) {
    throw std::invalid_argument("scenario declares more than kMaxCounters counters: " +
                                scenario_name);
  }
  ValidateScenarioConfig(config, scenario_name);

  // FailSafe: arm the requested failpoint profile for the whole run (setup
  // included), seeded from the run seed so fire patterns are reproducible.
  // No-op (and leaves any env-armed profile in place) when the spec is empty.
  ScopedFailpoints failpoint_scope(config.failpoints, config.seed);

  // LockScope: energy meter for the run phase. kAuto follows the fallback
  // chain (RAPL when readable, else the model over the process's CPU
  // time); the result carries joules/TPP as dedicated fields.
  std::unique_ptr<EnergyMeter> meter;
  if (config.meter == MeterChoice::kAuto) {
    meter = MakeDefaultMeter();
  }

  // LockScope: trace rings. tids 0..threads-1 are the workers; the driver
  // thread (setup/run phase markers) uses tid = threads and the energy
  // sampler tid = threads + 1. Setup runs with the driver's sink installed
  // so preload-time lock activity is visible too.
  TraceBuffer* driver_trace = nullptr;
  if (config.trace) {
    driver_trace = TraceSession::Instance().NewBuffer(static_cast<std::uint16_t>(config.threads),
                                                      config.trace_buffer_events);
  }
  ScopedTraceSink driver_sink(driver_trace);

  // LockLint: arm the lock-order detector for the whole run (setup included
  // -- preload-time inversions are inversions too). The scenario's locks
  // are TracedHandle-wrapped by MakeLockFactory when config.lockdep is set,
  // so every acquire/release feeds the acquisition graph.
  ScopedLockdep lockdep_scope(config.lockdep || LockdepIsEnabled());

  TraceEmit(TraceEventKind::kPhaseBegin, 0);
  workload.Setup(config);
  TraceEmit(TraceEventKind::kPhaseEnd, 0);

  std::atomic<bool> start_flag{false};
  std::atomic<bool> stop_flag{false};
  std::vector<WorkerSlot> slots;
  slots.reserve(static_cast<std::size_t>(config.threads));
  for (int t = 0; t < config.threads; ++t) {
    // Same per-thread workload seeding the pre-API cache driver used, so
    // seeded runs (and fig13's native rows) carry over unchanged.
    const auto index = static_cast<std::uint64_t>(t);
    slots.emplace_back(config.seed + index * 7 + 1, (config.seed ^ kSamplerSeedSalt) + index,
                       config.record_latency);
    slots.back().ctx.thread_index = t;
  }

  std::vector<TraceBuffer*> worker_traces(static_cast<std::size_t>(config.threads), nullptr);
  if (config.trace) {
    for (int t = 0; t < config.threads; ++t) {
      worker_traces[static_cast<std::size_t>(t)] = TraceSession::Instance().NewBuffer(
          static_cast<std::uint16_t>(t), config.trace_buffer_events);
    }
  }

  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(config.threads));
  for (int t = 0; t < config.threads; ++t) {
    WorkerSlot& slot = slots[static_cast<std::size_t>(t)];
    TraceBuffer* trace_buffer = worker_traces[static_cast<std::size_t>(t)];
    workers.emplace_back([&, &slot = slot, trace_buffer] {
      ScopedTraceSink sink(trace_buffer);  // null when tracing is off
      WorkerBody(workload, config, slot, start_flag, stop_flag);
    });
  }

  if (meter != nullptr) {
    meter->Start();
  }
  std::unique_ptr<EnergySampler> sampler;
  if (config.energy_sample_ms > 0) {
    sampler = std::make_unique<EnergySampler>(
        meter.get(), config.energy_sample_ms,
        TraceSession::Instance().NewBuffer(static_cast<std::uint16_t>(config.threads + 1),
                                           config.trace_buffer_events));
  }

  // FailSafe: watchdog thread. Polls every worker's attempt counter; a
  // worker that is neither finished nor advancing for a full window is
  // declared stalled. The report goes to stderr with the lockdep held-lock
  // snapshot and the failpoint counters, then the run either aborts with
  // exit code 3 (default: a wedged run fails fast instead of hanging ctest)
  // or is counted and the window re-armed. Trace tid threads+2 when tracing.
  std::atomic<bool> watchdog_stop{false};
  std::uint64_t watchdog_stalls = 0;
  std::thread watchdog;
  if (config.watchdog_ms > 0) {
    watchdog = std::thread([&] {
      TraceBuffer* wd_sink = nullptr;
      if (config.trace) {
        wd_sink = TraceSession::Instance().NewBuffer(
            static_cast<std::uint16_t>(config.threads + 2), config.trace_buffer_events);
      }
      ScopedTraceSink sink(wd_sink);
      const auto poll = std::chrono::milliseconds(
          std::max<std::uint32_t>(1, std::min<std::uint32_t>(config.watchdog_ms / 4, 25)));
      const std::uint64_t window_ns = std::uint64_t{config.watchdog_ms} * 1'000'000;
      while (!start_flag.load(std::memory_order_acquire)) {
        if (watchdog_stop.load(std::memory_order_acquire)) {
          return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      const std::uint64_t run_start = SteadyNowNs();
      std::vector<std::uint64_t> last_progress(slots.size(), 0);
      std::vector<std::uint64_t> last_change_ns(slots.size(), run_start);
      while (!watchdog_stop.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(poll);
        const std::uint64_t now = SteadyNowNs();
        for (std::size_t w = 0; w < slots.size(); ++w) {
          if (std::atomic_ref<bool>(slots[w].finished).load(std::memory_order_acquire)) {
            continue;
          }
          const std::uint64_t p =
              std::atomic_ref<std::uint64_t>(slots[w].progress).load(std::memory_order_relaxed);
          if (p != last_progress[w]) {
            last_progress[w] = p;
            last_change_ns[w] = now;
            continue;
          }
          if (now - last_change_ns[w] < window_ns) {
            continue;
          }
          const unsigned long long stalled_ms = (now - last_change_ns[w]) / 1'000'000;
          std::fprintf(stderr,
                       "lockin watchdog: worker %zu of scenario '%s' (lock %s) made no "
                       "progress for %llu ms (%llu op attempts completed)\n",
                       w, scenario_name.c_str(), config.lock_name.c_str(), stalled_ms,
                       static_cast<unsigned long long>(p));
          std::fputs("held traced locks at stall time:\n", stderr);
          std::fputs(LockdepHeldDescribe().c_str(), stderr);
          const std::string failpoints = FailpointsReport();
          if (!failpoints.empty()) {
            std::fputs(failpoints.c_str(), stderr);
          }
          TraceEmit(TraceEventKind::kWatchdogStall, static_cast<std::uint64_t>(w));
          if (config.on_stall) {
            config.on_stall();
          }
          if (config.watchdog_abort) {
            std::fputs("lockin watchdog: aborting the wedged run (exit code 3)\n", stderr);
            std::fflush(nullptr);
            std::_Exit(3);
          }
          ++watchdog_stalls;
          last_change_ns[w] = now;  // re-arm for the next window
        }
      }
    });
  }

  TraceEmit(TraceEventKind::kPhaseBegin, 1);
  const auto t0 = std::chrono::steady_clock::now();
  start_flag.store(true, std::memory_order_release);
  if (config.duration_ms != 0) {
    // Paced in short chunks so an external stop (SIGINT) ends the run early.
    const auto run_deadline = t0 + std::chrono::milliseconds(config.duration_ms);
    for (;;) {
      const auto now = std::chrono::steady_clock::now();
      if (now >= run_deadline) {
        break;
      }
      if (config.external_stop != nullptr &&
          config.external_stop->load(std::memory_order_relaxed)) {
        break;
      }
      const auto chunk = std::min<std::chrono::steady_clock::duration>(
          run_deadline - now, std::chrono::milliseconds(10));
      std::this_thread::sleep_for(chunk);
    }
    stop_flag.store(true, std::memory_order_release);
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  if (watchdog.joinable()) {
    watchdog_stop.store(true, std::memory_order_release);
    watchdog.join();
  }
  const auto t1 = std::chrono::steady_clock::now();
  TraceEmit(TraceEventKind::kPhaseEnd, 1);

  ScenarioResult result;
  if (sampler != nullptr) {
    sampler->Finish();
  }
  if (meter != nullptr) {
    result.energy = meter->Stop();
    result.meter_name = meter->Name();
  }
  result.scenario = scenario_name;
  result.lock_name = config.lock_name;
  result.threads = config.threads;
  result.seconds = std::chrono::duration_cast<std::chrono::duration<double>>(t1 - t0).count();
  std::vector<std::uint64_t> counter_sums(counter_names.size(), 0);
  for (const WorkerSlot& slot : slots) {
    result.total_ops += slot.ctx.op_index;
    result.ops_shed += slot.shed;
    result.shed_retries += slot.shed_retries;
    result.op_latency_cycles.Merge(slot.latency);
    for (std::size_t c = 0; c < counter_sums.size(); ++c) {
      counter_sums[c] += slot.counters[c];
    }
  }
  result.watchdog_stalls = watchdog_stalls;
  if (config.op_deadline_ns > 0) {
    MetricsRegistry::Instance().Counter("failsafe.ops_shed").Add(result.ops_shed);
    MetricsRegistry::Instance().Counter("failsafe.shed_retries").Add(result.shed_retries);
  }
  if (config.watchdog_ms > 0) {
    MetricsRegistry::Instance().Counter("failsafe.watchdog_stalls").Add(result.watchdog_stalls);
  }
  result.ops_per_s =
      result.seconds > 0 ? static_cast<double>(result.total_ops) / result.seconds : 0;
  result.metrics.reserve(counter_names.size());
  for (std::size_t c = 0; c < counter_names.size(); ++c) {
    result.metrics.push_back({counter_names[c], static_cast<double>(counter_sums[c])});
  }
  workload.AddSystemMetrics(&result.metrics);
  return result;
}

// --- Registry ----------------------------------------------------------------

ScenarioRegistry& ScenarioRegistry::Instance() {
  // Built-ins are registered through explicit per-system functions (declared
  // in scenarios/scenario_defs.hpp) instead of static registrar objects:
  // lockin is a static library, and the linker would drop a scenario
  // translation unit nothing references, silently emptying the registry.
  static ScenarioRegistry* registry = [] {
    auto* r = new ScenarioRegistry();
    RegisterKvStoreScenarios(*r);
    RegisterCacheScenarios(*r);
    RegisterNosqlScenarios(*r);
    RegisterGraphScenarios(*r);
    RegisterMiniSqlScenarios(*r);
    RegisterWalStoreScenarios(*r);
    RegisterCowListScenarios(*r);
    RegisterRwLockScenarios(*r);
    RegisterLockScenarios(*r);
    return r;
  }();
  return *registry;
}

void ScenarioRegistry::Register(ScenarioInfo info, Factory factory) {
  if (Find(info.name) != nullptr) {
    throw std::invalid_argument("duplicate scenario name: " + info.name);
  }
  entries_.push_back({std::move(info), std::move(factory)});
}

std::vector<ScenarioInfo> ScenarioRegistry::List() const {
  std::vector<ScenarioInfo> infos;
  infos.reserve(entries_.size());
  for (const Entry& entry : entries_) {
    infos.push_back(entry.info);
  }
  return infos;
}

const ScenarioInfo* ScenarioRegistry::Find(const std::string& name) const {
  for (const Entry& entry : entries_) {
    if (entry.info.name == name) {
      return &entry.info;
    }
  }
  return nullptr;
}

std::unique_ptr<ScenarioWorkload> ScenarioRegistry::Make(const std::string& name) const {
  for (const Entry& entry : entries_) {
    if (entry.info.name == name) {
      return entry.factory();
    }
  }
  return nullptr;
}

std::vector<ScenarioInfo> RegisteredScenarios() { return ScenarioRegistry::Instance().List(); }

std::unique_ptr<ScenarioWorkload> MakeScenario(const std::string& name) {
  return ScenarioRegistry::Instance().Make(name);
}

std::unique_ptr<ScenarioWorkload> MakeScenarioOrThrow(const std::string& name) {
  std::unique_ptr<ScenarioWorkload> workload = MakeScenario(name);
  if (workload == nullptr) {
    std::string message = "unknown scenario: '" + name + "'; available scenarios:";
    for (const ScenarioInfo& info : RegisteredScenarios()) {
      message += ' ';
      message += info.name;
    }
    throw std::invalid_argument(message);
  }
  return workload;
}

ScenarioResult RunScenarioByName(const std::string& name, const ScenarioConfig& config) {
  const std::unique_ptr<ScenarioWorkload> workload = MakeScenarioOrThrow(name);
  return RunScenario(*workload, config, name);
}

std::uint64_t SkewedKey(Xoshiro256* rng, std::uint64_t space) {
  std::uint64_t lo = 0;
  std::uint64_t hi = space;
  for (int level = 0; level < 4 && hi - lo > 16; ++level) {
    if (rng->NextDouble() < 0.8) {
      hi = lo + (hi - lo) / 5;
    } else {
      lo = lo + (hi - lo) / 5;
    }
  }
  return lo + rng->NextBelow(hi - lo + 1);
}

}  // namespace lockin
