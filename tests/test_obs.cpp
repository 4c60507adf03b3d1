// LockScope observability tests: trace-ring overflow semantics, SPSC
// liveness, exporter JSON strictness (round-tripped through a strict RFC
// 8259 parser written below -- no external JSON dependency), metrics
// snapshot consistency under concurrent increments, the energy sampler's
// watts track, and TPP surfacing in scenario results.
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/energy/model_meter.hpp"
#include "src/energy/power_model.hpp"
#include "src/energy/rapl_meter.hpp"
#include "src/locks/lock_api.hpp"
#include "src/locks/lock_registry.hpp"
#include "src/locks/spinlocks.hpp"
#include "src/obs/export.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/sampler.hpp"
#include "src/obs/trace.hpp"
#include "src/platform/topology.hpp"
#include "src/sim/engine.hpp"
#include "src/systems/workload_api.hpp"

namespace lockin {
namespace {

// --- A strict RFC 8259 recursive-descent validator ---------------------------
// Deliberately unforgiving: no trailing commas, no NaN/Infinity, no bare
// values the grammar forbids. If WriteChromeTrace or MetricsRegistry::
// WriteJson emit anything loose, this rejects it.
class StrictJson {
 public:
  explicit StrictJson(std::string text) : text_(std::move(text)) {}

  bool Valid() {
    pos_ = 0;
    SkipWs();
    if (!Value()) {
      return false;
    }
    SkipWs();
    return pos_ == text_.size();
  }

 private:
  bool Value() {
    if (pos_ >= text_.size()) {
      return false;
    }
    switch (text_[pos_]) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }

  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek() == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      SkipWs();
      if (!String()) {
        return false;
      }
      SkipWs();
      if (Peek() != ':') {
        return false;
      }
      ++pos_;
      SkipWs();
      if (!Value()) {
        return false;
      }
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek() == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      SkipWs();
      if (!Value()) {
        return false;
      }
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool String() {
    if (Peek() != '"') {
      return false;
    }
    ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return false;  // raw control characters are forbidden
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) {
          return false;
        }
        const char e = text_[pos_];
        if (e == 'u') {
          for (int i = 1; i <= 4; ++i) {
            if (pos_ + i >= text_.size() || !std::isxdigit(static_cast<unsigned char>(
                                                text_[pos_ + i]))) {
              return false;
            }
          }
          pos_ += 4;
        } else if (e != '"' && e != '\\' && e != '/' && e != 'b' && e != 'f' && e != 'n' &&
                   e != 'r' && e != 't') {
          return false;
        }
      }
      ++pos_;
    }
    return false;
  }

  bool Number() {
    const std::size_t start = pos_;
    if (Peek() == '-') {
      ++pos_;
    }
    if (!Digits()) {
      return false;
    }
    if (Peek() == '.') {
      ++pos_;
      if (!Digits()) {
        return false;
      }
    }
    if (Peek() == 'e' || Peek() == 'E') {
      ++pos_;
      if (Peek() == '+' || Peek() == '-') {
        ++pos_;
      }
      if (!Digits()) {
        return false;
      }
    }
    return pos_ > start;
  }

  bool Digits() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool Literal(const char* word) {
    for (const char* p = word; *p != '\0'; ++p, ++pos_) {
      if (pos_ >= text_.size() || text_[pos_] != *p) {
        return false;
      }
    }
    return true;
  }

  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void SkipWs() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                                   text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  const std::string text_;
  std::size_t pos_ = 0;
};

// --- Trace ring --------------------------------------------------------------

TEST(TraceBufferTest, OverflowDropsAndCountsWithoutCorruptingEarlierEvents) {
  TraceBuffer ring(/*capacity=*/16, /*tid=*/3);
  EXPECT_EQ(ring.capacity(), 16u);
  for (std::uint32_t i = 0; i < 100; ++i) {
    ring.Push(i, TraceEventKind::kAcquired, i);
  }
  EXPECT_EQ(ring.size(), 16u);
  EXPECT_EQ(ring.dropped(), 84u);
  std::vector<TraceEvent> events;
  EXPECT_EQ(ring.Drain(&events), 16u);
  ASSERT_EQ(events.size(), 16u);
  for (std::uint32_t i = 0; i < 16; ++i) {
    EXPECT_EQ(events[i].timestamp, i);        // oldest events survive, in order
    EXPECT_EQ(events[i].arg, i);
    EXPECT_EQ(events[i].tid, 3);
    EXPECT_EQ(events[i].kind, static_cast<std::uint16_t>(TraceEventKind::kAcquired));
  }
  // Drained ring accepts events again and the drop counter persists.
  ring.Emit(TraceEventKind::kReleased, 7);
  EXPECT_EQ(ring.size(), 1u);
  EXPECT_EQ(ring.dropped(), 84u);
}

TEST(TraceBufferTest, CapacityRoundsUpToPowerOfTwo) {
  TraceBuffer ring(/*capacity=*/20, /*tid=*/0);
  EXPECT_EQ(ring.capacity(), 32u);
}

TEST(TraceBufferTest, SpscLiveDrainSeesEveryUndroppedEventInOrder) {
  TraceBuffer ring(/*capacity=*/256, /*tid=*/1);
  constexpr std::uint32_t kEvents = 100000;
  std::thread producer([&ring] {
    for (std::uint32_t i = 0; i < kEvents; ++i) {
      ring.Push(i, TraceEventKind::kAcquired, i);
    }
  });
  // Consume concurrently; args must arrive strictly increasing (drops skip
  // values but never reorder or tear).
  std::uint64_t popped = 0;
  std::int64_t last = -1;
  TraceEvent event;
  while (popped < kEvents) {
    if (ring.Pop(&event)) {
      EXPECT_GT(static_cast<std::int64_t>(event.arg), last);
      EXPECT_EQ(event.timestamp, event.arg);  // torn writes would break this
      last = static_cast<std::int64_t>(event.arg);
      ++popped;
      if (event.arg == kEvents - 1) {
        break;
      }
    } else if (ring.dropped() + popped >= kEvents) {
      break;
    }
  }
  producer.join();
  std::vector<TraceEvent> tail;
  ring.Drain(&tail);
  EXPECT_EQ(popped + tail.size() + ring.dropped(), kEvents);
}

TEST(TraceSinkTest, ScopedSinkRoutesEmitsAndRestores) {
  TraceBuffer ring(/*capacity=*/64, /*tid=*/0);
  TraceEmit(TraceEventKind::kAcquired, 1);  // no sink installed: discarded
  EXPECT_EQ(ring.size(), 0u);
  {
    ScopedTraceSink sink(&ring);
    TraceEmit(TraceEventKind::kAcquired, 2);
    EXPECT_EQ(ring.size(), 1u);
  }
  TraceEmit(TraceEventKind::kAcquired, 3);  // sink restored to null
  EXPECT_EQ(ring.size(), 1u);
}

// --- TracedHandle -------------------------------------------------------------

TEST(TracedHandleTest, WrapsAnyRegisteredLockAndEmits) {
  TraceBuffer ring(/*capacity=*/64, /*tid=*/0);
  ScopedTraceSink sink(&ring);
  std::unique_ptr<LockHandle> handle = WrapTraced(MakeLockOrThrow("TICKET", {}));
  EXPECT_EQ(handle->name(), "TICKET");
  handle->lock();
  handle->unlock();
  EXPECT_TRUE(handle->try_lock());
  handle->unlock();
  std::vector<TraceEvent> events;
  ring.Drain(&events);
  EXPECT_EQ(events.size(), 6u);  // (begin, acquired, released) x 2
}

// --- Exporter ----------------------------------------------------------------

std::vector<TraceEvent> SyntheticEvents() {
  TraceBuffer ring(/*capacity=*/256, /*tid=*/1);
  ring.Push(100, TraceEventKind::kPhaseBegin, 0);
  ring.Push(200, TraceEventKind::kPhaseEnd, 0);
  ring.Push(250, TraceEventKind::kPhaseBegin, 1);
  ring.Push(300, TraceEventKind::kAcquireBegin, 42);
  ring.Push(350, TraceEventKind::kContended, 42);
  ring.Push(400, TraceEventKind::kAcquired, 42);
  ring.Push(500, TraceEventKind::kReleased, 42);
  ring.Push(600, TraceEventKind::kFutexSleepBegin, 0);
  ring.Push(700, TraceEventKind::kFutexSleepEnd, 0);
  ring.Push(800, TraceEventKind::kFutexWake, 2);
  ring.Push(900, TraceEventKind::kEpochSwitch, 1);
  ring.Push(950, TraceEventKind::kWattsSample, 41500);
  ring.Push(1000, TraceEventKind::kPhaseEnd, 1);
  std::vector<TraceEvent> events;
  ring.Drain(&events);
  return events;
}

TEST(ChromeTraceTest, OutputIsStrictJson) {
  std::ostringstream out;
  ChromeTraceOptions options;
  options.process_name = "test \"quoted\" name\nwith control";  // must be escaped
  WriteChromeTrace(out, SyntheticEvents(), options);
  const std::string text = out.str();
  StrictJson parser(text);
  EXPECT_TRUE(parser.Valid()) << text;
}

TEST(ChromeTraceTest, PairsSlicesAndDiscardsUnmatchedBegins) {
  std::vector<TraceEvent> events = SyntheticEvents();
  // An acquire-begin whose end was dropped must not become a slice.
  TraceEvent orphan;
  orphan.timestamp = 2000;
  orphan.kind = static_cast<std::uint16_t>(TraceEventKind::kAcquireBegin);
  orphan.tid = 1;
  orphan.arg = 99;
  events.push_back(orphan);
  std::ostringstream out;
  WriteChromeTrace(out, events, {});
  const std::string text = out.str();
  // Slices produced: lock_wait (300->400), lock_hold (400->500), futex_sleep
  // (600->700), phase:setup, phase:run. Instants: contended, futex_wake,
  // epoch_switch. Counter: watts.
  EXPECT_NE(text.find("\"lock_wait\""), std::string::npos);
  EXPECT_NE(text.find("\"lock_hold\""), std::string::npos);
  EXPECT_NE(text.find("\"futex_sleep\""), std::string::npos);
  EXPECT_NE(text.find("\"phase:setup\""), std::string::npos);
  EXPECT_NE(text.find("\"phase:run\""), std::string::npos);
  EXPECT_NE(text.find("\"contended\""), std::string::npos);
  EXPECT_NE(text.find("\"futex_wake\""), std::string::npos);
  EXPECT_NE(text.find("\"epoch_switch\""), std::string::npos);
  EXPECT_NE(text.find("\"watts\""), std::string::npos);
  EXPECT_EQ(text.find("99"), text.rfind("99"));  // orphan site appears at most once (tid row)
  StrictJson parser(text);
  EXPECT_TRUE(parser.Valid()) << text;
}

TEST(ChromeTraceTest, EmptyEventListIsValidJson) {
  std::ostringstream out;
  WriteChromeTrace(out, {}, {});
  StrictJson parser(out.str());
  EXPECT_TRUE(parser.Valid()) << out.str();
}

// --- Metrics registry --------------------------------------------------------

TEST(MetricsTest, SnapshotConsistentUnderConcurrentIncrements) {
  MetricCounter counter;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 200000;
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        counter.Add(1);
      }
    });
  }
  go.store(true, std::memory_order_release);
  // Concurrent snapshots must be monotonic and never exceed the true total.
  std::uint64_t last = 0;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t value = counter.Value();
    EXPECT_GE(value, last);
    EXPECT_LE(value, kThreads * kPerThread);
    last = value;
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(counter.Value(), kThreads * kPerThread);
}

TEST(MetricsTest, RegistryReturnsStableRefsAndSnapshots) {
  MetricsRegistry registry;
  MetricCounter& a = registry.Counter("test.a");
  MetricCounter& a2 = registry.Counter("test.a");
  EXPECT_EQ(&a, &a2);  // same name, same counter
  a.Add(5);
  registry.Gauge("test.watts").Set(41.5);
  registry.Histogram("test.lat").Record(100);
  registry.Histogram("test.lat").Record(200);
  const auto samples = registry.Snapshot();
  bool saw_counter = false;
  for (const auto& sample : samples) {
    if (sample.name == "test.a") {
      saw_counter = true;
      EXPECT_DOUBLE_EQ(sample.value, 5.0);
    }
  }
  EXPECT_TRUE(saw_counter);
}

TEST(MetricsTest, WriteJsonIsStrictAndEscapes) {
  MetricsRegistry registry;
  registry.Counter("weird\"name\\with\nstuff").Add(1);
  registry.Gauge("g").Set(0.125);
  registry.Histogram("h").Record(1000);
  std::ostringstream out;
  registry.WriteJson(out);
  StrictJson parser(out.str());
  EXPECT_TRUE(parser.Valid()) << out.str();
}

// --- Energy sampler + TPP ----------------------------------------------------

TEST(EnergySamplerTest, EmitsWattsTrackFromModelMeter) {
  ModelMeter meter(PowerModel(Topology::Detect(), PowerParams::PaperXeon()));
  meter.Start();
  TraceBuffer ring(/*capacity=*/256, /*tid=*/9);
  {
    EnergySampler sampler(&meter, /*interval_ms=*/1, &ring);
    std::this_thread::sleep_for(std::chrono::milliseconds(15));
    sampler.Finish();
  }
  std::vector<TraceEvent> events;
  ring.Drain(&events);
  ASSERT_GE(events.size(), 2u);  // several interval samples plus the final one
  for (const TraceEvent& event : events) {
    EXPECT_EQ(event.kind, static_cast<std::uint16_t>(TraceEventKind::kWattsSample));
    EXPECT_EQ(event.tid, 9);
  }
  EXPECT_GT(events.back().arg, 0u);  // at least idle power, in milliwatts
}

TEST(ScenarioEnergyTest, MeteredRunReportsTpp) {
  ScenarioConfig config;
  config.lock_name = "MUTEX";
  config.threads = 2;
  config.ops_per_thread = 2000;
  for (const char* name : {"kvstore/WT", "lock/counter"}) {
    const ScenarioResult result = RunScenarioByName(name, config);
    EXPECT_FALSE(result.meter_name.empty()) << name;
    EXPECT_GT(result.energy.total_joules(), 0.0) << name;
    EXPECT_GT(result.energy.seconds, 0.0) << name;
    EXPECT_GT(result.Tpp(), 0.0) << name;
    EXPECT_GT(result.AvgWatts(), 0.0) << name;
    EXPECT_EQ(result.total_ops, 2u * 2000u) << name;
  }
}

// An op that waits by sleeping or by spinning for the same time. The
// paper's point in one test: the sleeping run frees its hardware contexts,
// so it must draw less power than the spinning one.
class WaitScenario : public ScenarioWorkload {
 public:
  explicit WaitScenario(bool sleep) : sleep_(sleep) {}
  void Setup(const ScenarioConfig&) override {}
  void Op(ThreadContext&) override {
    constexpr auto kWait = std::chrono::microseconds(200);
    if (sleep_) {
      std::this_thread::sleep_for(kWait);
      return;
    }
    for (const auto end = std::chrono::steady_clock::now() + kWait;
         std::chrono::steady_clock::now() < end;) {
    }
  }

 private:
  bool sleep_;
};

TEST(ScenarioEnergyTest, SleepingWaitersDrawLessPowerThanSpinningOnes) {
  ScenarioConfig config;
  config.threads = 2;
  config.ops_per_thread = 250;  // about 50 ms per run
  WaitScenario sleeping(/*sleep=*/true);
  WaitScenario spinning(/*sleep=*/false);
  const ScenarioResult slept = RunScenario(sleeping, config, "wait/sleep");
  const ScenarioResult spun = RunScenario(spinning, config, "wait/spin");
  if (spun.meter_name == "rapl") {
    GTEST_SKIP() << "RAPL reads the whole package; this pins the CPU-time model";
  }
  ASSERT_EQ(spun.meter_name, "model");
  EXPECT_GT(slept.AvgWatts(), 0.0);
  EXPECT_LT(slept.AvgWatts(), spun.AvgWatts());
}

TEST(ScenarioEnergyTest, MeterOffLeavesEnergyZero) {
  ScenarioConfig config;
  config.lock_name = "MUTEX";
  config.threads = 1;
  config.ops_per_thread = 500;
  config.meter = MeterChoice::kOff;
  const ScenarioResult result = RunScenarioByName("kvstore/WT", config);
  EXPECT_TRUE(result.meter_name.empty());
  EXPECT_DOUBLE_EQ(result.energy.total_joules(), 0.0);
  EXPECT_DOUBLE_EQ(result.Tpp(), 0.0);
}

TEST(ScenarioEnergyTest, SamplingWithoutTraceOrMeterIsRejected) {
  // The sampler's only output is the trace's watts track, so a run that
  // would drop it fails before any thread starts instead of ignoring it.
  ScenarioConfig config;
  config.lock_name = "MUTEX";
  config.threads = 1;
  config.ops_per_thread = 10;
  config.energy_sample_ms = 5;
  EXPECT_THROW(RunScenarioByName("kvstore/WT", config), std::invalid_argument);
  config.trace = true;
  config.meter = MeterChoice::kOff;
  EXPECT_THROW(RunScenarioByName("kvstore/WT", config), std::invalid_argument);
  config.meter = MeterChoice::kAuto;
  EXPECT_NO_THROW(ValidateScenarioConfig(config));
}

TEST(ScenarioEnergyTest, DefaultMeterChainAlwaysYieldsAMeter) {
  // On any host: RAPL if readable, else the model. Never silently meterless.
  auto meter = MakeDefaultMeter();
  ASSERT_NE(meter, nullptr);
  EXPECT_TRUE(meter->Name() == "rapl" || meter->Name() == "model");
  // PowercapPresent must not throw/crash regardless of host permissions.
  (void)RaplMeter::PowercapPresent();
}

// --- Traced scenario + rwlock scenario ---------------------------------------

TEST(ScenarioTraceTest, TracedRunLandsLockEventsInSession) {
  TraceSession::Instance().Reset();
  ScenarioConfig config;
  config.lock_name = "MUTEX";
  config.threads = 2;
  config.ops_per_thread = 500;
  config.trace = true;
  config.trace_buffer_events = 1u << 12;
  config.meter = MeterChoice::kOff;
  const ScenarioResult result = RunScenarioByName("kvstore/WT", config);
  EXPECT_GT(result.total_ops, 0u);
  const std::vector<TraceEvent> events = TraceSession::Instance().Collect();
  ASSERT_FALSE(events.empty());
  bool saw_acquired = false;
  bool saw_phase = false;
  for (const TraceEvent& event : events) {
    if (event.kind == static_cast<std::uint16_t>(TraceEventKind::kAcquired)) {
      saw_acquired = true;
    }
    if (event.kind == static_cast<std::uint16_t>(TraceEventKind::kPhaseBegin)) {
      saw_phase = true;
    }
  }
  EXPECT_TRUE(saw_acquired);
  EXPECT_TRUE(saw_phase);
  // Exported form is strict JSON.
  std::ostringstream out;
  WriteChromeTrace(out, events, {});
  StrictJson parser(out.str());
  EXPECT_TRUE(parser.Valid());
  TraceSession::Instance().Reset();
  EXPECT_EQ(TraceSession::Instance().buffer_count(), 0u);
}

TEST(RwScenarioTest, ReadHeavyReportsReaderWriterCounters) {
  const std::uint64_t readers_before =
      MetricsRegistry::Instance().Counter("rwkv.reader_acquires").Value();
  ScenarioConfig config;
  config.lock_name = "MUTEX";  // recorded but ignored by design
  config.threads = 4;
  config.ops_per_thread = 2000;
  config.meter = MeterChoice::kOff;
  const ScenarioResult result = RunScenarioByName("rwkv/read-heavy", config);
  const double readers = result.MetricOr("reader_acquires");
  const double writers = result.MetricOr("writer_acquires");
  EXPECT_GT(readers, 0.0);
  EXPECT_GT(writers, 0.0);
  EXPECT_DOUBLE_EQ(readers + writers, static_cast<double>(result.total_ops));
  EXPECT_GT(readers, writers * 4);  // 90% read mix
  EXPECT_DOUBLE_EQ(result.MetricOr("invariants_ok"), 1.0);
  // The same totals flowed through the process MetricsRegistry.
  const std::uint64_t readers_after =
      MetricsRegistry::Instance().Counter("rwkv.reader_acquires").Value();
  EXPECT_EQ(readers_after - readers_before, static_cast<std::uint64_t>(readers));
}

// --- Simulator-stamped traces ------------------------------------------------

TEST(SimTraceTest, EngineStampsEventsWithSimTime) {
  SimEngine engine;
  TraceBuffer ring(/*capacity=*/64, /*tid=*/0);
  engine.AttachTrace(&ring);
  engine.Schedule(100, [&engine] {
    engine.EmitTrace(TraceEventKind::kAcquired, 2, 7);
  });
  engine.Schedule(250, [&engine] {
    engine.EmitTrace(TraceEventKind::kReleased, 2, 7);
  });
  engine.RunAll();
  std::vector<TraceEvent> events;
  ring.Drain(&events);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].timestamp, 100u);  // sim cycles, not rdtsc
  EXPECT_EQ(events[1].timestamp, 250u);
  EXPECT_EQ(events[0].tid, 2);
  EXPECT_EQ(events[0].arg, 7u);
  // Detached engine emits nothing (null check, no crash).
  engine.AttachTrace(nullptr);
  engine.Schedule(10, [&engine] { engine.EmitTrace(TraceEventKind::kAcquired, 0, 0); });
  engine.RunAll();
  EXPECT_EQ(ring.size(), 0u);
}

}  // namespace
}  // namespace lockin
