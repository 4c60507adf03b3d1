// Policy engine for the adaptive lock runtime.
//
// Picks, per lock site and per epoch, which waiting policy the next epoch
// should use -- the decision the paper shows cannot be made statically
// (sections 3-5: spinning wastes power under long waits, sleeping destroys
// throughput and tail latency under short ones, MUTEXEE's fixed budgets are
// tuned per platform). EwmaThresholdPolicy classifies the observed
// wait-time EWMA into the three regimes with hysteresis. Short waits -> pure
// spinning (TTAS); long waits or heavy kernel involvement -> sleeping
// (MUTEX/futex); the middle ground -> MUTEXEE's spin-then-sleep. This
// mirrors the active/passive wait-policy tradeoff studied for OpenMP
// runtimes (Valter et al., 2022) with the paper's cycle budgets as
// thresholds. The AdaptivePolicy interface lets tests inject a fake.
//
// The engine also retunes MUTEXEE's spin/grace budgets inside bounds
// derived from the platform tuner (RunMutexeeTuner) instead of trusting
// one fixed per-platform configuration.
#ifndef SRC_ADAPTIVE_POLICY_HPP_
#define SRC_ADAPTIVE_POLICY_HPP_

#include <cstdint>
#include <memory>
#include <string>

#include "src/adaptive/lock_stats.hpp"
#include "src/locks/mutexee.hpp"
#include "src/locks/tuner.hpp"

namespace lockin {

// The backends the adaptive lock switches among (src/adaptive/adaptive_lock.hpp).
enum class AdaptiveBackend : int {
  kSpin = 0,     // TTAS: local spinning, best when waits are short
  kSleep = 1,    // FutexLock (the paper's MUTEX): best when waits are long
  kMutexee = 2,  // spin-then-sleep with unlock grace: the middle ground
};
inline constexpr int kAdaptiveBackendCount = 3;

const char* AdaptiveBackendName(AdaptiveBackend backend);

// Allowed range for MUTEXEE's spin-mode budgets when the policy retunes
// them. Defaults bracket the paper's Xeon values (8000-cycle spin, 384-cycle
// grace); FromTunerReport derives host-specific bounds from the measured
// futex turnaround and cache-line transfer latencies.
struct MutexeeBudgetBounds {
  std::uint64_t spin_min_cycles = 4000;
  std::uint64_t spin_max_cycles = 32000;
  std::uint64_t grace_min_cycles = 128;
  std::uint64_t grace_max_cycles = 1536;

  // Spin in [1x, 4x] the futex turnaround ("spinning for more than 4000
  // cycles is crucial"; spinning much beyond the turnaround only burns
  // power), grace in [1x, 4x] one line transfer.
  static MutexeeBudgetBounds FromTunerReport(const TunerReport& report);
};

struct PolicyConfig {
  // EWMA-threshold policy: regime boundaries on the wait-time EWMA, and the
  // multiplicative hysteresis a boundary must be crossed by to leave the
  // current backend (prevents flapping at a threshold).
  double spin_wait_max_cycles = 4000.0;    // below: pure spinning wins
  double sleep_wait_min_cycles = 40000.0;  // above: sleeping wins
  double hysteresis = 1.5;

  // MUTEXEE budget retuning.
  bool retune_mutexee = true;
  MutexeeBudgetBounds mutexee_bounds;
};

class AdaptivePolicy {
 public:
  virtual ~AdaptivePolicy() = default;

  // Picks the backend for the next epoch given the closed epoch's digest.
  virtual AdaptiveBackend Decide(const LockSiteSnapshot& snapshot,
                                 AdaptiveBackend current) = 0;

  virtual std::string name() const = 0;
};

class EwmaThresholdPolicy final : public AdaptivePolicy {
 public:
  explicit EwmaThresholdPolicy(const PolicyConfig& config) : config_(config) {}

  AdaptiveBackend Decide(const LockSiteSnapshot& snapshot, AdaptiveBackend current) override;
  std::string name() const override { return "ewma-threshold"; }

 private:
  PolicyConfig config_;
};

// Retuned MUTEXEE spin-mode budgets for the observed regime, clamped to
// `bounds`: spin a bit past the typical wait (so handovers stay in user
// space), stretch the unlock grace when many waiters reach the futex (each
// skipped wake saves a >= 7000-cycle turnaround).
struct MutexeeBudgets {
  std::uint64_t spin_cycles;
  std::uint64_t grace_cycles;
};
MutexeeBudgets RetuneMutexeeBudgets(const LockSiteSnapshot& snapshot,
                                    const MutexeeBudgetBounds& bounds);

}  // namespace lockin

#endif  // SRC_ADAPTIVE_POLICY_HPP_
