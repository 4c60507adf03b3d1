// Per-lock-site online profiler for the adaptive lock runtime.
//
// The paper's conclusion (section 7) is that no waiting policy wins
// everywhere: the right choice depends on how long waiters actually wait,
// how often they end up in the kernel, and what each of those outcomes
// costs in Joules. This profiler collects exactly those signals, cheaply
// and online, so the policy engine (src/adaptive/policy.hpp) can re-decide
// per epoch instead of per platform:
//
//   * acquisition rate (acquires/s) and epoch length in cycles;
//   * EWMA of the acquire wait time and of the critical-section hold time;
//   * how many acquisitions were contended, and how many went through a
//     futex sleep (reported by the backends' FutexStats at epoch end);
//   * an estimated energy-per-acquire, derived from the same calibrated
//     constants as the PowerModel (src/energy/power_model.hpp), so the
//     bandit policy can optimize the paper's TPP metric directly.
//
// Threading contract: every Record* / EndEpoch call MUST be made by the
// thread currently holding the adaptive lock (single-writer). Snapshots
// returned by EndEpoch are plain values and may be shipped anywhere.
#ifndef SRC_ADAPTIVE_LOCK_STATS_HPP_
#define SRC_ADAPTIVE_LOCK_STATS_HPP_

#include <cstdint>

#include "src/energy/power_model.hpp"

namespace lockin {

// Energy constants for the per-acquire estimate, derived from PowerParams.
// All watts are *dynamic* per-context costs (idle power is the same under
// every policy and cancels out of the comparison).
struct AdaptiveEnergyParams {
  double spin_watts = 2.66;      // one context busy-waiting (mfence pausing)
  double hold_watts = 3.47;      // the critical-section owner
  double sleep_watts = 0.11;     // kernel housekeeping for a sleeping thread
  double kernel_joules_per_sleep = 1.4e-5;  // futex sleep + wake + turnaround
  double cycles_per_second = 2.8e9;

  // Derives the constants from a PowerModel calibration: spin/hold watts
  // from the activity factors, the per-sleep energy from the paper's futex
  // latencies (sleep ~2100, wake ~2700, turnaround ~7000 cycles) run at
  // kernel activity.
  static AdaptiveEnergyParams FromPowerParams(const PowerParams& params,
                                              double cycles_per_second = 2.8e9);
  static AdaptiveEnergyParams PaperXeon() {
    return FromPowerParams(PowerParams::PaperXeon());
  }
};

// One epoch's digest, consumed by the policy engine.
struct LockSiteSnapshot {
  std::uint64_t epoch = 0;             // epochs completed so far
  std::uint64_t acquires = 0;          // acquisitions in this epoch
  double avg_wait_cycles = 0.0;        // EWMA across acquisitions
  double avg_hold_cycles = 0.0;        // EWMA across acquisitions
  double contended_ratio = 0.0;        // waited longer than a coherence hop
  double sleep_ratio = 0.0;            // futex sleeps / acquisitions (epoch)
  double acquires_per_second = 0.0;    // epoch rate
  double energy_per_acquire_joules = 0.0;  // model estimate (dynamic only)
};

class LockSiteStats {
 public:
  LockSiteStats() : LockSiteStats(AdaptiveEnergyParams{}) {}
  explicit LockSiteStats(AdaptiveEnergyParams energy, double ewma_alpha = 0.2,
                         std::uint64_t contended_threshold_cycles = 800);

  // Records one acquisition; called with the lock held. `wait_cycles` is the
  // time from requesting the lock to owning it, `hold_cycles` the critical
  // section length.
  void RecordAcquire(std::uint64_t wait_cycles, std::uint64_t hold_cycles);

  // Records an acquisition whose timings were not sampled (the adaptive
  // lock samples 1-in-2^k acquires to keep rdtsc off the fast path). Counts
  // toward epoch progress and rates; leaves the EWMAs untouched.
  void RecordUnsampled();

  // Acquisitions recorded since the last EndEpoch.
  std::uint64_t epoch_acquires() const { return epoch_acquires_; }

  // Closes the epoch and returns its digest. `now_cycles` is a monotonic
  // cycle timestamp; `epoch_sleep_calls` is how many futex sleeps the
  // backends performed during the epoch (delta of their FutexStats).
  LockSiteSnapshot EndEpoch(std::uint64_t now_cycles, std::uint64_t epoch_sleep_calls);

  // Most recent digest (zero-valued before the first EndEpoch).
  const LockSiteSnapshot& last_snapshot() const { return last_; }

  // Lifetime counters (diagnostics).
  std::uint64_t total_acquires() const { return total_acquires_; }

  const AdaptiveEnergyParams& energy_params() const { return energy_; }

 private:
  AdaptiveEnergyParams energy_;
  double alpha_;
  std::uint64_t contended_threshold_;

  // EWMAs persist across epochs; epoch counters reset each EndEpoch.
  double wait_ewma_ = 0.0;
  double hold_ewma_ = 0.0;
  bool ewma_seeded_ = false;

  std::uint64_t epoch_acquires_ = 0;
  std::uint64_t epoch_sampled_ = 0;
  std::uint64_t epoch_contended_ = 0;
  std::uint64_t epoch_start_cycles_ = 0;
  bool epoch_started_ = false;

  std::uint64_t total_acquires_ = 0;
  std::uint64_t epochs_ = 0;
  LockSiteSnapshot last_;
};

// Estimated dynamic energy of one acquisition under the observed profile:
// waiters burn spin power (or sleep power plus the kernel transition cost
// when they slept), the owner burns critical-section power. Exposed for the
// policy engine and tests.
double EstimateEnergyPerAcquire(double avg_wait_cycles, double avg_hold_cycles,
                                double sleep_ratio, const AdaptiveEnergyParams& params);

}  // namespace lockin

#endif  // SRC_ADAPTIVE_LOCK_STATS_HPP_
