#include "src/locks/mutexee.hpp"

#include <algorithm>
#include <cstddef>

#include "src/platform/cycles.hpp"

// Wake-up protocol. A waiter registers in sleepers_ (fetch_add) and then
// marks the lock word 1 -> 2 (CAS); unlock() clears the word (exchange) and
// then reads sleepers_. That is a store-then-load handshake on two words
// (Dekker), and x86 lets a load pass an earlier store, so all four are
// seq_cst and fall in one total order S. If unlock()'s load reads no
// waiter, it precedes the waiter's fetch_add in S, so the exchange precedes
// the CAS: the CAS reads the cleared word or a later one and so can only
// mark a later hold, whose unlock() follows it in S and sees the waiter. A
// waiter that finds the word already at 2 sleeps without a CAS; FUTEX_WAIT
// re-reads the word in the kernel behind a full barrier, so it sleeps only
// while that 2 stands, and the unlock() that clears it follows the
// waiter's fetch_add in S. On x86 this costs nothing: the RMWs are locked
// instructions either way and the seq_cst load is a plain mov.

namespace lockin {

namespace {

// Bumps a counter only the lock holder writes: no locked RMW needed.
inline void BumpHeld(std::atomic<std::uint64_t>& counter) {
  counter.store(counter.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
}

}  // namespace

bool MutexeeLock::SpinAcquire(std::uint64_t budget) {
  const std::uint64_t start = ReadCycles();
  for (;;) {
    std::uint32_t current = state_.load(std::memory_order_relaxed);
    if (current == 0) {
      if (state_.compare_exchange_weak(current, 1, std::memory_order_acquire,
                                       std::memory_order_relaxed)) {
        return true;
      }
      continue;
    }
    if (ReadCycles() - start >= budget) {
      return false;
    }
    SpinPause(config_.pause);
  }
}

bool MutexeeLock::AcquireOrMarkSleepers() {
  for (;;) {
    std::uint32_t current = state_.load(std::memory_order_relaxed);
    if (current == 0) {
      if (state_.compare_exchange_weak(current, 2, std::memory_order_acquire,
                                       std::memory_order_relaxed)) {
        return true;
      }
      continue;
    }
    // The waiter's side of the handshake at the top of the file.
    if (current == 1 && !state_.compare_exchange_weak(current, 2, std::memory_order_seq_cst,
                                                      std::memory_order_relaxed)) {
      continue;
    }
    return false;
  }
}

void MutexeeLock::lock() {
  // Uncontested fast path: one CAS, no cycle reads.
  std::uint32_t free_state = 0;
  if (state_.compare_exchange_weak(free_state, 1, std::memory_order_acquire,
                                   std::memory_order_relaxed)) {
    OnAcquired(Handover::kSpin);
    return;
  }

  if (SpinAcquire(LockSpinBudget())) {
    OnAcquired(Handover::kSpin);
    return;
  }

  // Sleep phase. Advertise sleepers via state 2 and a sleeper count; the
  // count lets unlock skip the grace wait and the wake when nobody sleeps.
  Handover kind = Handover::kFutex;
  sleepers_.fetch_add(1, std::memory_order_seq_cst);
  while (!AcquireOrMarkSleepers()) {
    if (FutexWaitTimeoutCounted(&state_, 2, config_.sleep_timeout_ns, &futex_stats_) ==
        FutexWaitResult::kTimedOut) {
      kind = Handover::kTimeout;
      break;
    }
  }
  sleepers_.fetch_sub(1, std::memory_order_relaxed);
  if (kind == Handover::kTimeout) {
    // Timeout protocol: spin until acquired, never sleep again (bounds the
    // tail latency at ~the timeout; Figure 10).
    for (;;) {
      std::uint32_t current = state_.load(std::memory_order_relaxed);
      if (current == 0 && state_.compare_exchange_weak(current, 2, std::memory_order_acquire,
                                                       std::memory_order_relaxed)) {
        break;
      }
      SpinPause(config_.pause);
    }
  }
  OnAcquired(kind);
}

bool MutexeeLock::try_lock_for_ns(std::uint64_t timeout_ns) {
  // Uncontested fast path, identical to lock().
  std::uint32_t free_state = 0;
  if (state_.compare_exchange_weak(free_state, 1, std::memory_order_acquire,
                                   std::memory_order_relaxed)) {
    OnAcquired(Handover::kSpin);
    return true;
  }

  const std::uint64_t deadline_cycles = ReadCycles() + NsToCycles(timeout_ns);
  if (SpinAcquire(std::min(LockSpinBudget(), NsToCycles(timeout_ns)))) {
    OnAcquired(Handover::kSpin);
    return true;
  }

  // Timed sleep phase: like lock()'s, but every futex wait carries the
  // remaining deadline, and expiry abandons the acquisition instead of
  // entering the spin-forever timeout protocol.
  sleepers_.fetch_add(1, std::memory_order_seq_cst);
  while (!AcquireOrMarkSleepers()) {
    const std::uint64_t now = ReadCycles();
    if (now >= deadline_cycles) {
      sleepers_.fetch_sub(1, std::memory_order_relaxed);
      // Last-chance grab (the holder may have released during our final
      // spin-phase lap); acquire into state 2 as our sleeper mark is gone.
      std::uint32_t expected = 0;
      if (state_.compare_exchange_strong(expected, 2, std::memory_order_acquire,
                                         std::memory_order_relaxed)) {
        OnAcquired(Handover::kTimeout);
        return true;
      }
      return false;
    }
    // A zero-ns remainder would mean "no timeout" to FutexWaitTimeout; a
    // timed-out wait re-enters the loop and hits the deadline check.
    const std::uint64_t remaining_ns =
        std::max<std::uint64_t>(CyclesToNs(deadline_cycles - now), 1);
    FutexWaitTimeoutCounted(&state_, 2, remaining_ns, &futex_stats_);
  }
  sleepers_.fetch_sub(1, std::memory_order_relaxed);
  OnAcquired(Handover::kFutex);
  return true;
}

bool MutexeeLock::try_lock() {
  std::uint32_t expected = 0;
  if (state_.compare_exchange_strong(expected, 1, std::memory_order_acquire,
                                     std::memory_order_relaxed)) {
    OnAcquired(Handover::kSpin);
    return true;
  }
  return false;
}

void MutexeeLock::unlock() {
  // The unlocker's side of the handshake at the top of the file. exchange
  // rather than a seq_cst store, which g++ emits as a mov plus mfence.
  state_.exchange(0, std::memory_order_seq_cst);
  if (sleepers_.load(std::memory_order_seq_cst) == 0) {
    return;  // nobody to wake; fully user-space handover
  }

  if (config_.enable_unlock_grace) {
    // Grace window: if a spinning/arriving thread takes the lock in user
    // space within ~one coherence round-trip, the sleepers stay asleep and
    // we skip the (expensive, >= 7000-cycle turnaround) futex wake.
    const Mode mode = mode_.load(std::memory_order_relaxed);
    const std::uint64_t grace = mode == Mode::kSpin
                                    ? spin_grace_budget_.load(std::memory_order_relaxed)
                                    : config_.mutex_mode_grace_cycles;
    const std::uint64_t start = ReadCycles();
    for (;;) {
      if (state_.load(std::memory_order_relaxed) != 0) {
        wake_skips_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      if (ReadCycles() - start >= grace) {
        break;
      }
      SpinPause(config_.pause);
    }
  }
  FutexWakeCounted(&state_, 1, &futex_stats_);
}

void MutexeeLock::OnAcquired(Handover kind) {
  BumpHeld(acquires_);
  BumpHeld(window_acquires_);
  switch (kind) {
    case Handover::kSpin:
      BumpHeld(spin_handovers_);
      break;
    case Handover::kFutex:
      BumpHeld(futex_handovers_);
      BumpHeld(window_futex_);
      break;
    case Handover::kTimeout:
      BumpHeld(timeout_handovers_);
      break;
  }
  MaybeAdapt();
}

void MutexeeLock::MaybeAdapt() {
  // Runs only from OnAcquired, with the lock held, so the window counters,
  // mode_ and mode_switches_ have one writer at a time: plain loads and
  // stores suffice and there is no reset race between threads to settle.
  const std::uint64_t window = window_acquires_.load(std::memory_order_relaxed);
  if (window < config_.adapt_period) {
    return;
  }
  const std::uint64_t futex_count = window_futex_.load(std::memory_order_relaxed);
  window_acquires_.store(0, std::memory_order_relaxed);
  window_futex_.store(0, std::memory_order_relaxed);
  const double ratio = static_cast<double>(futex_count) / static_cast<double>(window);
  const Mode desired = ratio > config_.futex_ratio_threshold ? Mode::kMutex : Mode::kSpin;
  if (desired != mode_.load(std::memory_order_relaxed)) {
    mode_.store(desired, std::memory_order_relaxed);
    BumpHeld(mode_switches_);
  }
}

MutexeeLock::Stats MutexeeLock::GetStats() const {
  // Layout fence (in a member, so offsetof may name private fields): a
  // field inserted among the hot ones would bring back a second line miss
  // per migrated acquire.
  constexpr std::size_t kHot = offsetof(MutexeeLock, state_);
  static_assert(offsetof(MutexeeLock, sleepers_) > kHot && offsetof(MutexeeLock, mode_) > kHot &&
                    offsetof(MutexeeLock, window_futex_) + sizeof(window_futex_) <=
                        kHot + kCacheLineSize,
                "sleepers_, mode_ and the holder-owned counters must follow state_ "
                "within its cache line");
  Stats s;
  s.acquires = acquires_.load(std::memory_order_relaxed);
  s.spin_handovers = spin_handovers_.load(std::memory_order_relaxed);
  s.futex_handovers = futex_handovers_.load(std::memory_order_relaxed);
  s.timeout_handovers = timeout_handovers_.load(std::memory_order_relaxed);
  s.wake_skips = wake_skips_.load(std::memory_order_relaxed);
  s.mode_switches = mode_switches_.load(std::memory_order_relaxed);
  return s;
}

void MutexeeLock::ResetStats() {
  acquires_.store(0, std::memory_order_relaxed);
  spin_handovers_.store(0, std::memory_order_relaxed);
  futex_handovers_.store(0, std::memory_order_relaxed);
  timeout_handovers_.store(0, std::memory_order_relaxed);
  wake_skips_.store(0, std::memory_order_relaxed);
  mode_switches_.store(0, std::memory_order_relaxed);
  window_acquires_.store(0, std::memory_order_relaxed);
  window_futex_.store(0, std::memory_order_relaxed);
  futex_stats_.Reset();
}

}  // namespace lockin
