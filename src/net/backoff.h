// Retry with exponential backoff + decorrelating jitter.
//
// One policy type shared by the federation sync path and the chaos
// suite. Delays are derived from a seeded util::Rng, so a fixed seed
// reproduces the exact retry timeline — the fault-injection harness
// depends on that determinism. Sleeping is injected (SleepFn):
// production callers pass a real sleeper, tests pass a recorder, and the
// in-memory transports pass a no-op.
#pragma once

#include <cstdint>
#include <functional>

#include "util/clock.h"
#include "util/result.h"
#include "util/rng.h"

namespace w5::net {

// How a caller waits out a backoff delay. Deliberately a plain function
// so tests can observe the exact delays chosen instead of sleeping.
using SleepFn = std::function<void(util::Micros)>;

// Actually sleeps the calling thread (std::this_thread::sleep_for).
SleepFn real_sleep();
// Does nothing; for single-threaded in-memory transports where a retry
// can proceed immediately.
SleepFn no_sleep();

struct RetryPolicy {
  int max_attempts = 3;                       // total tries, not re-tries
  util::Micros initial_backoff = 10'000;      // before the 2nd attempt
  double multiplier = 2.0;                    // exponential growth
  util::Micros max_backoff = 1'000'000;       // growth ceiling
  double jitter = 0.2;                        // ± fraction of the delay
  std::uint64_t seed = 0x5757575757575757ULL; // jitter determinism
};

// Delay sequence for one logical operation's retries. next_delay() is
// called after the Nth failure and returns how long to wait before
// attempt N+1; exhausted() turns true once max_attempts have been used.
class Backoff {
 public:
  explicit Backoff(const RetryPolicy& policy);

  bool exhausted() const noexcept { return attempts_ >= policy_.max_attempts; }
  int attempts() const noexcept { return attempts_; }

  // Records a failed attempt and returns the jittered delay to wait
  // before the next one (0 when exhausted — nothing left to wait for).
  util::Micros next_delay();

 private:
  RetryPolicy policy_;
  util::Rng rng_;
  int attempts_ = 0;
  util::Micros current_ = 0;  // un-jittered exponential term
};

// Transport-level failures worth retrying: the peer may come back. Parse
// errors, policy denials, and clean HTTP error statuses are not — the
// same request would fail the same way.
bool retryable_error(const util::Error& error);

}  // namespace w5::net
