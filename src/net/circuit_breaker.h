// Per-peer circuit breaker (closed → open → half-open).
//
// A dead federation peer must not wedge every sync cycle behind repeated
// connect-and-fail latencies: after `failure_threshold` consecutive
// failures the breaker opens and callers skip the peer outright; after
// `open_cooldown` it half-opens and lets a bounded number of probes
// through; one success re-closes it, one failure re-opens it. The state
// is exported as a /metrics gauge (0 closed, 1 half-open, 2 open).
#pragma once

#include <cstdint>
#include <mutex>
#include <string_view>

#include "util/clock.h"
#include "util/thread_annotations.h"
#include "util/lock_ranks.h"

namespace w5::net {

class CircuitBreaker {
 public:
  enum class State : std::uint8_t { kClosed = 0, kHalfOpen = 1, kOpen = 2 };

  struct Config {
    int failure_threshold = 3;                  // consecutive, while closed
    util::Micros open_cooldown = 1'000'000;     // open → half-open delay
    int half_open_probes = 1;                   // trial calls allowed
  };

  // Two ctors instead of a `Config config = {}` default argument: a
  // default arg may not use Config's member initializers before the
  // enclosing class is complete.
  explicit CircuitBreaker(const util::Clock& clock)
      : CircuitBreaker(clock, Config{}) {}
  CircuitBreaker(const util::Clock& clock, Config config)
      : clock_(clock), config_(config) {}

  CircuitBreaker(const CircuitBreaker&) = delete;
  CircuitBreaker& operator=(const CircuitBreaker&) = delete;

  // True when the caller may attempt the operation now. While half-open,
  // each allow() consumes one probe slot; callers must follow up with
  // record_success()/record_failure() for the verdict.
  bool allow();

  void record_success();
  void record_failure();

  State state() const;
  int consecutive_failures() const;
  std::uint64_t rejected_total() const;  // calls refused while open

 private:
  // Open → half-open once the cooldown elapsed.
  void refresh_locked(util::Micros now) W5_REQUIRES(mutex_);

  const util::Clock& clock_;
  Config config_;
  mutable util::Mutex mutex_{util::lockrank::kCircuitBreaker,
                              "CircuitBreaker::mutex_"};
  State state_ W5_GUARDED_BY(mutex_) = State::kClosed;
  // Consecutive failures while closed.
  int failures_ W5_GUARDED_BY(mutex_) = 0;
  // allow()ed but not yet resolved (half-open).
  int probes_in_flight_ W5_GUARDED_BY(mutex_) = 0;
  util::Micros opened_at_ W5_GUARDED_BY(mutex_) = 0;
  std::uint64_t rejected_ W5_GUARDED_BY(mutex_) = 0;
};

// "closed", "half_open" or "open": the one spelling of each state.
std::string_view to_string(CircuitBreaker::State state);

}  // namespace w5::net
