#include "net/circuit_breaker.h"

namespace w5::net {

void CircuitBreaker::refresh_locked(util::Micros now) {
  if (state_ == State::kOpen && now - opened_at_ >= config_.open_cooldown) {
    state_ = State::kHalfOpen;
    probes_in_flight_ = 0;
  }
}

bool CircuitBreaker::allow() {
  const util::MutexLock lock(mutex_);
  refresh_locked(clock_.now());
  switch (state_) {
    case State::kClosed:
      return true;
    case State::kHalfOpen:
      if (probes_in_flight_ < config_.half_open_probes) {
        ++probes_in_flight_;
        return true;
      }
      ++rejected_;
      return false;
    case State::kOpen:
      ++rejected_;
      return false;
  }
  return false;
}

void CircuitBreaker::record_success() {
  const util::MutexLock lock(mutex_);
  state_ = State::kClosed;
  failures_ = 0;
  probes_in_flight_ = 0;
}

void CircuitBreaker::record_failure() {
  const util::MutexLock lock(mutex_);
  if (state_ == State::kHalfOpen) {
    // The probe failed: straight back to open, cooldown restarts.
    state_ = State::kOpen;
    opened_at_ = clock_.now();
    probes_in_flight_ = 0;
    return;
  }
  if (state_ == State::kClosed &&
      ++failures_ >= config_.failure_threshold) {
    state_ = State::kOpen;
    opened_at_ = clock_.now();
  }
}

CircuitBreaker::State CircuitBreaker::state() const {
  const util::MutexLock lock(mutex_);
  // const_cast-free: recompute the cooldown transition without mutating.
  if (state_ == State::kOpen &&
      clock_.now() - opened_at_ >= config_.open_cooldown)
    return State::kHalfOpen;
  return state_;
}

int CircuitBreaker::consecutive_failures() const {
  const util::MutexLock lock(mutex_);
  return failures_;
}

std::uint64_t CircuitBreaker::rejected_total() const {
  const util::MutexLock lock(mutex_);
  return rejected_;
}

std::string_view to_string(CircuitBreaker::State state) {
  switch (state) {
    case CircuitBreaker::State::kClosed:
      return "closed";
    case CircuitBreaker::State::kHalfOpen:
      return "half_open";
    case CircuitBreaker::State::kOpen:
      return "open";
  }
  return "unknown";
}

}  // namespace w5::net
