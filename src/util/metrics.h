// Metrics: thread-safe counters, gauges, and fixed-bucket histograms.
//
// The hot path is lock-free — every update is one relaxed atomic RMW on a
// metric the caller resolved once (the registry hands out stable
// references; resolution takes the registry mutex, updates never do).
// Rendering (/metrics) walks the registry under its mutex and reads the
// atomics; values observed mid-scrape are torn only across metrics, never
// within one, which is the standard Prometheus contract.
//
// The telemetry invariant (DESIGN.md §11): metric names carry routes,
// label/tag names, shard indices, and codes — never user data bytes.
// Whoever registers a metric owns that promise; the observability leak
// test greps every telemetry channel to keep it honest.
//
// Building with -DW5_NO_TELEMETRY=ON compiles every update out (the
// registry still renders, serving zeros) so E13 can price the
// instrumentation against a true no-op baseline.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/json.h"
#include "util/thread_annotations.h"
#include "util/lock_ranks.h"

namespace w5::util {

#if defined(W5_NO_TELEMETRY)
inline constexpr bool kTelemetryEnabled = false;
#else
inline constexpr bool kTelemetryEnabled = true;
#endif

// For components that keep their own raw atomic counters (the store's
// shards and query planner) rather than depending on the registry:
// increments compile out together with the rest of the telemetry plane.
inline void telemetry_count(std::atomic<std::uint64_t>& counter,
                            std::uint64_t n = 1) noexcept {
#ifndef W5_NO_TELEMETRY
  counter.fetch_add(n, std::memory_order_relaxed);
#else
  (void)counter;
  (void)n;
#endif
}

class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept { telemetry_count(value_, n); }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void set(std::int64_t v) noexcept {
#ifndef W5_NO_TELEMETRY
    value_.store(v, std::memory_order_relaxed);
#else
    (void)v;
#endif
  }
  void add(std::int64_t delta) noexcept {
#ifndef W5_NO_TELEMETRY
    value_.fetch_add(delta, std::memory_order_relaxed);
#else
    (void)delta;
#endif
  }
  std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

// Fixed-bucket histogram: bounds are inclusive upper edges ("le"), plus an
// implicit +Inf bucket. Percentiles are derived from the buckets by linear
// interpolation, so p50/p90/p99 cost one snapshot walk and no per-sample
// storage.
class Histogram {
 public:
  // A bucket's most recent traced observation (DESIGN.md §16): `ref` is a
  // trace id — names/ids only, never user data bytes — so a p99 bucket
  // points at a concrete slow request resolvable at /trace/:id.
  struct Exemplar {
    std::string ref;
    std::int64_t value = 0;
  };

  explicit Histogram(std::vector<std::int64_t> bounds = default_latency_bounds());

  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void observe(std::int64_t value) noexcept;

  // observe() plus exemplar capture: remembers `trace_ref` against the
  // bucket the value lands in. Best-effort — the exemplar store is a
  // try_lock so a contended update drops the exemplar, never blocks the
  // hot path; the observation itself always counts.
  void observe_with_exemplar(std::int64_t value,
                             std::string_view trace_ref) noexcept;

  // Per-bucket exemplars, parallel to bucket_counts(); empty ref = none.
  std::vector<Exemplar> exemplars() const;

  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  std::int64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }

  // p in [0, 100]. Interpolates within the winning bucket; values landing
  // in the +Inf bucket report the largest finite bound. Returns 0 when
  // empty.
  double percentile(double p) const;

  const std::vector<std::int64_t>& bounds() const noexcept { return bounds_; }
  // Per-bucket (non-cumulative) counts; size bounds().size() + 1, last is
  // the +Inf overflow bucket.
  std::vector<std::uint64_t> bucket_counts() const;

  // Microsecond latency edges spanning 25 µs .. 1 s.
  static std::vector<std::int64_t> default_latency_bounds();

 private:
  std::vector<std::int64_t> bounds_;
  std::vector<std::atomic<std::uint64_t>> buckets_;  // bounds_.size() + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::int64_t> sum_{0};
  // Exemplar slots, one per bucket. A leaf try_lock off the hot path:
  // observe() never touches it; observe_with_exemplar() skips the write
  // when contended.
  mutable Mutex exemplar_mutex_{lockrank::kMetricsExemplar,
                                "Histogram::exemplar_mutex_"};
  std::vector<Exemplar> exemplars_ W5_GUARDED_BY(exemplar_mutex_);
};

// Escapes a metric name's {label="value"} block for the Prometheus text
// exposition: backslash, double quote, and newline inside label values
// become \\, \", \n. Names without a label block pass through untouched.
// Exposed for tests; to_prometheus() applies it to every emitted name.
std::string prometheus_safe_name(const std::string& name);

// Named metric registry, one per Provider. Names follow Prometheus
// conventions and may embed labels ('w5_requests_total{route="/stats"}');
// the renderer groups families by the name before '{'.
//
// Lock order: the registry mutex is a leaf — held only across the name
// map, never while calling into any other component. Metric references
// stay valid for the registry's lifetime (values are heap-allocated and
// never erased), so callers resolve once and update lock-free thereafter.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  // Bounds are fixed at first registration; later calls with the same
  // name return the existing histogram regardless of `bounds`.
  Histogram& histogram(const std::string& name,
                       std::vector<std::int64_t> bounds = {});

  // Prometheus text exposition format (0.0.4).
  std::string to_prometheus() const;
  // {"counters": {...}, "gauges": {...}, "histograms": {name: {count,
  //  sum, p50, p90, p99, buckets: [{le, count}...]}}}
  Json to_json() const;

 private:
  mutable Mutex mutex_{lockrank::kMetricsRegistry, "MetricsRegistry::mutex_"};
  std::map<std::string, std::unique_ptr<Counter>> counters_ W5_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ W5_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      W5_GUARDED_BY(mutex_);
};

}  // namespace w5::util
