// Load generation and output checks: a closed loop over loopback TCP
// against Provider::serve, and the same schedule replayed in-process
// through Provider::handle.
#pragma once

#include <sched.h>
#include <time.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "dataset.h"
#include "fixture.h"
#include "net/http.h"
#include "net/http_parser.h"
#include "util/json.h"

namespace perfbench {

// A request template with its wire bytes, its parsed form (what
// Provider::handle takes) and the expected response.
struct Request {
  Op op;
  std::string wire;
  w5::net::HttpRequest parsed;
  int status = 200;
  const std::string* body = nullptr;  // exact expected body; null for kFed
};

// Every Op of the dataset as a Request carrying its user's session.
// Indices match Dataset::ops.
std::vector<Request> build_requests(const Dataset& data, const Fixture& fixture);

// Checks responses against the generated expectation. Allowed reads and
// read-backs must match the record bytes exactly; denials must be the
// perimeter's 403 body byte for byte; writes their 201/200 body. A
// /fed/search page must not be partial and must hold the expected number
// of items; the first page seen for a query is validated field by field
// and later pages for it must repeat it byte for byte.
class Checker {
 public:
  explicit Checker(const Dataset& data) : data_(data), fed_pages_(data.queries.size()) {}

  bool check(const Request& request, int status, std::string_view body,
             bool partial);

  // A failed check found outside a response (a count that must be exact).
  void record_failure(const char* why);

  std::uint64_t checked() const { return checked_; }
  std::uint64_t failed() const { return failed_; }
  std::uint64_t partial_pages() const { return partial_; }

 private:
  bool check_fed_page(const Request& request, std::string_view body);
  bool fail(const Request& request, int status, std::string_view body,
            const char* why);

  const Dataset& data_;
  std::vector<std::string> fed_pages_;
  std::uint64_t checked_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t partial_ = 0;
};

// Machine-speed calibration. The shared 4-vCPU host this benchmark was
// built on runs the same single-threaded code 15-25% faster or slower
// from one few-second stretch to the next (a fixed std::map/std::string
// loop spreads that much), far more than the changes it must detect. So
// every timed window is bracketed by short slices of a fixed reference
// kernel that uses no W5 code, and each window's times are scaled to
// what they would be at kReferenceUnitsPerSecond: rates divide by the
// speed, durations and CPU times multiply by it.
inline constexpr double kReferenceUnitsPerSecond = 100'000;
inline constexpr double kCalibrationShare = 0.2;  // of each window's slot

// Runs the reference kernel on the calling thread for `seconds`; returns
// its rate over kReferenceUnitsPerSecond (1.0 = reference speed).
double machine_speed(double seconds);

// One calibration slice, taken while the load is paused: the reference
// kernel on every CPU of `cpus` at once, each on a thread of its own (so
// it shares no malloc arena with the program), while the caller waits.
// `program_busy` is what the program used of one CPU meanwhile: process
// CPU minus the probes' own, over the slice's wall time. A program that
// keeps running during the slice competes with the probe and makes the
// machine look slower than it is, so the run counts such slices.
struct Calibration {
  double speed = 1.0;         // mean over the CPUs
  double program_busy = 0.0;  // share of one CPU
};
Calibration calibrate(const std::vector<int>& cpus, double seconds);
// A slice is disturbed when the program used more than this of one CPU
// during it; a run with more than kMaxDisturbedShare of its slices
// disturbed is invalid.
inline constexpr double kMaxProgramBusyDuringProbe = 0.05;
inline constexpr double kMaxDisturbedShare = 0.25;

// tcp_p99_us is the median over blocks of kP99Windows consecutive
// windows of each block's p99 (calibrated latencies): a host stall that
// hits one block moves that block's p99, not the run's. Blocks go by
// time, not by request count, so fed_search's slow requests still give
// it twenty blocks of ~130 requests in a 10 s phase.
inline constexpr int kP99Windows = 8;

// One timed phase, as calibrated windows. Rates and per-request CPU are
// kept per window so the reported value can be summarised over windows.
struct PhaseResult {
  std::uint64_t attempted = 0;  // requests issued (in and out of windows)
  std::uint64_t completed = 0;  // responses inside the timed windows
  double seconds = 0;
  std::vector<double> window_rps;
  std::vector<double> window_server_cpu_us;  // per request (TCP only)
  std::vector<double> window_p50_us;  // median latency (TCP only)
  std::vector<double> block_p99_us;   // p99 per kP99Windows windows (TCP only)
  std::uint64_t latencies = 0;        // requests timed (TCP only)
  double generator_cpu_s = 0;
  double server_cpu_s = 0;  // process CPU minus the generator's (TCP only)
  std::vector<double> slice_program_busy;  // per calibration slice
  double peak_rss_mib = 0;  // resident size sampled after every window
};

// Per-connection positions in the cyclic schedule. They persist across
// phases, so a read-back always follows its write on the same connection.
struct Cursor {
  explicit Cursor(const Dataset& data) : data_(data), pos_(data.connections, 0) {}
  std::uint32_t next(std::size_t conn) {
    const auto& cycle = data_.schedule[conn];
    return cycle[pos_[conn]++ % cycle.size()];
  }

 private:
  const Dataset& data_;
  std::vector<std::size_t> pos_;
};

// Closed-loop load from one generator thread (the caller's): one
// keep-alive connection per connected user, each waiting for its reply
// before sending the next request.
class TcpLoad {
 public:
  TcpLoad(std::uint16_t port, std::size_t connections);
  ~TcpLoad();
  TcpLoad(const TcpLoad&) = delete;
  TcpLoad& operator=(const TcpLoad&) = delete;

  // Runs `seconds` of load as `windows` calibrated windows, each a burst
  // of load followed by a calibration slice on `serving_cpus` with the
  // load paused; windows == 0 runs untimed (warm-up).
  PhaseResult run(const std::vector<Request>& requests, Cursor& cursor,
                  Checker& checker, double seconds, int windows,
                  const std::vector<int>& serving_cpus);

 private:
  // Keeps every connection busy until `until`, then drains; returns the
  // responses received (latencies appended when `latency_us` is set).
  std::uint64_t burst(const std::vector<Request>& requests, Cursor& cursor,
                      Checker& checker, std::int64_t until,
                      std::vector<float>* latency_us, std::uint64_t& attempted);

  struct Conn {
    int fd = -1;
    w5::net::ResponseParser parser;
    std::uint32_t op = 0;
    std::int64_t sent_ns = 0;
    bool busy = false;
  };
  std::vector<Conn> conns_;
};

// The same schedule, single-threaded through Provider::handle on the
// caller's thread, round-robin over the connections' cycles; each window
// is calibrated on `cpu`, the CPU the caller is confined to.
PhaseResult run_inproc(w5::platform::Provider& provider,
                       const std::vector<Request>& requests, Cursor& cursor,
                       Checker& checker, std::size_t connections,
                       double seconds, int windows, int cpu);

// Replays exactly `count` requests in-process (no timing); returns the
// number that failed their check.
std::uint64_t replay(w5::platform::Provider& provider,
                     const std::vector<Request>& requests, Cursor& cursor,
                     Checker& checker, std::size_t connections,
                     std::size_t count);

std::int64_t now_ns();
double cpu_seconds(clockid_t clock);
double median(std::vector<double> values);
// This process's resident set size now, in MiB.
double resident_mib();

// /metrics?format=json, scraped in-process.
w5::util::Json scrape_metrics(w5::platform::Provider& provider);
// A counter or gauge by full name (0 when absent).
double metric_value(const w5::util::Json& scrape, const std::string& name);
// Per-bucket counts of a histogram between two scrapes, and a percentile
// interpolated over them as util::Histogram does.
std::vector<double> bucket_delta(const w5::util::Json& before,
                                 const w5::util::Json& after,
                                 const std::string& name);
double bucket_percentile(const w5::util::Json& scrape, const std::string& name,
                         const std::vector<double>& counts, double p);

}  // namespace perfbench
