// w5_perfbench: one workload, one seed, one run.
//
//   w5_perfbench --workload tiny_reads --seed 1 --seconds 10 --trace 0
//                [--scratch .bench_build/perfbench-scratch]
//
// Sets the provider(s) up several times (setup_s is the median), warms up
// past the audit log's halving cap, the trace ring and (note_writes) the
// WAL checkpoint cadence, then runs a closed-loop TCP phase against
// Provider::serve and an in-process phase through Provider::handle on the
// same schedule. Every response is checked. The last stdout line is one
// JSON object: {"correct", "attempted", "failed", "metrics"}; with
// --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ledger. A run whose validity guards trip reports no numbers
// and exits 1.
#include <pthread.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "dataset.h"
#include "drive.h"
#include "fixture.h"
#include "ledger.h"
#include "net/tcp.h"

namespace perfbench {
namespace {

constexpr int kSetups = 5;
constexpr double kTcpShare = 0.5;          // of --seconds; the rest in-process
constexpr double kTcpWarmSeconds = 1.0;
constexpr double kWindowSeconds = 0.06;  // one calibrated window, slices included
constexpr double kSetupCalibrationSeconds = 0.02;
constexpr int kInprocCpu = 0;  // the in-process phase's one thread
// Requests in the exact-count pass and in each ledger pass; fed_search
// requests cost ~100x more than the others, so it replays fewer.
constexpr std::size_t kCountPassRequests = 2048, kFedCountPassRequests = 256;
constexpr std::size_t kLedgerSample = 256, kFedLedgerSample = 64;
constexpr double kMaxGeneratorBusy = 0.9;
constexpr double kDenyShareTolerance = 0.005;
constexpr double kRequiredCheckpoints = 3;

struct Args {
  Workload workload = Workload::kTinyReads;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string scratch = ".bench_build/perfbench-scratch";
};

struct Value {
  std::string name;
  double value = 0;
  std::size_t samples = 0;
  // Printed in the table either way; only gated values go into the JSON
  // result that bounds are checked against.
  bool gated = true;
};

const char* unit_of(const std::string& name) {
  const auto ends = [&name](const char* suffix) {
    const std::size_t n = std::strlen(suffix);
    return name.size() >= n && name.compare(name.size() - n, n, suffix) == 0;
  };
  if (ends("_ns_per_kib")) return "ns/KiB";
  if (ends("_ns")) return "ns";
  if (ends("_us") || ends("_us_per_req")) return "us";
  if (ends("_ms")) return "ms";
  if (ends("_s")) return "s";
  if (ends("_rps")) return "1/s";
  if (ends("_mib")) return "MiB";
  if (ends("bytes_per_write")) return "B";
  if (ends("_per_req") || ends("_per_query")) return "count";
  return "ratio";
}

// Mean of the middle half of the values: per-window rates mix steady
// windows with a few that a host stall or a WAL checkpoint landed in.
double interquartile_mean(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t lo = values.size() / 4;
  const std::size_t hi = std::max(lo + 1, values.size() - values.size() / 4);
  double sum = 0;
  for (std::size_t i = lo; i < hi; ++i) sum += values[i];
  return sum / static_cast<double>(hi - lo);
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      const auto workload = parse_workload(value);
      if (!workload) return false;
      args.workload = *workload;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--scratch") {
      args.scratch = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && args.seconds > 0;
}

int cpu_count() {
  return static_cast<int>(std::max(2u, std::thread::hardware_concurrency()));
}

// The TCP phase's CPU layout: the load generator alone on the last CPU,
// and the serving side on CPUs 0..k-1, where k is how many threads
// Provider::serve runs at once: its reactor loops (the provider's
// io_threads) plus, for fed_search, one hop thread per peer, capped at
// the CPUs the generator leaves. Those threads inherit the set, so a
// provider that runs more loops gets more CPUs here; a single loop is
// kept on one CPU, where the calibration slice measures the CPU it ran on.
int generator_cpu() { return cpu_count() - 1; }
std::vector<int> serving_cpus(Fixture& fixture) {
  const std::size_t threads = std::max<std::size_t>(1, fixture.home().config().io_threads) +
                              (fixture.providers().size() - 1);
  std::vector<int> cpus;
  for (int c = 0; c < generator_cpu() && static_cast<std::size_t>(c) < threads; ++c)
    cpus.push_back(c);
  return cpus;
}

// Confines the calling thread to CPUs first..last for its lifetime;
// threads it starts meanwhile inherit them.
class PinCaller {
 public:
  explicit PinCaller(int first, int last = -1) {
    pthread_getaffinity_np(pthread_self(), sizeof(saved_), &saved_);
    cpu_set_t cpus;
    CPU_ZERO(&cpus);
    for (int c = first; c <= std::max(first, last); ++c) CPU_SET(c, &cpus);
    pthread_setaffinity_np(pthread_self(), sizeof(cpus), &cpus);
  }
  ~PinCaller() { pthread_setaffinity_np(pthread_self(), sizeof(saved_), &saved_); }
  PinCaller(const PinCaller&) = delete;
  PinCaller& operator=(const PinCaller&) = delete;

 private:
  cpu_set_t saved_{};
};

// Serves the home provider on a loopback port from a thread confined to
// the serving CPUs, which the loops and hop threads serve() starts
// inherit; the caller, the load generator, is confined to its own CPU
// meanwhile. Closing the listener ends serve(); the destructor joins.
class Server {
 public:
  Server(w5::platform::Provider& provider, const std::vector<int>& cpus)
      : generator_pin_(generator_cpu()) {
    if (!listener_.listen(0, 128).ok())
      throw std::runtime_error("cannot listen on loopback");
    thread_ = std::thread([this, &provider, first = cpus.front(), last = cpus.back()] {
      const PinCaller pin(first, last);
      provider.serve(listener_);
    });
  }
  ~Server() {
    listener_.close();
    thread_.join();
  }
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  std::uint16_t port() const { return listener_.port(); }

 private:
  const PinCaller generator_pin_;
  w5::net::TcpListener listener_;
  std::thread thread_;
};

// Fills the audit log past its halving cap with cheap owner reads of each
// user's warm note; returns false if the cap was not crossed.
bool fill_audit_log(Fixture& fixture, const Dataset& data, Checker& checker) {
  w5::platform::Provider& home = fixture.home();
  for (std::size_t i = 0; i < 400'000 && home.audit().dropped() == 0; ++i) {
    const std::size_t conn = i % data.connections;
    const GenRecord& note = data.records[data.warm_records[conn]];
    const auto response = home.http(w5::net::Method::kGet, "/data/notes/" + note.id,
                                    "", fixture.sessions()[conn]);
    if (response.status != 200 || response.body != note.json)
      checker.record_failure("warm note read");
  }
  return home.audit().dropped() > 0;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Value>& values) {
  std::printf("%-34s %18s %-7s %s\n", "# metric", "value", "unit", "samples");
  for (const Value& v : values) {
    std::printf("# %-32s %18.6f %-7s %zu%s\n", v.name.c_str(), v.value,
                unit_of(v.name), v.samples, v.gated ? "" : "  (not gated)");
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool first = true;
  for (const Value& v : values) {
    if (!correct || !v.gated) continue;
    char number[64];
    std::snprintf(number, sizeof(number), "%.17g", v.value);
    json += (first ? "\"" : ", \"") + v.name + "\": {\"value\": " + number +
            ", \"unit\": \"" + unit_of(v.name) + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int run(const Args& args) {
  namespace fs = std::filesystem;
  const Dataset data = generate(args.workload, args.seed);
  fs::remove_all(args.scratch);
  // rss_mib is the provider's share: what the process holds beyond this
  // (the generated dataset) and the request templates built below.
  const double rss_baseline = resident_mib();

  // ---- Set-up, kSetups times: the median is setup_s, the last one serves.
  std::vector<double> setup_seconds;
  std::unique_ptr<Fixture> fixture;
  // Threads the provider starts at set-up (the WAL flusher and compactor)
  // inherit the CPUs between the in-process phase's and the generator's,
  // so they never queue behind the in-process phase or the generator.
  const PinCaller background(kInprocCpu + 1, generator_cpu() - 1);
  for (int k = 0; k < kSetups; ++k) {
    fixture.reset();
    const fs::path dir = fs::path(args.scratch) / ("setup-" + std::to_string(k));
    fs::create_directories(dir);
    const double speed_before = machine_speed(kSetupCalibrationSeconds);
    const std::int64_t t = now_ns();
    fixture = std::make_unique<Fixture>(data, dir.string());
    const double elapsed = static_cast<double>(now_ns() - t) / 1e9;
    const double speed = (speed_before + machine_speed(kSetupCalibrationSeconds)) / 2;
    setup_seconds.push_back(elapsed * speed);
  }
  if (const std::string bad = fixture->verify(); !bad.empty())
    throw std::runtime_error("loaded dataset does not read back: " + bad);
  w5::platform::Provider& home = fixture->home();
  const double rss_before_requests = resident_mib();
  const std::vector<Request> requests = build_requests(data, *fixture);
  const double rss_requests = resident_mib() - rss_before_requests;
  Checker checker(data);
  const bool fed = data.workload == Workload::kFedSearch;
  std::vector<Value> layer_values;
  if (args.trace) {
    const std::size_t count = fed ? kFedCountPassRequests : kCountPassRequests;
    for (const auto& [name, value] : count_pass(*fixture, data, requests, checker, count))
      layer_values.push_back({name, value, count});
  }

  // ---- Warm-up past every steady-state boundary.
  std::vector<std::string> invalid;
  Cursor cursor(data);
  const double checkpoints0 =
      metric_value(scrape_metrics(home), "w5_wal_checkpoints_total");
  const std::int64_t warm_start = now_ns();
  double checkpoints = 0;
  for (std::size_t replayed = 0;; replayed += 512) {
    const double elapsed = static_cast<double>(now_ns() - warm_start) / 1e9;
    if (data.workload == Workload::kNoteWrites)
      checkpoints = metric_value(scrape_metrics(home), "w5_wal_checkpoints_total") - checkpoints0;
    const bool enough = elapsed >= 0.5 && (replayed >= 2048 || elapsed >= 2) &&
                        (data.workload != Workload::kNoteWrites ||
                         checkpoints >= kRequiredCheckpoints);
    if (enough || elapsed > 60) break;
    replay(home, requests, cursor, checker, data.connections, 512);
  }
  if (data.workload == Workload::kNoteWrites && checkpoints < kRequiredCheckpoints)
    invalid.push_back("warm-up completed too few WAL checkpoints");
  if (!fill_audit_log(*fixture, data, checker))
    invalid.push_back("warm-up did not cross the audit log cap");
  if (home.traces().recorded() <= w5::platform::TraceBuffer::kDefaultCapacity)
    invalid.push_back("warm-up did not wrap the trace ring");

  // ---- TCP phase: closed loop against Provider::serve.
  const double tcp_seconds = args.seconds * kTcpShare;
  const double inproc_seconds = args.seconds - tcp_seconds;
  const int windows = std::max(4, static_cast<int>(std::lround(tcp_seconds / kWindowSeconds)));
  PhaseResult tcp;
  w5::util::Json m0, m1;
  {
    const std::vector<int> cpus = serving_cpus(*fixture);
    Server server(home, cpus);
    TcpLoad load(server.port(), data.connections);
    load.run(requests, cursor, checker, kTcpWarmSeconds, 0, cpus);
    m0 = scrape_metrics(home);
    tcp = load.run(requests, cursor, checker, tcp_seconds, windows, cpus);
    m1 = scrape_metrics(home);
  }

  // ---- In-process phase: the same schedule through Provider::handle on
  // one CPU.
  PhaseResult inproc;
  {
    const PinCaller pin(kInprocCpu);
    inproc = run_inproc(home, requests, cursor, checker, data.connections,
                        inproc_seconds, windows, kInprocCpu);
  }
  const w5::util::Json m2 = scrape_metrics(home);
  const double rss_mib = std::max(tcp.peak_rss_mib, inproc.peak_rss_mib) -
                         rss_baseline - rss_requests;

  // ---- Validity guards.
  const auto delta = [&](const w5::util::Json& a, const w5::util::Json& b,
                         const char* name) {
    return metric_value(b, name) - metric_value(a, name);
  };
  const double allow = delta(m0, m2, "w5_declassifier_decisions_total{verdict=\"allow\"}");
  const double deny = delta(m0, m2, "w5_declassifier_decisions_total{verdict=\"deny\"}");
  const double deny_share = allow + deny > 0 ? deny / (allow + deny) : 0;
  if (std::fabs(deny_share - data.deny_share) > kDenyShareTolerance)
    invalid.push_back("deny share " + std::to_string(deny_share) + " is off its target");
  const double generator_busy = tcp.generator_cpu_s / tcp.seconds;
  if (generator_busy > kMaxGeneratorBusy)
    invalid.push_back("the load generator was the bottleneck");
  const double fanouts = delta(m0, m2, "w5_fed_query_fanouts_total");
  const double partial_share =
      fanouts > 0 ? delta(m0, m2, "w5_fed_query_partial_total") / fanouts : 0;
  if (partial_share > 0 || checker.partial_pages() > 0)
    invalid.push_back("partial /fed/search pages");
  std::vector<double> slice_busy = tcp.slice_program_busy;
  slice_busy.insert(slice_busy.end(), inproc.slice_program_busy.begin(),
                    inproc.slice_program_busy.end());
  const auto disturbed = std::count_if(slice_busy.begin(), slice_busy.end(), [](double busy) {
    return busy > kMaxProgramBusyDuringProbe;
  });
  if (static_cast<double>(disturbed) > kMaxDisturbedShare * static_cast<double>(slice_busy.size()))
    invalid.push_back(std::to_string(disturbed) + " of " + std::to_string(slice_busy.size()) +
                      " calibration slices ran while the program was busy");
  for (const std::string& reason : invalid)
    std::fprintf(stderr, "perfbench: invalid run: %s\n", reason.c_str());

  std::vector<Value> values;
  if (!args.trace) {
    values = {
        {"tcp_rps", interquartile_mean(tcp.window_rps), tcp.window_rps.size()},
        {"tcp_p50_us", interquartile_mean(tcp.window_p50_us), tcp.latencies},
        {"tcp_p99_us", median(tcp.block_p99_us), tcp.latencies, false},
        {"inproc_rps", interquartile_mean(inproc.window_rps), inproc.window_rps.size()},
        {"server_cpu_us_per_req", interquartile_mean(tcp.window_server_cpu_us),
         tcp.window_server_cpu_us.size()},
        {"rss_mib", rss_mib, slice_busy.size()},
        {"setup_s", median(setup_seconds), setup_seconds.size()},
    };
  } else {
    const auto stage = [&](const char* name) {
      const std::string histogram = std::string("w5_reactor_stage_micros{stage=\"") + name + "\"}";
      return bucket_percentile(m1, histogram, bucket_delta(m0, m1, histogram), 50);
    };
    const double hits = delta(m0, m2, "w5_flow_cache_hits");
    const double misses = delta(m0, m2, "w5_flow_cache_misses");
    const auto checkpoint = [&](const char* field) {
      const auto& h = m2.at("histograms").at("w5_wal_checkpoint_micros");
      const auto& h0 = m0.at("histograms").at("w5_wal_checkpoint_micros");
      return h.at(field).as_number() - h0.at(field).as_number();
    };
    const double checkpoint_count = checkpoint("count");
    const std::string fanout = "w5_fed_query_fanout_micros";
    const std::vector<Value> scraped = {
        {"net.stage_parse_us", stage("parse"), tcp.completed},
        {"net.stage_handler_us", stage("handler"), tcp.completed},
        {"net.stage_write_us", stage("write"), tcp.completed},
        {"net.loop_busy_share",
         tcp.server_cpu_s / tcp.seconds / static_cast<double>(home.config().io_threads), 1},
        {"net.generator_busy_share", generator_busy, 1},
        {"core.declassify_deny_share", deny_share, static_cast<std::size_t>(allow + deny)},
        {"difc.flow_cache_hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0,
         static_cast<std::size_t>(hits + misses)},
        {"store.checkpoint_ms",
         checkpoint_count > 0 ? checkpoint("sum") / checkpoint_count / 1000.0 : 0,
         static_cast<std::size_t>(checkpoint_count)},
        {"fed.fanout_us",
         fanouts > 0 ? bucket_percentile(m2, fanout, bucket_delta(m0, m2, fanout), 50) : 0,
         static_cast<std::size_t>(fanouts)},
        {"fed.partial_share", partial_share, static_cast<std::size_t>(fanouts)},
        {"calibration.program_busy_share", median(slice_busy), slice_busy.size()},
    };
    values = scraped;
    values.insert(values.end(), layer_values.begin(), layer_values.end());
    const std::size_t sample = fed ? kFedLedgerSample : kLedgerSample;
    for (const auto& [name, value] :
         measure_layers(*fixture, data, requests, checker, sample))
      values.push_back({name, value, sample});
  }

  fixture.reset();
  fs::remove_all(args.scratch);
  const bool correct = invalid.empty() && checker.failed() == 0;
  print_result(correct, checker.checked(), checker.failed(), values);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: w5_perfbench --workload tiny_reads|photo_view_large|"
                 "note_writes|fed_search --seed N --seconds S --trace 0|1 "
                 "[--scratch DIR]\n");
    return 2;
  }
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
