#include "drive.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <stdexcept>
#include <thread>


namespace perfbench {

// Written by the reference kernel; external linkage keeps the compiler
// from discarding the kernel's work.
std::uint64_t calibration_sink = 0;

namespace {

// The perimeter's generic denial and the fixed write acknowledgements.
const std::string kDenyBody = R"({"error":"export blocked by security perimeter"})";
const std::string kNoteWriteBody = R"({"ok":true})";
const std::string kCaptionBody = "captioned\n";

std::string post_wire(const std::string& target, const std::string& session,
                      const std::string& body, const char* content_type) {
  return "POST " + target + " HTTP/1.1\r\nHost: w5.bench\r\nCookie: w5session=" +
         session + "\r\nContent-Type: " + content_type +
         "\r\nContent-Length: " + std::to_string(body.size()) + "\r\n\r\n" +
         body;
}

bool has_term(const std::string& text, const std::string& term) {
  return (" " + text + " ").find(" " + term + " ") != std::string::npos;
}

}  // namespace

std::int64_t now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double cpu_seconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 ? values[mid] : (values[mid - 1] + values[mid]) / 2;
}

double resident_mib() {
  std::ifstream statm("/proc/self/statm");
  double size_pages = 0, resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return resident_pages * static_cast<double>(::sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

// Wire bytes of a GET of `target` as `session`.
static std::string get_wire(const std::string& target, const std::string& session) {
  return "GET " + target + " HTTP/1.1\r\nHost: w5.bench\r\nCookie: w5session=" +
         session + "\r\n\r\n";
}

std::vector<Request> build_requests(const Dataset& data, const Fixture& fixture) {
  std::vector<Request> out;
  out.reserve(data.ops.size());
  for (const Op& op : data.ops) {
    Request r;
    r.op = op;
    const std::string& session = fixture.sessions()[op.conn];
    const GenRecord& record = data.records[op.record];
    switch (op.kind) {
      case Kind::kRead:
      case Kind::kDenied:
        r.wire = get_wire(op.via_app ? "/dev/photoco/photos/view?id=" + record.id
                                     : "/data/" + record.collection + "/" + record.id,
                          session);
        r.status = op.kind == Kind::kRead ? 200 : 403;
        r.body = op.kind == Kind::kRead ? &record.json : &kDenyBody;
        break;
      case Kind::kNoteWrite:
        r.wire = post_wire("/data/notes/" + record.id, session,
                           data.variants[op.record][op.variant],
                           "application/json");
        r.status = 201;
        r.body = &kNoteWriteBody;
        break;
      case Kind::kCaption:
        r.wire = post_wire("/dev/photoco/photos/caption?id=" + record.id,
                           session, data.captions[op.record][op.variant],
                           "text/plain");
        r.status = 200;
        r.body = &kCaptionBody;
        break;
      case Kind::kReadBack:
        r.wire = get_wire("/data/" + record.collection + "/" + record.id, session);
        r.status = 200;
        r.body = &data.variants[op.record][op.variant];
        break;
      case Kind::kFed: {
        const FedQuery& query = data.queries[op.query];
        r.wire = get_wire("/fed/search?collection=photos&q=" + query.terms[0] +
                              "+" + query.terms[1] + "&facets=" + kFedFacets +
                              "&limit=" + std::to_string(kFedLimit),
                          session);
        r.status = 200;
        break;
      }
    }
    w5::net::RequestParser parser;
    parser.feed(r.wire);
    if (!parser.complete())
      throw std::runtime_error("request template does not parse: " + r.wire);
    r.parsed = parser.take();
    out.push_back(std::move(r));
  }
  return out;
}

bool Checker::fail(const Request& request, int status, std::string_view body,
                   const char* why) {
  if (++failed_ <= 5) {
    std::fprintf(stderr, "check failed (%s): kind %d record %zu status %d, %zu body bytes\n",
                 why, static_cast<int>(request.op.kind), request.op.record, status,
                 body.size());
  }
  return false;
}

void Checker::record_failure(const char* why) {
  ++checked_;
  if (++failed_ <= 5) std::fprintf(stderr, "check failed: %s\n", why);
}

bool Checker::check(const Request& request, int status, std::string_view body,
                    bool partial) {
  ++checked_;
  if (request.op.kind == Kind::kFed) {
    if (partial) {
      ++partial_;
      return fail(request, status, body, "partial page");
    }
    if (status != request.status) return fail(request, status, body, "status");
    return check_fed_page(request, body);
  }
  if (status != request.status) return fail(request, status, body, "status");
  if (body != *request.body) return fail(request, status, body, "body");
  return true;
}

bool Checker::check_fed_page(const Request& request, std::string_view body) {
  std::string& reference = fed_pages_[request.op.query];
  if (!reference.empty()) {
    return body == reference || fail(request, 200, body, "page changed");
  }
  const FedQuery& query = data_.queries[request.op.query];
  const auto page = w5::util::Json::parse(body);
  if (!page.ok()) return fail(request, 200, body, "page is not JSON");
  const w5::util::Json& json = page.value();
  if (json.at("partial").as_bool(true))
    return fail(request, 200, body, "page marked partial");
  const auto& peers = json.at("peers").as_array();
  if (peers.size() + 1 != data_.providers)
    return fail(request, 200, body, "peer count");
  for (const auto& peer : peers) {
    if (peer.at("status").as_string() != "ok")
      return fail(request, 200, body, "peer not ok");
  }
  const auto& items = json.at("items").as_array();
  if (items.size() != query.expected_items)
    return fail(request, 200, body, "item count");
  for (const auto& item : items) {
    const std::string& caption = item.at("data").at("caption").as_string();
    if (item.at("owner").as_string() != data_.users[0] ||
        !has_term(caption, query.terms[0]) || !has_term(caption, query.terms[1]))
      return fail(request, 200, body, "item does not match");
  }
  reference.assign(body);
  return true;
}

TcpLoad::TcpLoad(std::uint16_t port, std::size_t connections)
    : conns_(connections) {
  for (Conn& conn : conns_) {
    conn.fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (conn.fd < 0) throw std::runtime_error("socket failed");
    const int one = 1;
    ::setsockopt(conn.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(conn.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0)
      throw std::runtime_error("connect to the provider failed");
  }
}

TcpLoad::~TcpLoad() {
  for (Conn& conn : conns_) {
    if (conn.fd >= 0) ::close(conn.fd);
  }
}

std::uint64_t TcpLoad::burst(const std::vector<Request>& requests,
                            Cursor& cursor, Checker& checker,
                            std::int64_t until, std::vector<float>* latency_us,
                            std::uint64_t& attempted) {
  const auto send = [&](std::size_t index) {
    Conn& conn = conns_[index];
    conn.op = cursor.next(index);
    const std::string& wire = requests[conn.op].wire;
    conn.sent_ns = now_ns();
    std::size_t sent = 0;
    while (sent < wire.size()) {
      const ssize_t n = ::send(conn.fd, wire.data() + sent, wire.size() - sent,
                               MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("send to the provider failed");
      sent += static_cast<std::size_t>(n);
    }
    conn.busy = true;
    ++attempted;
  };
  for (std::size_t i = 0; i < conns_.size(); ++i) send(i);

  std::vector<pollfd> fds(conns_.size());
  static thread_local std::vector<char> buffer(1 << 18);
  std::size_t busy = conns_.size();
  std::uint64_t completed = 0;
  while (busy > 0) {
    for (std::size_t i = 0; i < conns_.size(); ++i)
      fds[i] = pollfd{conns_[i].fd, static_cast<short>(conns_[i].busy ? POLLIN : 0), 0};
    if (::poll(fds.data(), fds.size(), 5) < 0 && errno != EINTR)
      throw std::runtime_error("poll failed");
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      if (!(fds[i].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      Conn& conn = conns_[i];
      for (;;) {
        const ssize_t n = ::recv(conn.fd, buffer.data(), buffer.size(), MSG_DONTWAIT);
        if (n > 0) {
          const std::string_view chunk(buffer.data(), static_cast<std::size_t>(n));
          if (conn.parser.feed(chunk) != chunk.size() || conn.parser.failed())
            throw std::runtime_error("unparseable bytes from the provider");
          continue;
        }
        if (n < 0 && errno == EINTR) continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        throw std::runtime_error("the provider closed a connection");
      }
      if (!conn.parser.complete()) continue;
      const std::int64_t done = now_ns();
      const w5::net::HttpResponse response = conn.parser.take();
      checker.check(requests[conn.op], response.status, response.body,
                    response.headers.contains("X-W5-Fed-Partial"));
      conn.busy = false;
      --busy;
      ++completed;
      if (latency_us != nullptr)
        latency_us->push_back(static_cast<float>(done - conn.sent_ns) / 1e3f);
      if (done < until) {
        send(i);
        ++busy;
      }
    }
  }
  return completed;
}

PhaseResult TcpLoad::run(const std::vector<Request>& requests, Cursor& cursor,
                         Checker& checker, double seconds, int windows,
                         const std::vector<int>& serving_cpus) {
  PhaseResult result;
  if (windows == 0) {
    burst(requests, cursor, checker, now_ns() + static_cast<std::int64_t>(seconds * 1e9),
          nullptr, result.attempted);
    return result;
  }
  const double slot = seconds / windows;
  double speed_before = calibrate(serving_cpus, slot * kCalibrationShare).speed;
  std::vector<float> latency, block;
  for (int w = 0; w < windows; ++w) {
    latency.clear();
    const double proc0 = cpu_seconds(CLOCK_PROCESS_CPUTIME_ID);
    const double gen0 = cpu_seconds(CLOCK_THREAD_CPUTIME_ID);
    const std::int64_t t0 = now_ns();
    const std::uint64_t n = burst(
        requests, cursor, checker,
        t0 + static_cast<std::int64_t>(slot * (1 - kCalibrationShare) * 1e9),
        &latency, result.attempted);
    const double secs = static_cast<double>(now_ns() - t0) / 1e9;
    const double gen = cpu_seconds(CLOCK_THREAD_CPUTIME_ID) - gen0;
    const double proc = cpu_seconds(CLOCK_PROCESS_CPUTIME_ID) - proc0;
    result.peak_rss_mib = std::max(result.peak_rss_mib, resident_mib());
    const Calibration after = calibrate(serving_cpus, slot * kCalibrationShare);
    result.slice_program_busy.push_back(after.program_busy);
    const double speed = (speed_before + after.speed) / 2;
    speed_before = after.speed;
    result.window_rps.push_back(static_cast<double>(n) / secs / speed);
    result.window_server_cpu_us.push_back((proc - gen) * 1e6 / static_cast<double>(n) * speed);
    for (float& l : latency) l *= static_cast<float>(speed);
    result.latencies += latency.size();
    block.insert(block.end(), latency.begin(), latency.end());
    const auto mid = latency.begin() + static_cast<std::ptrdiff_t>(latency.size() / 2);
    std::nth_element(latency.begin(), mid, latency.end());
    if (!latency.empty()) result.window_p50_us.push_back(*mid);
    if (w % kP99Windows == kP99Windows - 1 && !block.empty()) {
      const auto rank = block.begin() +
                        static_cast<std::ptrdiff_t>((block.size() * 99 + 99) / 100 - 1);
      std::nth_element(block.begin(), rank, block.end());
      result.block_p99_us.push_back(*rank);
      block.clear();
    }
    result.completed += n;
    result.seconds += secs;
    result.generator_cpu_s += gen;
    result.server_cpu_s += proc - gen;
  }
  return result;
}

PhaseResult run_inproc(w5::platform::Provider& provider,
                       const std::vector<Request>& requests, Cursor& cursor,
                       Checker& checker, std::size_t connections,
                       double seconds, int windows, int cpu) {
  PhaseResult result;
  const double slot = seconds / windows;
  const std::vector<int> cpus{cpu};
  double speed_before = calibrate(cpus, slot * kCalibrationShare).speed;
  std::size_t conn = 0;
  for (int w = 0; w < windows; ++w) {
    const std::int64_t t0 = now_ns();
    const std::int64_t until = t0 + static_cast<std::int64_t>(slot * (1 - kCalibrationShare) * 1e9);
    std::uint64_t n = 0;
    for (; now_ns() < until; ++n) {
      const Request& request = requests[cursor.next(conn)];
      conn = (conn + 1) % connections;
      const w5::net::HttpResponse response = provider.handle(request.parsed);
      checker.check(request, response.status, response.body,
                    response.headers.contains("X-W5-Fed-Partial"));
    }
    const double secs = static_cast<double>(now_ns() - t0) / 1e9;
    result.peak_rss_mib = std::max(result.peak_rss_mib, resident_mib());
    const Calibration after = calibrate(cpus, slot * kCalibrationShare);
    result.slice_program_busy.push_back(after.program_busy);
    const double speed = (speed_before + after.speed) / 2;
    speed_before = after.speed;
    result.window_rps.push_back(static_cast<double>(n) / secs / speed);
    result.attempted += n;
    result.completed += n;
    result.seconds += secs;
  }
  return result;
}

Calibration calibrate(const std::vector<int>& cpus, double seconds) {
  std::vector<double> speed(cpus.size()), probe_cpu(cpus.size());
  const double process0 = cpu_seconds(CLOCK_PROCESS_CPUTIME_ID);
  const double caller0 = cpu_seconds(CLOCK_THREAD_CPUTIME_ID);
  const std::int64_t t0 = now_ns();
  std::vector<std::thread> probes;
  for (std::size_t i = 0; i < cpus.size(); ++i) {
    probes.emplace_back([&, i] {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus[i], &one);
      pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
      const double cpu0 = cpu_seconds(CLOCK_THREAD_CPUTIME_ID);
      speed[i] = machine_speed(seconds);
      probe_cpu[i] = cpu_seconds(CLOCK_THREAD_CPUTIME_ID) - cpu0;
    });
  }
  for (std::thread& probe : probes) probe.join();
  const double wall = static_cast<double>(now_ns() - t0) / 1e9;
  double program = cpu_seconds(CLOCK_PROCESS_CPUTIME_ID) - process0 -
                   (cpu_seconds(CLOCK_THREAD_CPUTIME_ID) - caller0);
  Calibration out;
  out.speed = 0;
  for (std::size_t i = 0; i < cpus.size(); ++i) {
    program -= probe_cpu[i];
    out.speed += speed[i] / static_cast<double>(cpus.size());
  }
  out.program_busy = std::max(0.0, program) / wall;
  return out;
}

double machine_speed(double seconds) {
  const std::int64_t start = now_ns();
  const std::int64_t until = start + static_cast<std::int64_t>(seconds * 1e9);
  std::uint64_t units = 0, hash = 0;
  std::string key;
  while (now_ns() < until) {
    // One unit: a 64-entry ordered map of decimal-string keys, walked once.
    std::map<std::string, std::uint64_t> map;
    for (std::uint64_t i = 0; i < 64; ++i) map[std::to_string(units * 7919 + i)] = i;
    for (const auto& [k, v] : map) hash = hash * 31 + k.size() + v;
    ++units;
  }
  calibration_sink = hash;
  const double rate = static_cast<double>(units) / (static_cast<double>(now_ns() - start) / 1e9);
  return rate / kReferenceUnitsPerSecond;
}

std::uint64_t replay(w5::platform::Provider& provider,
                     const std::vector<Request>& requests, Cursor& cursor,
                     Checker& checker, std::size_t connections,
                     std::size_t count) {
  const std::uint64_t failed_before = checker.failed();
  for (std::size_t i = 0; i < count; ++i) {
    const Request& request = requests[cursor.next(i % connections)];
    const w5::net::HttpResponse response = provider.handle(request.parsed);
    checker.check(request, response.status, response.body,
                  response.headers.contains("X-W5-Fed-Partial"));
  }
  return checker.failed() - failed_before;
}

w5::util::Json scrape_metrics(w5::platform::Provider& provider) {
  const auto response =
      provider.http(w5::net::Method::kGet, "/metrics?format=json");
  auto parsed = w5::util::Json::parse(response.body);
  if (response.status != 200 || !parsed.ok())
    throw std::runtime_error("/metrics scrape failed");
  return std::move(parsed).value();
}

double metric_value(const w5::util::Json& scrape, const std::string& name) {
  if (scrape.at("counters").contains(name))
    return scrape.at("counters").at(name).as_number();
  return scrape.at("gauges").at(name).as_number();
}

std::vector<double> bucket_delta(const w5::util::Json& before,
                                 const w5::util::Json& after,
                                 const std::string& name) {
  const auto& now = after.at("histograms").at(name).at("buckets").as_array();
  const auto& then = before.at("histograms").at(name).at("buckets").as_array();
  std::vector<double> out;
  for (std::size_t i = 0; i < now.size(); ++i) {
    const double earlier = i < then.size() ? then[i].at("count").as_number() : 0;
    out.push_back(now[i].at("count").as_number() - earlier);
  }
  return out;
}

double bucket_percentile(const w5::util::Json& scrape, const std::string& name,
                         const std::vector<double>& counts, double p) {
  const auto& buckets = scrape.at("histograms").at(name).at("buckets").as_array();
  double total = 0;
  for (const double c : counts) total += c;
  if (total == 0 || buckets.size() < 2) return 0;
  const double last_bound = buckets[buckets.size() - 2].at("le").as_number();
  const double rank = std::max(1.0, p / 100.0 * total);
  double cumulative = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    const double before = cumulative;
    cumulative += counts[i];
    if (cumulative < rank) continue;
    if (i + 1 >= buckets.size()) return last_bound;
    const double lower = i == 0 ? 0 : buckets[i - 1].at("le").as_number();
    const double upper = buckets[i].at("le").as_number();
    return lower + (rank - before) / counts[i] * (upper - lower);
  }
  return last_bound;
}

}  // namespace perfbench
