// One HTTP/1.1 connection's protocol, free of I/O (DESIGN.md §12, §15).
//
// Every byte a browser or a peer sends crosses this state machine before
// it reaches the gateway. It owns every protocol decision — the
// 400/413/431 mapping, 408 reaps, the 503 shed, trace echo on early
// exits, keep-alive vs Connection: close, the header-then-body deadline
// phases — and the counters they feed, so its two drivers, the epoll
// reactor (net/event_loop_server.h, TCP) and serve_inline() below (the
// in-memory federation wire), cannot drift apart. A driver reports what
// happened and gets back a Step: what it owes the session next.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

#include "net/http.h"
#include "net/http_parser.h"
#include "net/transport.h"
#include "util/clock.h"
#include "util/result.h"

namespace w5::net {

using ServerHandler = std::function<HttpResponse(const HttpRequest&)>;

// Admission-controlled executor: returns false when the job was refused
// (queue full, pool stopping) — the request is shed with a 503 instead of
// queueing unboundedly. Keeps net free of a dependency on os::ThreadPool.
using BoundedExecutor = std::function<bool(std::function<void()>)>;

// Robustness knobs (DESIGN.md §12). All deadlines are wall-clock micros;
// 0 disables that deadline.
struct ServerOptions {
  // From the start of a request (or keep-alive idle) until the header
  // block is complete. Doubles as the idle-connection cap: a keep-alive
  // client that sends nothing for this long is closed (without a 408).
  util::Micros header_deadline_micros = 0;
  // From headers-complete until the declared body has fully arrived.
  util::Micros body_deadline_micros = 0;
  // Per response: a receiver that never drains is reaped.
  util::Micros write_timeout_micros = 0;
  // Retry-After seconds advertised on shed (503) responses.
  int retry_after_seconds = 1;
};

// Shared robustness counters, exported at /metrics. Owned by the caller
// (the Provider) and written with relaxed atomics from every loop.
struct ServerStats {
  std::atomic<std::uint64_t> handled_total{0};     // requests served
  std::atomic<std::uint64_t> timeouts_total{0};    // read/write timeouts seen
  std::atomic<std::uint64_t> reaped_total{0};      // connections killed by deadline
  std::atomic<std::uint64_t> shed_total{0};        // 503s sent at admission
  std::atomic<std::uint64_t> rejected_413_total{0};
  std::atomic<std::uint64_t> rejected_431_total{0};
};

// Connection-plane telemetry (DESIGN.md §15), exported as the w5_net_*
// connection family at /metrics. Gauges are live levels; counters are
// lifetime totals.
struct ConnStats {
  std::atomic<std::int64_t> open{0};   // accepted and not yet closed
  std::atomic<std::int64_t> idle{0};   // open, keep-alive, no request bytes
  std::atomic<std::uint64_t> accepted_total{0};
  std::atomic<std::uint64_t> timeout_closes_total{0};  // closed by deadline
  std::atomic<std::uint64_t> reset_total{0};  // peer reset / abrupt close
};

class HttpSession {
 public:
  enum class State : std::uint8_t { kIdle, kReading, kDispatched, kWriting, kClosed };

  enum class Action : std::uint8_t {
    kRead,      // nothing owed: feed() bytes when the transport has some
    kDispatch,  // run the handler on take_request(), then respond()
                // (or refuse() when the executor is full)
    kWrite,     // write head() + body() in full, then written()
    kClose,     // write head() + body() if any, best-effort, then close
  };

  struct Step {
    Action action = Action::kRead;
    // When set, replace the connection's one deadline with this many
    // micros from now (0 = none). The in-memory driver ignores it.
    std::optional<util::Micros> deadline;
  };

  // One session per open connection: it counts itself in `conn_stats`.
  // `options` must outlive it; the stats sinks are nullable.
  HttpSession(ParserLimits limits, const ServerOptions& options,
              ServerStats* stats, ConnStats* conn_stats);
  ~HttpSession();

  HttpSession(const HttpSession&) = delete;
  HttpSession& operator=(const HttpSession&) = delete;

  Step start() { return enter_idle(); }
  // Bytes arrived (state kIdle/kReading). Bytes past a request boundary
  // are kept (pipelining); feed() with none re-feeds them once the
  // response ahead of them is written.
  Step feed(std::string_view data = {});
  bool has_pending() const noexcept { return !pending_.empty(); }
  HttpRequest take_request();
  Step respond(HttpResponse response);
  Step refuse(const Headers& request_headers);  // 503 + Retry-After
  Step written();
  // The peer closed — or, `stalled`, the single-threaded in-memory wire
  // ran dry, so nothing more can arrive: 400 mid-request, else silence.
  Step on_eof(bool stalled = false);
  // The deadline (or an injected drop) fired: 408 mid-request, else a
  // silent reap.
  Step on_timeout();
  Step on_reset();

  State state() const noexcept { return state_; }
  bool reading() const noexcept {
    return state_ == State::kIdle || state_ == State::kReading;
  }
  // True while the response being written is the handler's, not an early
  // exit — what drivers count as a served request.
  bool answering() const noexcept { return answering_; }
  std::string_view head() const noexcept { return head_; }
  std::string_view body() const noexcept { return body_; }
  // Set when the session ended on a protocol failure: the parser's code,
  // "http.timeout" or "http.incomplete".
  const std::optional<util::Error>& error() const noexcept { return error_; }

 private:
  Step enter_idle();
  void leave_idle();
  Step write(HttpResponse response, bool close);
  // Early exit: echo a validated inbound X-W5-Trace, then close.
  Step send_and_close(HttpResponse response);
  Step close();
  void count(std::atomic<std::uint64_t> ServerStats::*counter);

  RequestParser parser_;
  const ServerOptions& options_;
  ServerStats* stats_;
  ConnStats* conn_stats_;
  State state_ = State::kIdle;
  bool in_body_ = false;  // the body deadline is armed
  bool keep_alive_ = true;
  bool close_after_ = false;
  bool answering_ = false;
  bool counted_idle_ = false;  // holds one unit of the idle gauge
  std::string pending_;        // pipelined bytes past a request boundary
  std::string head_;
  std::string body_;
  std::optional<util::Error> error_;
};

// The in-memory driver: serves the requests `connection` has buffered,
// dispatching each inline, until it would block between requests,
// reaches EOF or closes. Deadlines are ignored (in-memory reads never
// block). Returns the number of handler responses written, or the error
// that ended the connection: the session's or the transport's.
util::Result<std::size_t> serve_inline(Connection& connection,
                                       const ServerHandler& handler,
                                       ParserLimits limits = {});

}  // namespace w5::net
