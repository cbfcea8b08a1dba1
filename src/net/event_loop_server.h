// Epoll edge-triggered reactor: event-driven HTTP serving (DESIGN.md §15).
//
// A small set of I/O loop threads multiplex every connection with
// epoll(7) in edge-triggered mode. Each connection is an HttpSession
// (net/http_session.h) — the I/O-free HTTP/1.1 state machine
//
//   idle → reading (headers → body) → dispatched → writing → idle
//
// that owns every protocol decision; the reactor only moves bytes,
// deadlines and completions: epoll, the timer wheel, the mailbox, accept
// and writev. Application work (the ServerHandler) runs on the caller's
// executor (inline on the loop, or the provider's thread pool); a
// finished response is handed back to the connection's owning loop
// through a mailbox + eventfd wakeup, so connection state is only ever
// touched by its owning loop thread — the thread-ownership rule that
// keeps the reactor lock-free on the hot path.
//
// The session's deadlines (ServerOptions: header/idle, body, write) come
// from a hashed timer wheel per loop: tens of thousands of idle
// keep-alive connections sleep in the epoll set at ~0 CPU until bytes
// arrive or their deadline slot comes up.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/http.h"
#include "net/http_parser.h"
#include "net/http_session.h"
#include "net/tcp.h"
#include "net/timer_wheel.h"
#include "util/clock.h"
#include "util/metrics.h"
#include "util/thread_annotations.h"

namespace w5::net {

// Wraps each accepted connection before the reactor performs any I/O on
// it — the chaos hook: tests wrap accepted sockets in FaultyConnection
// so injected short reads / drops / resets fire identically on the
// event path. The reactor keeps the raw fd for epoll registration; all
// reads and writes go through the (possibly decorated) Connection.
using ConnectionDecorator =
    std::function<std::unique_ptr<Connection>(std::unique_ptr<Connection>)>;

// ---- Reactor stage attribution (DESIGN.md §16) -----------------------------

// Absolute wall-clock stamps for one *handled* request's trip through the
// per-connection state machine, reported after the response's last byte
// is written. Early exits (408/413/431/503) report nothing — they never
// ran a handler. trace_id is the response's X-W5-Trace echo: an id, never
// request bytes (§3.5).
struct StageSample {
  std::string trace_id;
  std::size_t loop_index = 0;
  util::Micros request_start = 0;  // first byte of the request arrived
  util::Micros parse_done = 0;     // request fully parsed (dispatch point)
  util::Micros handler_start = 0;  // handler began executing
  util::Micros handler_done = 0;   // response arrived back at the loop
  util::Micros write_done = 0;     // last response byte accepted by the kernel
};
using StageCallback = std::function<void(const StageSample&)>;

// Per-loop reactor counters, written by the owning loop thread with
// relaxed atomics and read by /metrics and /debug/statusz. The caller
// owns the array (entry i belongs to loop i) and must keep it alive for
// the server's lifetime.
struct LoopStats {
  std::atomic<std::int64_t> connections{0};       // open conns on this loop
  std::atomic<std::uint64_t> epoll_wakeups{0};    // epoll_wait returns > 0
  std::atomic<std::uint64_t> epoll_events{0};     // events across wakeups
  std::atomic<std::uint64_t> mailbox_items{0};    // cross-thread handoffs
  std::atomic<std::uint64_t> timer_fires{0};      // wheel entries fired
  std::atomic<std::uint64_t> requests{0};         // responses fully written
};

// Optional reactor telemetry sinks, all nullable — the reactor stamps
// clocks only for the sinks that are actually installed, so a bare
// server (or a W5_NO_TELEMETRY build) pays nothing.
struct ReactorTelemetry {
  util::Histogram* loop_lag_micros = nullptr;    // mailbox post → drain delay
  util::Histogram* epoll_batch = nullptr;        // events per wakeup
  util::Histogram* timer_drift_micros = nullptr; // fire time − deadline
  std::vector<LoopStats>* loop_stats = nullptr;  // sized ≥ io_threads
  StageCallback on_stage;                        // per-request stage stamps
};

struct EventLoopOptions {
  // Reactor loop threads. Loop 0 runs on the serve() caller's thread and
  // owns the listener; accepted connections are dealt round-robin.
  std::size_t io_threads = 1;
  ConnectionDecorator decorate;  // optional (fault injection)
  ReactorTelemetry telemetry;    // optional (DESIGN.md §16)
};

class EventLoopHttpServer {
 public:
  EventLoopHttpServer(ServerHandler handler, BoundedExecutor executor,
                      ParserLimits limits = {}, ServerOptions options = {},
                      EventLoopOptions loop_options = {},
                      ServerStats* stats = nullptr,
                      ConnStats* conn_stats = nullptr);
  ~EventLoopHttpServer();

  EventLoopHttpServer(const EventLoopHttpServer&) = delete;
  EventLoopHttpServer& operator=(const EventLoopHttpServer&) = delete;

  // Runs the reactor until the listener is closed (listener.close() from
  // another thread).
  // Returns the number of connections accepted. The caller is
  // responsible for draining its executor afterwards — completions for
  // connections that no longer exist are dropped harmlessly.
  std::size_t serve(TcpListener& listener);

 private:
  struct Conn;
  struct Loop;
  struct Mailbox;

  void run_loop(Loop& loop);
  void accept_ready(Loop& loop);
  void add_conn(Loop& loop, std::unique_ptr<Connection> io, int fd,
                std::uint64_t id);
  void drain_mailbox(Loop& loop);
  // Applies a finished handler response to the connection (if it still
  // exists and still awaits one). Loop-thread only. handler_start/done
  // are the worker's wall-clock stamps (0 when stage attribution is off).
  void complete(Loop& loop, std::uint64_t id, HttpResponse response,
                util::Micros handler_start, util::Micros handler_done);
  void handle_event(Loop& loop, std::uint64_t id, std::uint32_t events);
  void pump_read(Loop& loop, Conn& conn);
  // Carries out what the connection's session asked for. Returns false
  // when that destroyed the connection (the caller must not touch it).
  bool apply(Loop& loop, Conn& conn, const HttpSession::Step& step);
  void dispatch(Loop& loop, Conn& conn);
  void pump_write(Loop& loop, Conn& conn);
  void on_timer(Loop& loop, std::uint64_t id, util::Micros deadline);
  void arm_timer(Loop& loop, Conn& conn, util::Micros delay);
  void destroy(Loop& loop, Conn& conn);
  void request_stop();

  // Per-loop stats slot for `loop`, null when the caller installed none.
  LoopStats* loop_stats(const Loop& loop) const;
  // Builds and reports the stage sample for a fully-written response.
  void report_stages(Loop& loop, Conn& conn);

  ServerHandler handler_;
  BoundedExecutor executor_;
  ParserLimits limits_;
  ServerOptions options_;
  EventLoopOptions loop_options_;
  ServerStats* stats_;
  ConnStats* conn_stats_;
  // Stage attribution on: an on_stage sink is installed (and telemetry
  // is compiled in) — gates every per-request wall_now() stamp.
  bool stage_enabled_ = false;

  std::vector<std::unique_ptr<Loop>> loops_;
  TcpListener* listener_ = nullptr;
  std::atomic<std::uint64_t> accepted_{0};
  std::uint64_t next_conn_id_;  // loop-0 thread only (the accepting loop)
  std::size_t next_loop_ = 0;   // round-robin dealing, loop-0 thread only
};

}  // namespace w5::net
