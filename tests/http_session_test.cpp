// The I/O-free connection engine (DESIGN.md §15): HttpSession's steps on
// their own, then the cross-wire differential — one table of byte
// scripts played through the epoll reactor over loopback TCP and through
// serve_inline over an in-memory pipe must come back byte-identical,
// early exits and trace echoes included.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "net/event_loop_server.h"
#include "net/fault.h"
#include "net/http_session.h"
#include "net/tcp.h"
#include "net/transport.h"

namespace w5::net {
namespace {

using Action = HttpSession::Action;

HttpResponse echo_handler(const HttpRequest& request) {
  return HttpResponse::text(200, "echo:" + request.target + ":" + request.body);
}

// ---- The session alone -----------------------------------------------------

TEST(HttpSession, StepsThroughDeadlinePhasesAndKeepAlive) {
  const ServerOptions options{.header_deadline_micros = 100,
                              .body_deadline_micros = 200,
                              .write_timeout_micros = 300};
  ServerStats stats;
  ConnStats conn_stats;
  {
    HttpSession session({}, options, &stats, &conn_stats);
    HttpSession::Step step = session.start();
    EXPECT_EQ(step.action, Action::kRead);
    EXPECT_EQ(step.deadline, 100);  // header deadline doubles as idle cap
    EXPECT_EQ(conn_stats.open.load(), 1);
    EXPECT_EQ(conn_stats.idle.load(), 1);

    step = session.feed("POST /up HTTP/1.1\r\nContent-Length: 4\r\n\r\nab");
    EXPECT_EQ(step.action, Action::kRead);
    EXPECT_EQ(step.deadline, 200);  // body phase restarts the clock
    EXPECT_EQ(conn_stats.idle.load(), 0);

    step = session.feed("cd");
    ASSERT_EQ(step.action, Action::kDispatch);
    EXPECT_EQ(step.deadline, 0);  // nothing runs against the handler
    const HttpRequest request = session.take_request();
    EXPECT_EQ(request.body, "abcd");

    step = session.respond(echo_handler(request));
    ASSERT_EQ(step.action, Action::kWrite);
    EXPECT_EQ(step.deadline, 300);
    EXPECT_TRUE(session.answering());
    EXPECT_EQ(session.head().find("Connection: close"), std::string::npos);

    step = session.written();  // keep-alive: back to idle, re-armed
    EXPECT_EQ(step.action, Action::kRead);
    EXPECT_EQ(step.deadline, 100);
    EXPECT_EQ(stats.handled_total.load(), 1u);
    EXPECT_EQ(conn_stats.idle.load(), 1);

    step = session.on_timeout();  // idle: reaped without a word
    EXPECT_EQ(step.action, Action::kClose);
    EXPECT_EQ(stats.reaped_total.load(), 1u);
    EXPECT_EQ(conn_stats.timeout_closes_total.load(), 1u);
  }
  EXPECT_EQ(conn_stats.idle.load(), 0) << "the idle gauge must unwind";
  EXPECT_EQ(conn_stats.open.load(), 0);
  EXPECT_EQ(conn_stats.accepted_total.load(), 1u);
}

TEST(HttpSession, RefusedDispatchShedsWith503AndEchoesTrace) {
  const ServerOptions options{.retry_after_seconds = 7};
  ServerStats stats;
  HttpSession session({}, options, &stats, nullptr);
  (void)session.start();
  ASSERT_EQ(session.feed("GET / HTTP/1.1\r\nX-W5-Trace: t-503\r\n\r\n").action,
            Action::kDispatch);
  const HttpRequest request = session.take_request();
  const HttpSession::Step step = session.refuse(request.headers);
  ASSERT_EQ(step.action, Action::kWrite);
  EXPECT_FALSE(session.answering());
  const std::string head(session.head());
  EXPECT_TRUE(head.starts_with("HTTP/1.1 503 "));
  EXPECT_NE(head.find("Retry-After: 7\r\n"), std::string::npos);
  EXPECT_NE(head.find("X-W5-Trace: t-503\r\n"), std::string::npos);
  EXPECT_NE(head.find("Connection: close\r\n"), std::string::npos);
  EXPECT_EQ(session.written().action, Action::kClose);
  EXPECT_EQ(stats.shed_total.load(), 1u);
  EXPECT_EQ(stats.handled_total.load(), 0u);
}

// ---- Cross-wire differential -----------------------------------------------

struct Send {
  std::string bytes;
  std::size_t responses_after = 0;  // responses expected once these land
};

struct Script {
  std::string name;
  std::vector<Send> sends;
  // After the last send: half-close (EOF to the server), or stall until
  // a deadline fires (the reactor's header deadline; on the pipe, an
  // injected read drop).
  enum class End { kHalfClose, kServerCloses, kStall } end = End::kHalfClose;
  std::vector<int> statuses;       // expected, in order
  std::string expect_trace;        // an X-W5-Trace every response echoes
};

std::string request(std::string_view method, std::string_view target,
                    std::string_view extra_headers = "",
                    std::string_view body = "") {
  std::string wire = std::string(method) + " " + std::string(target) +
                     " HTTP/1.1\r\nHost: w5.org\r\n" +
                     std::string(extra_headers);
  if (!body.empty() || method == "POST")
    wire += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  return wire + "\r\n" + std::string(body);
}

const ParserLimits kLimits{.max_headers_bytes = 512, .max_body_bytes = 64};

std::vector<Script> scripts() {
  using End = Script::End;
  const std::string padding = "X-Padding: " + std::string(600, 'p') + "\r\n";
  return {
      {.name = "well_formed_close",
       .sends = {{request("POST", "/one", "Connection: close\r\n", "hi"), 1}},
       .end = End::kServerCloses,
       .statuses = {200}},
      {.name = "keep_alive_sequential",
       .sends = {{request("GET", "/a"), 1}, {request("GET", "/b"), 2}},
       .statuses = {200, 200}},
      {.name = "two_pipelined_in_one_buffer",
       .sends = {{request("POST", "/p1", "", "x") + request("GET", "/p2"), 2}},
       .statuses = {200, 200}},
      {.name = "malformed_start_line",
       .sends = {{"NONSENSE\r\n\r\n", 1}},
       .end = End::kServerCloses,
       .statuses = {400}},
      {.name = "oversize_body_413_echoes_trace",
       .sends = {{request("POST", "/big", "X-W5-Trace: t-413\r\n",
                          std::string(65, 'x')),
                  1}},
       .end = End::kServerCloses,
       .statuses = {413},
       .expect_trace = "t-413"},
      {.name = "oversize_headers_431_echoes_trace",
       .sends = {{request("GET", "/pad", "X-W5-Trace: t-431\r\n" + padding),
                  1}},
       .end = End::kServerCloses,
       .statuses = {431},
       .expect_trace = "t-431"},
      {.name = "eof_mid_headers_400_echoes_trace",
       .sends = {{"GET /cut HTTP/1.1\r\nX-W5-Trace: t-400\r\nHos", 0}},
       .statuses = {400},
       .expect_trace = "t-400"},
      {.name = "stall_mid_headers_408_echoes_trace",
       .sends = {{"GET /slow HTTP/1.1\r\nX-W5-Trace: t-408\r\n", 0}},
       .end = End::kStall,
       .statuses = {408},
       .expect_trace = "t-408"},
      {.name = "invalid_trace_is_never_echoed",
       .sends = {{request("POST", "/big", "X-W5-Trace: bad bytes{}!\r\n",
                          std::string(65, 'x')),
                  1}},
       .end = End::kServerCloses,
       .statuses = {413}},
  };
}

// Splits a response byte stream into complete responses.
std::vector<HttpResponse> parse_responses(std::string_view stream) {
  std::vector<HttpResponse> out;
  while (!stream.empty()) {
    ResponseParser parser;
    const std::size_t used = parser.feed(stream);
    if (!parser.complete()) break;
    out.push_back(parser.take());
    stream.remove_prefix(used);
  }
  return out;
}

// The in-memory wire: the driver is pumped after each send, as a dialer
// pumps a fed::Node.
std::string run_inline(const Script& script) {
  auto [client, server_end] = make_pipe();
  std::unique_ptr<Connection> server = std::move(server_end);
  if (script.end == Script::End::kStall) {
    // The pipe never blocks, so a stall is modeled as a lost segment
    // after the bytes that did arrive.
    server = std::make_unique<FaultyConnection>(
        std::move(server),
        FaultSchedule::scripted({FaultAction{.kind = FaultKind::kNone},
                                 FaultAction{.kind = FaultKind::kDrop}},
                                {}),
        no_sleep());
  }
  std::string received;
  const auto pump = [&] {
    (void)serve_inline(*server, echo_handler, kLimits);
    if (auto bytes = client->read_available(); bytes.ok())
      received += bytes.value();
  };
  for (const Send& send : script.sends) {
    EXPECT_TRUE(client->write(send.bytes).ok());
    // Pump only once whole requests are buffered: a pump that finds a
    // partial request answers it "incomplete" (nothing more can arrive
    // on a single-threaded wire), which the scripts below never intend.
    if (send.responses_after > 0) pump();
  }
  if (script.end == Script::End::kHalfClose) client->close();
  if (script.end != Script::End::kServerCloses) pump();
  return received;
}

// The reactor over loopback TCP, inline dispatch.
std::string run_reactor(const Script& script) {
  ServerOptions options;
  if (script.end == Script::End::kStall)
    options.header_deadline_micros = 100'000;
  EventLoopHttpServer server(
      echo_handler,
      [](std::function<void()> job) {
        job();
        return true;
      },
      kLimits, options);
  TcpListener listener;
  EXPECT_TRUE(listener.listen(0).ok());
  std::thread serve([&] { (void)server.serve(listener); });

  std::string received;
  auto dialed = tcp_connect(listener.port());
  EXPECT_TRUE(dialed.ok());
  if (dialed.ok()) {
    Connection& client = *dialed.value();
    client.set_read_timeout(5'000'000);  // a hang fails, never blocks
    char buf[4096];
    const auto read_some = [&] {
      auto n = client.read(buf, sizeof(buf));
      if (!n.ok() || n.value() == 0) return false;
      received.append(buf, n.value());
      return true;
    };
    for (const Send& send : script.sends) {
      EXPECT_TRUE(client.write(send.bytes).ok());
      while (parse_responses(received).size() < send.responses_after &&
             read_some()) {
      }
    }
    if (script.end == Script::End::kHalfClose)
      ::shutdown(static_cast<TcpConnection&>(client).fd(), SHUT_WR);
    while (read_some()) {  // every script ends with the server closing
    }
  }
  listener.close();
  serve.join();
  return received;
}

TEST(HttpSessionCrossWire, ReactorAndInMemoryDriverAnswerByteIdentically) {
  for (const Script& script : scripts()) {
    SCOPED_TRACE(script.name);
    const std::string over_pipe = run_inline(script);
    const std::string over_tcp = run_reactor(script);
    EXPECT_EQ(over_tcp, over_pipe);

    const std::vector<HttpResponse> responses = parse_responses(over_pipe);
    ASSERT_EQ(responses.size(), script.statuses.size()) << over_pipe;
    for (std::size_t i = 0; i < responses.size(); ++i) {
      EXPECT_EQ(responses[i].status, script.statuses[i]) << i;
      if (script.expect_trace.empty()) {
        EXPECT_FALSE(responses[i].headers.get("X-W5-Trace").has_value());
      } else {
        EXPECT_EQ(responses[i].headers.get("X-W5-Trace").value_or(""),
                  script.expect_trace);
      }
    }
    // Early exits always close, and say so.
    if (script.statuses.back() >= 400) {
      EXPECT_EQ(responses.back().headers.get("Connection").value_or(""),
                "close");
    }
  }
}

}  // namespace
}  // namespace w5::net
