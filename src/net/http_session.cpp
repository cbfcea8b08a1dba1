#include "net/http_session.h"

#include "net/tracing.h"
#include "util/strings.h"

namespace w5::net {

namespace {

void bump(std::atomic<std::uint64_t>& counter) {
  counter.fetch_add(1, std::memory_order_relaxed);
}

// Echoes a validated inbound X-W5-Trace id onto an early-exit response
// the handler never sees, so a traced caller can still correlate the
// failure. The shape check keeps arbitrary client bytes out of the
// response header (§3.5).
void echo_trace(HttpResponse& response, const Headers& request_headers) {
  const auto trace = request_headers.get(kTraceHeader);
  if (trace && valid_trace_token(*trace))
    response.headers.set(std::string(kTraceHeader), *trace);
}

}  // namespace

HttpSession::HttpSession(ParserLimits limits, const ServerOptions& options,
                         ServerStats* stats, ConnStats* conn_stats)
    : parser_(limits), options_(options), stats_(stats), conn_stats_(conn_stats) {
  if (conn_stats_ != nullptr) {
    bump(conn_stats_->accepted_total);
    conn_stats_->open.fetch_add(1, std::memory_order_relaxed);
  }
}

HttpSession::~HttpSession() {
  leave_idle();
  if (conn_stats_ != nullptr)
    conn_stats_->open.fetch_sub(1, std::memory_order_relaxed);
}

void HttpSession::count(std::atomic<std::uint64_t> ServerStats::*counter) {
  if (stats_ != nullptr) bump(stats_->*counter);
}

HttpSession::Step HttpSession::enter_idle() {
  state_ = State::kIdle;
  if (!counted_idle_ && conn_stats_ != nullptr) {
    conn_stats_->idle.fetch_add(1, std::memory_order_relaxed);
    counted_idle_ = true;
  }
  // The header deadline doubles as the idle cap.
  return Step{.deadline = options_.header_deadline_micros};
}

void HttpSession::leave_idle() {
  if (counted_idle_) conn_stats_->idle.fetch_sub(1, std::memory_order_relaxed);
  counted_idle_ = false;
}

HttpSession::Step HttpSession::feed(std::string_view data) {
  const bool buffered = has_pending();
  if (buffered) {  // earlier surplus goes first
    pending_.append(data);
    data = pending_;
  }
  if (state_ == State::kIdle) {
    leave_idle();  // the header deadline keeps running from idle entry
    state_ = State::kReading;
  }
  const std::size_t consumed = parser_.feed(data);
  Step step;
  if (parser_.failed()) {
    // 431: header block over budget; 413: declared body over budget;
    // anything else is a plain parse failure.
    int status = 400;
    if (parser_.error().code == "http.too_large") {
      status = 413;
      count(&ServerStats::rejected_413_total);
    } else if (parser_.error().code == "http.headers_too_large") {
      status = 431;
      count(&ServerStats::rejected_431_total);
    }
    error_ = parser_.error();
    HttpResponse rejection = HttpResponse::text(status, error_->code + "\n");
    echo_trace(rejection, parser_.parsed_headers());
    step = write(std::move(rejection), /*close=*/true);
  } else if (parser_.complete()) {
    state_ = State::kDispatched;
    in_body_ = false;
    // No deadline runs while application code does.
    step = Step{.action = Action::kDispatch, .deadline = 0};
  } else if (!in_body_ && parser_.state() == ParseState::kBody) {
    in_body_ = true;  // the body phase restarts the clock
    step.deadline = options_.body_deadline_micros;
  }
  // Only a dispatched request can leave bytes behind (a pipeline).
  if (step.action != Action::kDispatch) {
    pending_.clear();
  } else if (buffered) {
    pending_.erase(0, consumed);
  } else {
    pending_.assign(data.substr(consumed));
  }
  return step;
}

HttpRequest HttpSession::take_request() {
  HttpRequest request = parser_.take();
  parser_.reset();
  keep_alive_ =
      !util::iequals(request.headers.get("Connection").value_or(""), "close");
  return request;
}

HttpSession::Step HttpSession::respond(HttpResponse response) {
  answering_ = true;
  return write(std::move(response), /*close=*/!keep_alive_);
}

HttpSession::Step HttpSession::refuse(const Headers& request_headers) {
  count(&ServerStats::shed_total);
  HttpResponse shed = HttpResponse::text(503, "overloaded, retry later\n");
  shed.headers.set("Retry-After", std::to_string(options_.retry_after_seconds));
  echo_trace(shed, request_headers);
  return write(std::move(shed), /*close=*/true);
}

HttpSession::Step HttpSession::write(HttpResponse response, bool close) {
  if (close) response.headers.set("Connection", "close");
  head_ = response.to_wire_head();
  body_ = std::move(response.body);
  close_after_ = close;
  state_ = State::kWriting;
  return Step{.action = Action::kWrite,
              .deadline = options_.write_timeout_micros};
}

HttpSession::Step HttpSession::written() {
  if (answering_) count(&ServerStats::handled_total);
  answering_ = false;
  if (close_after_) return close();
  head_.clear();
  body_.clear();
  return enter_idle();
}

HttpSession::Step HttpSession::send_and_close(HttpResponse response) {
  response.headers.set("Connection", "close");
  echo_trace(response, parser_.parsed_headers());
  Step step = close();
  head_ = response.to_wire_head();
  body_ = std::move(response.body);
  return step;
}

HttpSession::Step HttpSession::close() {
  state_ = State::kClosed;
  head_.clear();
  body_.clear();
  return Step{.action = Action::kClose};
}

HttpSession::Step HttpSession::on_eof(bool stalled) {
  if (state_ != State::kReading) return close();  // nothing asked, none owed
  const char* why = stalled ? "incomplete request" : "truncated request";
  error_ = util::make_error("http.incomplete", why);
  return send_and_close(HttpResponse::text(400, std::string(why) + "\n"));
}

HttpSession::Step HttpSession::on_timeout() {
  if (state_ == State::kDispatched || state_ == State::kClosed)
    return Step{};  // no deadline runs while the handler does
  count(&ServerStats::timeouts_total);
  count(&ServerStats::reaped_total);
  if (conn_stats_ != nullptr) bump(conn_stats_->timeout_closes_total);
  if (state_ == State::kWriting) return close();  // the receiver never drained
  error_ = util::make_error("http.timeout", "client stalled past deadline");
  if (state_ == State::kIdle) return close();  // an idle keep-alive
  // Mid-request: say why, echoing the trace id if it already arrived.
  return send_and_close(HttpResponse::text(408, "request timeout\n"));
}

HttpSession::Step HttpSession::on_reset() {
  if (conn_stats_ != nullptr) bump(conn_stats_->reset_total);
  return close();
}

util::Result<std::size_t> serve_inline(Connection& connection,
                                       const ServerHandler& handler,
                                       ParserLimits limits) {
  static const ServerOptions kNoDeadlines;
  HttpSession session(limits, kNoDeadlines, nullptr, nullptr);
  // One write per response: the pipe takes it whole or fails.
  const auto send = [&] {
    return connection.write(std::string(session.head()) +
                            std::string(session.body()));
  };
  std::size_t handled = 0;
  char buf[8192];
  HttpSession::Step step = session.start();
  while (step.action != HttpSession::Action::kClose) {
    if (step.action == HttpSession::Action::kDispatch) {
      step = session.respond(handler(session.take_request()));
    } else if (step.action == HttpSession::Action::kWrite) {
      const bool answered = session.answering();
      if (auto written = send(); !written.ok()) {
        connection.close();
        return session.error().value_or(written.error());
      }
      handled += answered ? 1 : 0;
      step = session.written();
    } else if (session.has_pending()) {
      step = session.feed();
    } else if (auto n = connection.read(buf, sizeof(buf)); n.ok()) {
      step = n.value() == 0 ? session.on_eof()
                            : session.feed(std::string_view(buf, n.value()));
    } else if (n.error().code == "net.would_block") {
      if (session.state() == HttpSession::State::kIdle) return handled;
      step = session.on_eof(/*stalled=*/true);
    } else if (n.error().code == "net.timeout") {
      step = session.on_timeout();
    } else {
      connection.close();
      return n.error();
    }
  }
  if (!session.head().empty()) (void)send();
  connection.close();
  if (session.error()) return *session.error();
  return handled;
}

}  // namespace w5::net
