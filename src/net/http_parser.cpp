#include "net/http_parser.h"

#include "net/transport.h"
#include "util/strings.h"

namespace w5::net {

namespace detail {

void MessageParser::fail(std::string code, std::string detail) {
  state_ = ParseState::kError;
  error_ = util::make_error(std::move(code), std::move(detail));
}

// Appends bytes to partial_line_ until a CRLF-terminated line is ready.
// Returns true when a full line (without CRLF) is in line_out.
bool MessageParser::consume_line(std::string_view& data,
                                 std::string& line_out) {
  while (!data.empty()) {
    const char c = data.front();
    data.remove_prefix(1);
    if (++header_bytes_ > limits_.max_headers_bytes) {
      fail("http.headers_too_large", "header block exceeds limit");
      return false;
    }
    if (c == '\n') {
      if (partial_line_.empty() || partial_line_.back() != '\r') {
        fail("http.parse", "bare LF in message framing");
        return false;
      }
      partial_line_.pop_back();
      line_out = std::move(partial_line_);
      partial_line_.clear();
      return true;
    }
    partial_line_.push_back(c);
    if (partial_line_.size() > limits_.max_line_bytes) {
      fail("http.headers_too_large", "line exceeds limit");
      return false;
    }
  }
  return false;  // need more input
}

void MessageParser::finish_headers() {
  // Refuse Transfer-Encoding outright: the gateway buffers and labels
  // whole messages, and rejecting chunked removes smuggling ambiguity.
  if (headers_storage_.contains("Transfer-Encoding")) {
    fail("http.unsupported", "Transfer-Encoding not accepted");
    return;
  }
  const auto lengths = headers_storage_.get_all("Content-Length");
  std::size_t expected = 0;
  if (!lengths.empty()) {
    auto first = util::parse_u64(lengths.front());
    if (!first) {
      fail("http.parse", "malformed Content-Length");
      return;
    }
    for (const auto& other : lengths) {
      if (other != lengths.front()) {
        fail("http.parse", "conflicting Content-Length headers");
        return;
      }
    }
    expected = static_cast<std::size_t>(*first);
  }
  if (expected > limits_.max_body_bytes) {
    fail("http.too_large", "declared body exceeds limit");
    return;
  }
  body_expected_ = expected;
  body_.clear();
  body_.reserve(expected);
  if (body_expected_ == 0) {
    state_ = ParseState::kComplete;
    on_complete();
  } else {
    state_ = ParseState::kBody;
  }
}

std::size_t MessageParser::feed(std::string_view data) {
  const std::size_t total = data.size();
  while (!data.empty() && state_ != ParseState::kComplete &&
         state_ != ParseState::kError) {
    switch (state_) {
      case ParseState::kStartLine: {
        std::string line;
        if (!consume_line(data, line)) break;
        if (line.empty()) continue;  // tolerate leading empty lines
        if (!on_start_line(line)) {
          if (state_ != ParseState::kError)
            fail("http.parse", "malformed start line");
          break;
        }
        state_ = ParseState::kHeaders;
        break;
      }
      case ParseState::kHeaders: {
        std::string line;
        if (!consume_line(data, line)) break;
        if (line.empty()) {
          finish_headers();
          break;
        }
        if (line.front() == ' ' || line.front() == '\t') {
          fail("http.parse", "obsolete header folding rejected");
          break;
        }
        const std::size_t colon = line.find(':');
        if (colon == std::string::npos || colon == 0) {
          fail("http.parse", "header without name/colon");
          break;
        }
        std::string name = line.substr(0, colon);
        if (name.back() == ' ' || name.back() == '\t') {
          fail("http.parse", "whitespace before header colon");
          break;
        }
        if (++header_count_ > limits_.max_header_count) {
          fail("http.headers_too_large", "too many headers");
          break;
        }
        headers_storage_.add(
            std::move(name),
            std::string(util::trim(std::string_view(line).substr(colon + 1))));
        break;
      }
      case ParseState::kBody: {
        const std::size_t want = body_expected_ - body_.size();
        const std::size_t take = std::min(want, data.size());
        body_.append(data.substr(0, take));
        data.remove_prefix(take);
        if (body_.size() == body_expected_) {
          state_ = ParseState::kComplete;
          on_complete();
        }
        break;
      }
      case ParseState::kComplete:
      case ParseState::kError:
        break;
    }
  }
  return total - data.size();
}

}  // namespace detail

RequestParser::RequestParser(ParserLimits limits)
    : MessageParser(limits), limits_(limits) {}

bool RequestParser::on_start_line(std::string_view line) {
  // method SP request-target SP HTTP-version
  const std::size_t sp1 = line.find(' ');
  if (sp1 == std::string_view::npos) return false;
  const std::size_t sp2 = line.find(' ', sp1 + 1);
  if (sp2 == std::string_view::npos || line.find(' ', sp2 + 1) != std::string_view::npos)
    return false;

  const auto method = method_from_string(line.substr(0, sp1));
  if (!method) {
    fail("http.unsupported", "unknown method");
    return false;
  }
  const std::string_view version = line.substr(sp2 + 1);
  if (version != "HTTP/1.1" && version != "HTTP/1.0") {
    fail("http.unsupported", "unsupported HTTP version");
    return false;
  }
  const std::string_view target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  auto parsed = parse_request_target(target);
  if (!parsed) {
    fail("http.parse", "malformed request target");
    return false;
  }
  request_.method = *method;
  request_.target = std::string(target);
  request_.parsed = std::move(*parsed);
  return true;
}

void RequestParser::on_complete() {
  request_.headers = take_headers();
  request_.body = take_body();
}

HttpRequest RequestParser::take() {
  HttpRequest out = std::move(request_);
  reset();
  return out;
}

void RequestParser::reset() {
  *this = RequestParser(limits_);
}

ResponseParser::ResponseParser(ParserLimits limits)
    : MessageParser(limits), limits_(limits) {}

bool ResponseParser::on_start_line(std::string_view line) {
  // HTTP-version SP status-code SP reason-phrase
  const std::size_t sp1 = line.find(' ');
  if (sp1 == std::string_view::npos) return false;
  const std::string_view version = line.substr(0, sp1);
  if (version != "HTTP/1.1" && version != "HTTP/1.0") {
    fail("http.unsupported", "unsupported HTTP version");
    return false;
  }
  const std::size_t sp2 = line.find(' ', sp1 + 1);
  const std::string_view code =
      sp2 == std::string_view::npos
          ? line.substr(sp1 + 1)
          : line.substr(sp1 + 1, sp2 - sp1 - 1);
  const auto status = util::parse_u64(code);
  if (!status || *status < 100 || *status > 599) {
    fail("http.parse", "bad status code");
    return false;
  }
  response_.status = static_cast<int>(*status);
  return true;
}

void ResponseParser::on_complete() {
  response_.headers = take_headers();
  response_.body = take_body();
}

HttpResponse ResponseParser::take() {
  HttpResponse out = std::move(response_);
  reset();
  return out;
}

void ResponseParser::reset() {
  *this = ResponseParser(limits_);
}

util::Result<HttpResponse> read_response(Connection& connection,
                                         ParserLimits limits) {
  ResponseParser parser(limits);
  char buf[64 * 1024];
  while (!parser.complete() && !parser.failed()) {
    auto n = connection.read(buf, sizeof(buf));
    if (!n.ok()) return n.error();
    if (n.value() == 0)
      return util::make_error("http.incomplete", "EOF before full response");
    parser.feed(std::string_view(buf, n.value()));
  }
  if (parser.failed()) return parser.error();
  return parser.take();
}

}  // namespace w5::net
