// Incremental HTTP/1.1 parsers.
//
// The parser is the perimeter's first line of defense: it consumes
// attacker-controlled bytes, so it is strict (CRLF line endings, bounded
// line/header/body sizes, no header folding) and incremental (feed() any
// byte-chunking; state survives partial input). Chunked transfer encoding
// is deliberately unsupported — the W5 gateway buffers whole messages to
// label them, and rejecting T-E: chunked removes request-smuggling
// ambiguity.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "net/http.h"
#include "util/result.h"

namespace w5::net {

class Connection;

struct ParserLimits {
  std::size_t max_line_bytes = 8 * 1024;
  std::size_t max_header_count = 100;
  // Total header-block bytes (start line + all header lines, CRLFs
  // included). One client must not grow server memory unboundedly by
  // streaming headers; overflow fails with "http.headers_too_large",
  // which the server maps to 431 (body overflow stays "http.too_large"
  // → 413).
  std::size_t max_headers_bytes = 64 * 1024;
  std::size_t max_body_bytes = 8 * 1024 * 1024;
};

enum class ParseState : std::uint8_t {
  kStartLine,
  kHeaders,
  kBody,
  kComplete,
  kError,
};

namespace detail {

// Common header/body machinery shared by both parsers.
class MessageParser {
 public:
  explicit MessageParser(ParserLimits limits) : limits_(limits) {}

  ParseState state() const noexcept { return state_; }
  const util::Error& error() const noexcept { return error_; }

  // Feeds bytes; returns the number consumed (always all, unless the
  // message completed or failed mid-buffer).
  std::size_t feed(std::string_view data);

  // Headers parsed so far — valid in every state, including kError and a
  // partial header block. HttpSession uses this to echo a validated
  // X-W5-Trace id on early-exit responses (408/413/431) whose request
  // never reaches the handler (DESIGN.md §16).
  const Headers& parsed_headers() const noexcept { return headers_storage_; }

 protected:
  // Subclass parses its start line; returns false to enter kError (after
  // calling fail()).
  virtual bool on_start_line(std::string_view line) = 0;
  virtual ~MessageParser() = default;

  void fail(std::string code, std::string detail);
  Headers& headers() noexcept { return headers_storage_; }
  std::string take_body() { return std::move(body_); }
  Headers take_headers() { return std::move(headers_storage_); }
  virtual void on_complete() = 0;

 private:
  bool consume_line(std::string_view& data, std::string& line_out);
  void finish_headers();

  ParserLimits limits_;
  ParseState state_ = ParseState::kStartLine;
  util::Error error_;
  std::string partial_line_;
  Headers headers_storage_;
  std::size_t header_count_ = 0;
  std::size_t header_bytes_ = 0;  // start line + header lines, with CRLFs
  std::string body_;
  std::size_t body_expected_ = 0;
};

}  // namespace detail

class RequestParser final : public detail::MessageParser {
 public:
  explicit RequestParser(ParserLimits limits = {});

  // True once a complete, valid request is available via take().
  bool complete() const noexcept { return state() == ParseState::kComplete; }
  bool failed() const noexcept { return state() == ParseState::kError; }

  HttpRequest take();

  // Resets for the next request on a keep-alive connection.
  void reset();

 private:
  bool on_start_line(std::string_view line) override;
  void on_complete() override;

  ParserLimits limits_;
  HttpRequest request_;
};

class ResponseParser final : public detail::MessageParser {
 public:
  explicit ResponseParser(ParserLimits limits = {});

  bool complete() const noexcept { return state() == ParseState::kComplete; }
  bool failed() const noexcept { return state() == ParseState::kError; }

  HttpResponse take();
  void reset();

 private:
  bool on_start_line(std::string_view line) override;
  void on_complete() override;

  ParserLimits limits_;
  HttpResponse response_;
};

// Reads one response off `connection`: the one read loop for bytes
// coming back from a peer (tests, examples and fed::exchange). Transport
// errors pass through as they are; EOF before a complete response is
// "http.incomplete".
util::Result<HttpResponse> read_response(Connection& connection,
                                         ParserLimits limits = {});

}  // namespace w5::net
