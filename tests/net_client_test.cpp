// net::read_response over the in-memory transport: happy path, truncated
// responses, malformed responses, a seeded split-point fuzz of the one
// reader of peer response bytes, and read_available edge cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "net/http_parser.h"
#include "net/transport.h"
#include "util/rng.h"

namespace w5::net {
namespace {

TEST(HttpClientTest, RoundTripAgainstPrebufferedResponse) {
  auto [client_end, server_end] = make_pipe();
  // The "server" wrote its response ahead of time (in-memory transports
  // are single-threaded; see fed::Node for the pump pattern).
  const auto canned = HttpResponse::json(200, R"({"pong":true})");
  ASSERT_TRUE(server_end->write(canned.to_wire()).ok());

  HttpRequest request;
  request.target = "/ping";
  ASSERT_TRUE(client_end->write(request.to_wire()).ok());
  auto response = read_response(*client_end);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().status, 200);
  EXPECT_EQ(response.value().body, R"({"pong":true})");

  // The request bytes reached the server side intact.
  auto seen = server_end->read_available();
  ASSERT_TRUE(seen.ok());
  EXPECT_NE(seen.value().find("GET /ping HTTP/1.1"), std::string::npos);
}

TEST(HttpClientTest, EofMidResponseIsAnError) {
  auto [client_end, server_end] = make_pipe();
  ASSERT_TRUE(
      server_end->write("HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\nshort")
          .ok());
  server_end->close();
  auto response = read_response(*client_end);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.error().code, "http.incomplete");
}

TEST(HttpClientTest, MalformedResponseIsAParseError) {
  auto [client_end, server_end] = make_pipe();
  ASSERT_TRUE(server_end->write("NOT HTTP AT ALL\r\n\r\n").ok());
  auto response = read_response(*client_end);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.error().code, "http.unsupported");
}

TEST(HttpClientTest, OversizedResponseHitsClientLimits) {
  auto [client_end, server_end] = make_pipe();
  auto big = HttpResponse::text(200, std::string(1000, 'x'));
  ASSERT_TRUE(server_end->write(big.to_wire()).ok());
  auto response =
      read_response(*client_end, ParserLimits{.max_body_bytes = 100});
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.error().code, "http.too_large");
}

TEST(HttpClientTest, WriteFailureSurfaces) {
  auto [client_end, server_end] = make_pipe();
  client_end->close();
  HttpRequest request;
  auto written = client_end->write(request.to_wire());
  ASSERT_FALSE(written.ok());
  EXPECT_EQ(written.error().code, "net.closed");
}

// ---- Seeded split-point fuzz of read_response --------------------------
//
// read_response is the one loop that reads a response off a peer (every
// federation hop goes through it), so its verdict must be a function of
// the bytes alone. A scripted connection hands the same mutated response
// out at random chunk boundaries; the result (or the error code) must
// match the single-chunk read, and an accepted response must sit inside
// the ParserLimits. Deterministic per seed; the ASan+UBSan leg runs it.

// Serves `bytes` in the given chunk sizes, then EOF.
class ScriptedConnection final : public Connection {
 public:
  ScriptedConnection(std::string bytes, std::vector<std::size_t> chunks)
      : bytes_(std::move(bytes)), chunks_(std::move(chunks)) {}

  util::Result<std::size_t> read(char* buf, std::size_t max) override {
    if (offset_ == bytes_.size()) return std::size_t{0};
    std::size_t n = bytes_.size() - offset_;
    if (next_chunk_ < chunks_.size()) n = std::min(n, chunks_[next_chunk_++]);
    n = std::min(n, max);
    std::copy_n(bytes_.data() + offset_, n, buf);
    offset_ += n;
    return n;
  }
  util::Status write(std::string_view) override { return util::ok_status(); }
  void close() override {}
  bool closed() const override { return false; }

 private:
  std::string bytes_;
  std::vector<std::size_t> chunks_;
  std::size_t offset_ = 0;
  std::size_t next_chunk_ = 0;
};

constexpr ParserLimits kFuzzLimits{.max_line_bytes = 96,
                                   .max_header_count = 12,
                                   .max_headers_bytes = 384,
                                   .max_body_bytes = 512};

std::string mutate_response(util::Rng& rng,
                            const std::vector<std::string>& corpus) {
  std::string wire = corpus[rng.next_below(corpus.size())];
  static constexpr std::string_view kWireBytes =
      "\r\n\r\n: 0123456789HTTP/1.1 Content-Length";
  switch (rng.next_below(7)) {
    case 0:  // random bytes
      return rng.next_bytes(rng.next_below(600));
    case 1:  // bit flips
      for (std::uint64_t i = rng.next_range(1, 6); i > 0 && !wire.empty();
           --i)
        wire[rng.next_below(wire.size())] ^=
            static_cast<char>(1u << rng.next_below(8));
      return wire;
    case 2:  // truncation
      return wire.substr(0, rng.next_below(wire.size() + 1));
    case 3:  // splice in framing-significant bytes
      for (std::uint64_t i = rng.next_range(1, 12); i > 0; --i)
        wire.insert(wire.begin() + static_cast<std::ptrdiff_t>(
                                       rng.next_below(wire.size() + 1)),
                    kWireBytes[rng.next_below(kWireBytes.size())]);
      return wire;
    case 4: {  // repeat a header line: short lines reach the count cap,
               // long ones the header-block byte cap
      const std::size_t at = wire.find("\r\n") + 2;
      const std::string line =
          "X-Fuzz: " + rng.next_string(rng.next_below(85)) + "\r\n";
      for (std::uint64_t i = rng.next_range(1, 14); i > 0; --i)
        wire.insert(at, line);
      return wire;
    }
    case 5: {  // lie about the body length, either way
      const std::size_t at = wire.find("Content-Length: ");
      if (at == std::string::npos) return wire;
      const std::size_t end = wire.find("\r\n", at);
      return wire.replace(at + 16, end - at - 16,
                          std::to_string(rng.next_below(700)));
    }
    default:  // a trailing second message the reader must not consume
      return wire + corpus[rng.next_below(corpus.size())];
  }
}

std::vector<std::size_t> random_chunks(util::Rng& rng, std::size_t size) {
  std::vector<std::size_t> chunks;
  const std::int64_t max_chunk =
      rng.next_bool(0.3) ? 1 : rng.next_range(1, 64);
  for (std::size_t covered = 0; covered < size;) {
    chunks.push_back(static_cast<std::size_t>(rng.next_range(1, max_chunk)));
    covered += chunks.back();
  }
  return chunks;
}

void expect_within_limits(const HttpResponse& response,
                          const ParserLimits& limits) {
  EXPECT_LE(response.body.size(), limits.max_body_bytes);
  EXPECT_LE(response.headers.size(), limits.max_header_count);
  std::size_t header_bytes = 0;
  for (const auto& [name, value] : response.headers.entries()) {
    EXPECT_LE(name.size() + 2 + value.size(), limits.max_line_bytes);
    header_bytes += name.size() + 2 + value.size() + 2;
  }
  EXPECT_LE(header_bytes, limits.max_headers_bytes);
}

TEST(ResponseReaderFuzz, SeededSplitPointsGiveOneVerdict) {
  HttpResponse with_headers = HttpResponse::text(404, "no such record\n");
  with_headers.headers.set("Connection", "close");
  with_headers.headers.set("X-W5-Trace", "abc123");
  const std::vector<std::string> corpus = {
      HttpResponse::json(200, R"({"results":[{"id":"n1","score":0.5}]})")
          .to_wire(),
      with_headers.to_wire(),
      HttpResponse::text(204, "").to_wire(),
      HttpResponse::text(200, std::string(500, 'b')).to_wire(),
      "HTTP/1.0 503 Busy\r\nRetry-After: 1\r\nContent-Length: 4\r\n\r\nbusy",
      "\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n",
      "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
  };
  int accepted = 0;
  std::set<std::string> codes;
  for (const std::uint64_t seed : {3ull, 17ull, 2024ull}) {
    util::Rng rng(seed);
    for (int i = 0; i < 800; ++i) {
      const std::string wire = mutate_response(rng, corpus);
      ScriptedConnection whole(wire, {});
      const auto expected = read_response(whole, kFuzzLimits);
      if (expected.ok()) {
        ++accepted;
        expect_within_limits(expected.value(), kFuzzLimits);
      } else {
        codes.insert(expected.error().code);
      }
      for (int split = 0; split < 4; ++split) {
        ScriptedConnection chunked(wire, random_chunks(rng, wire.size()));
        const auto got = read_response(chunked, kFuzzLimits);
        ASSERT_EQ(got.ok(), expected.ok())
            << "seed " << seed << " case " << i << " split " << split;
        if (!got.ok()) {
          EXPECT_EQ(got.error().code, expected.error().code)
              << "seed " << seed << " case " << i;
          continue;
        }
        expect_within_limits(got.value(), kFuzzLimits);
        EXPECT_EQ(got.value().status, expected.value().status);
        EXPECT_EQ(got.value().headers.entries(),
                  expected.value().headers.entries());
        EXPECT_EQ(got.value().body, expected.value().body);
      }
    }
  }
  // The mutator must reach the accepting path and every limit, not only
  // early rejections.
  EXPECT_GT(accepted, 300);
  for (const char* code : {"http.incomplete", "http.parse",
                           "http.unsupported", "http.too_large",
                           "http.headers_too_large"})
    EXPECT_EQ(codes.count(code), 1u) << code;
}

TEST(ReadAvailableTest, RespectsMaxAndDrainSemantics) {
  auto [a, b] = make_pipe();
  ASSERT_TRUE(a->write(std::string(10000, 'z')).ok());
  auto capped = b->read_available(/*max=*/100);
  ASSERT_TRUE(capped.ok());
  EXPECT_EQ(capped.value().size(), 100u);
  auto rest = b->read_available();
  ASSERT_TRUE(rest.ok());
  EXPECT_EQ(rest.value().size(), 9900u);
  // Empty + open → would_block error; empty + closed → clean "".
  EXPECT_EQ(b->read_available().error().code, "net.would_block");
  a->close();
  auto after_close = b->read_available();
  ASSERT_TRUE(after_close.ok());
  EXPECT_TRUE(after_close.value().empty());
}

}  // namespace
}  // namespace w5::net
