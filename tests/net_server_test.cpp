#include <gtest/gtest.h>

#include <thread>

#include "net/event_loop_server.h"
#include "net/http_parser.h"
#include "net/http_session.h"
#include "net/router.h"
#include "net/tcp.h"
#include "net/transport.h"

namespace w5::net {
namespace {

TEST(PipeTest, BytesFlowBothWays) {
  auto [a, b] = make_pipe();
  ASSERT_TRUE(a->write("ping").ok());
  char buf[16];
  auto n = b->read(buf, sizeof(buf));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(std::string(buf, n.value()), "ping");
  ASSERT_TRUE(b->write("pong").ok());
  n = a->read(buf, sizeof(buf));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(std::string(buf, n.value()), "pong");
}

TEST(PipeTest, EmptyReadsWouldBlockThenEofAfterClose) {
  auto [a, b] = make_pipe();
  char buf[8];
  EXPECT_EQ(b->read(buf, sizeof(buf)).error().code, "net.would_block");
  ASSERT_TRUE(a->write("x").ok());
  a->close();
  auto n = b->read(buf, sizeof(buf));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 1u);
  n = b->read(buf, sizeof(buf));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 0u);  // EOF after drain
}

TEST(PipeTest, WriteAfterCloseFails) {
  auto [a, b] = make_pipe();
  a->close();
  EXPECT_EQ(a->write("x").error().code, "net.closed");
  EXPECT_TRUE(a->closed());
}

TEST(InMemoryNetworkTest, DialReachesListener) {
  InMemoryNetwork network;
  std::unique_ptr<Connection> server_side;
  network.listen("providerA", [&](std::unique_ptr<Connection> conn) {
    server_side = std::move(conn);
  });
  auto client = network.dial("providerA");
  ASSERT_TRUE(client.ok());
  ASSERT_NE(server_side, nullptr);
  ASSERT_TRUE(client.value()->write("hello").ok());
  auto data = server_side->read_available();
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data.value(), "hello");

  EXPECT_EQ(network.dial("nowhere").error().code, "net.unreachable");
  network.unlisten("providerA");
  EXPECT_FALSE(network.dial("providerA").ok());
}

HttpResponse echo_handler(const HttpRequest& request) {
  return HttpResponse::text(
      200, std::string(to_string(request.method)) + " " +
               request.parsed.path + " body=" + request.body);
}

TEST(HttpServerTest, ServesOneRequestOverPipe) {
  auto [client, server] = make_pipe();
  HttpRequest request;
  request.method = Method::kPost;
  request.target = "/echo";
  request.body = "data";
  ASSERT_TRUE(client->write(request.to_wire()).ok());

  auto handled = serve_inline(*server, echo_handler);
  ASSERT_TRUE(handled.ok());
  EXPECT_EQ(handled.value(), 1u);

  ResponseParser parser;
  auto bytes = client->read_available();
  ASSERT_TRUE(bytes.ok());
  parser.feed(bytes.value());
  ASSERT_TRUE(parser.complete());
  EXPECT_EQ(parser.take().body, "POST /echo body=data");
}

TEST(HttpServerTest, KeepAliveHandlesSequentialRequests) {
  auto [client, server] = make_pipe();

  for (int i = 0; i < 3; ++i) {
    HttpRequest request;
    request.target = "/r" + std::to_string(i);
    ASSERT_TRUE(client->write(request.to_wire()).ok());
    // Each pump serves what is buffered and returns at would-block,
    // leaving the keep-alive connection open for the next request.
    auto handled = serve_inline(*server, echo_handler);
    ASSERT_TRUE(handled.ok());
    ASSERT_EQ(handled.value(), 1u);
    ASSERT_FALSE(server->closed());
    ResponseParser parser;
    parser.feed(client->read_available().value());
    ASSERT_TRUE(parser.complete());
    EXPECT_EQ(parser.take().body, "GET /r" + std::to_string(i) + " body=");
  }
}

TEST(HttpServerTest, ConnectionCloseHonored) {
  auto [client, server] = make_pipe();
  HttpRequest request;
  request.headers.set("Connection", "close");
  ASSERT_TRUE(client->write(request.to_wire()).ok());
  auto handled = serve_inline(*server, echo_handler);
  ASSERT_TRUE(handled.ok());
  EXPECT_TRUE(server->closed());
  ResponseParser parser;
  parser.feed(client->read_available().value());
  ASSERT_TRUE(parser.complete());
  EXPECT_EQ(parser.take().headers.get("Connection"), "close");
}

TEST(HttpServerTest, MalformedRequestGets400AndClose) {
  auto [client, server] = make_pipe();
  ASSERT_TRUE(client->write("NONSENSE\r\n\r\n").ok());
  auto handled = serve_inline(*server, echo_handler);
  EXPECT_FALSE(handled.ok());
  ResponseParser parser;
  parser.feed(client->read_available().value());
  ASSERT_TRUE(parser.complete());
  EXPECT_EQ(parser.take().status, 400);
  EXPECT_TRUE(server->closed());
}

TEST(HttpServerTest, OversizedRequestGets413) {
  auto [client, server] = make_pipe();
  HttpRequest request;
  request.method = Method::kPost;
  request.body = std::string(100, 'x');
  ASSERT_TRUE(client->write(request.to_wire()).ok());
  auto handled =
      serve_inline(*server, echo_handler, ParserLimits{.max_body_bytes = 10});
  EXPECT_FALSE(handled.ok());
  ResponseParser parser;
  parser.feed(client->read_available().value());
  ASSERT_TRUE(parser.complete());
  EXPECT_EQ(parser.take().status, 413);
}

TEST(HttpServerTest, TruncatedRequestReports400) {
  auto [client, server] = make_pipe();
  ASSERT_TRUE(client->write("GET / HTTP/1.1\r\nHos").ok());  // cut mid-header
  auto handled = serve_inline(*server, echo_handler);
  EXPECT_FALSE(handled.ok());
  EXPECT_EQ(handled.error().code, "http.incomplete");
  ResponseParser parser;
  parser.feed(client->read_available().value());
  ASSERT_TRUE(parser.complete());
  EXPECT_EQ(parser.take().status, 400);
  EXPECT_TRUE(server->closed());
}

TEST(HttpServerTest, IdleConnectionReturnsFalse) {
  auto [client, server] = make_pipe();
  auto handled = serve_inline(*server, echo_handler);
  ASSERT_TRUE(handled.ok());
  EXPECT_EQ(handled.value(), 0u);
  EXPECT_FALSE(server->closed());
}

TEST(HttpServerTest, PeerHangupBetweenRequestsClosesServerEnd) {
  // A dialer that hung up leaves EOF behind; the pump closes its end, so
  // fed::Node drops the connection instead of re-reading it forever.
  auto [client, server] = make_pipe();
  client->close();
  auto handled = serve_inline(*server, echo_handler);
  ASSERT_TRUE(handled.ok());
  EXPECT_EQ(handled.value(), 0u);
  EXPECT_TRUE(server->closed());
}

TEST(RouterTest, MatchesLiteralParamAndWildcard) {
  Router router;
  std::string hit;
  router.add(Method::kGet, "/", [&](const auto&, const auto&) {
    hit = "root";
    return HttpResponse::text(200, "root");
  });
  router.add(Method::kGet, "/dev/:developer/:app",
             [&](const auto&, const RouteParams& params) {
               hit = params.at("developer") + "/" + params.at("app");
               return HttpResponse::text(200, "app");
             });
  router.add(Method::kGet, "/static/*path",
             [&](const auto&, const RouteParams& params) {
               hit = "static:" + params.at("path");
               return HttpResponse::text(200, "file");
             });

  HttpRequest request;
  request.parsed = *parse_request_target("/dev/devA/crop");
  EXPECT_EQ(router.dispatch(request).status, 200);
  EXPECT_EQ(hit, "devA/crop");

  request.parsed = *parse_request_target("/static/css/site.css");
  router.dispatch(request);
  EXPECT_EQ(hit, "static:css/site.css");

  request.parsed = *parse_request_target("/");
  router.dispatch(request);
  EXPECT_EQ(hit, "root");
}

TEST(RouterTest, Distinguishes404From405) {
  Router router;
  router.add(Method::kPost, "/submit",
             [](const auto&, const auto&) { return HttpResponse::text(200, ""); });
  HttpRequest request;
  request.method = Method::kGet;
  request.parsed = *parse_request_target("/submit");
  EXPECT_EQ(router.dispatch(request).status, 405);
  request.parsed = *parse_request_target("/other");
  EXPECT_EQ(router.dispatch(request).status, 404);
}

TEST(RouterTest, RegistrationOrderIsPriority) {
  Router router;
  router.add(Method::kGet, "/a/:x", [](const auto&, const auto&) {
    return HttpResponse::text(200, "param");
  });
  router.add(Method::kGet, "/a/literal", [](const auto&, const auto&) {
    return HttpResponse::text(200, "literal");
  });
  HttpRequest request;
  request.parsed = *parse_request_target("/a/literal");
  EXPECT_EQ(router.dispatch(request).body, "param");  // first registered wins
}

TEST(RouterTest, RejectsMalformedPatterns) {
  Router router;
  auto noop = [](const auto&, const auto&) { return HttpResponse(); };
  EXPECT_THROW(router.add(Method::kGet, "no-slash", noop),
               std::invalid_argument);
  EXPECT_THROW(router.add(Method::kGet, "/a/:", noop), std::invalid_argument);
  EXPECT_THROW(router.add(Method::kGet, "/a/*", noop), std::invalid_argument);
  EXPECT_THROW(router.add(Method::kGet, "/a/*x/b", noop),
               std::invalid_argument);
}

TEST(TcpTest, RoundTripOverRealSockets) {
  TcpListener listener;
  ASSERT_TRUE(listener.listen(0).ok());
  const std::uint16_t port = listener.port();
  ASSERT_GT(port, 0);

  EventLoopHttpServer http(echo_handler, [](std::function<void()> job) {
    job();
    return true;
  });
  std::size_t accepted = 0;
  std::thread server_thread([&] { accepted = http.serve(listener); });

  auto client = tcp_connect(port);
  ASSERT_TRUE(client.ok());
  HttpRequest request;
  request.method = Method::kPost;
  request.target = "/tcp";
  request.body = "over the wire";
  request.headers.set("Connection", "close");
  ASSERT_TRUE(client.value()->write(request.to_wire()).ok());
  auto response = read_response(*client.value());
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().status, 200);
  EXPECT_EQ(response.value().body, "POST /tcp body=over the wire");
  client.value()->close();
  listener.close();
  server_thread.join();
  EXPECT_EQ(accepted, 1u);
}

}  // namespace
}  // namespace w5::net
