// Full-stack integration over real TCP sockets: browser-equivalent client
// speaks HTTP/1.1 to a provider served by the TCP listener, exercising
// parse → auth → app → perimeter → serialize end to end, on the epoll
// reactor (DESIGN.md §15) with its default inline dispatch.
#include <gtest/gtest.h>

#include <thread>

#include "apps/apps.h"
#include "core/gateway.h"
#include "core/provider.h"
#include "net/http_parser.h"
#include "net/tcp.h"

namespace w5 {
namespace {

using net::HttpRequest;
using net::HttpResponse;
using net::Method;

class TcpEndToEnd : public ::testing::Test {
 protected:
  void SetUp() override {
    provider_ = std::make_unique<platform::Provider>(
        platform::ProviderConfig{}, clock_);
    apps::register_standard_apps(*provider_);
    ASSERT_TRUE(listener_.listen(0).ok());
    server_thread_ = std::thread([this] { provider_->serve(listener_); });
  }

  void TearDown() override {
    listener_.close();  // the reactor notices and serve() returns
    server_thread_.join();
  }

  std::uint16_t port() const { return listener_.port(); }

  // One browser-style request over a fresh connection.
  HttpResponse roundtrip(Method method, const std::string& target,
                         const std::string& body = {},
                         const std::string& cookie = {}) {
    auto connection = net::tcp_connect(port());
    EXPECT_TRUE(connection.ok());
    HttpRequest request;
    request.method = method;
    request.target = target;
    request.body = body;
    request.headers.set("Connection", "close");
    if (!cookie.empty()) request.headers.set("Cookie", cookie);
    EXPECT_TRUE(connection.value()->write(request.to_wire()).ok());
    auto response = net::read_response(*connection.value());
    EXPECT_TRUE(response.ok()) << response.ok();
    return response.ok() ? response.value() : HttpResponse{};
  }

  util::WallClock clock_;
  std::unique_ptr<platform::Provider> provider_;
  net::TcpListener listener_;
  std::thread server_thread_;
};

TEST_F(TcpEndToEnd, BrowserSessionOverRealSockets) {
  // Sign up + log in; lift the cookie from Set-Cookie like a browser.
  EXPECT_EQ(roundtrip(Method::kPost, "/signup",
                      "user=bob&password=hunter2").status,
            201);
  const auto login =
      roundtrip(Method::kPost, "/login", "user=bob&password=hunter2");
  ASSERT_EQ(login.status, 200);
  const std::string set_cookie =
      login.headers.get("Set-Cookie").value_or("");
  ASSERT_TRUE(set_cookie.starts_with("w5session="));
  const std::string cookie =
      set_cookie.substr(0, set_cookie.find(';'));

  // Upload, then view through an app, authenticated by cookie only.
  EXPECT_EQ(roundtrip(Method::kPost, "/data/photos/p1",
                      R"({"title":"over tcp"})", cookie).status,
            201);
  const auto view = roundtrip(
      Method::kGet, "/dev/photoco/photos/view?id=p1", "", cookie);
  EXPECT_EQ(view.status, 200) << view.body;
  EXPECT_NE(view.body.find("over tcp"), std::string::npos);
  EXPECT_EQ(view.headers.get("X-W5-Label"), "sec(bob)");

  // Unauthenticated request to the same URL: perimeter says no.
  const auto blocked =
      roundtrip(Method::kGet, "/dev/photoco/photos/view?id=p1");
  EXPECT_EQ(blocked.status, 403);
  EXPECT_EQ(blocked.body.find("over tcp"), std::string::npos);
}

TEST_F(TcpEndToEnd, MalformedWireBytesGet400) {
  auto connection = net::tcp_connect(port());
  ASSERT_TRUE(connection.ok());
  ASSERT_TRUE(connection.value()->write("GARBAGE\r\n\r\n").ok());
  auto response = net::read_response(*connection.value());
  ASSERT_TRUE(response.ok()) << response.error().code;
  EXPECT_EQ(response.value().status, 400);
}

TEST(TcpEndToEndDispatch, PooledAppDispatchServesThroughWorkerPool) {
  // The reactor's non-default dispatch policy: handlers on the worker
  // pool, responses returning through the completion mailbox.
  util::WallClock clock;
  platform::ProviderConfig config;
  config.app_dispatch = platform::AppDispatch::kPooled;
  platform::Provider provider(std::move(config), clock);
  apps::register_standard_apps(provider);
  net::TcpListener listener;
  ASSERT_TRUE(listener.listen(0).ok());
  std::thread server_thread([&] { provider.serve(listener); });

  auto connection = net::tcp_connect(listener.port());
  ASSERT_TRUE(connection.ok());
  HttpRequest request;
  request.method = Method::kGet;
  request.target = "/stats";
  request.headers.set("Connection", "close");
  ASSERT_TRUE(connection.value()->write(request.to_wire()).ok());
  auto response = net::read_response(*connection.value());
  ASSERT_TRUE(response.ok()) << response.error().code;
  EXPECT_EQ(response.value().status, 200);

  listener.close();
  server_thread.join();
}

TEST_F(TcpEndToEnd, KeepAliveSessionReusesOneConnection) {
  // Several requests over one connection: framing, keep-alive, and the
  // gateway's session handling all hold on a reused socket.
  auto connection = net::tcp_connect(port());
  ASSERT_TRUE(connection.ok());
  for (int i = 0; i < 3; ++i) {
    HttpRequest request;
    request.method = Method::kGet;
    request.target = "/stats";
    ASSERT_TRUE(connection.value()->write(request.to_wire()).ok());
    auto response = net::read_response(*connection.value());
    ASSERT_TRUE(response.ok()) << response.error().code;
    EXPECT_EQ(response.value().status, 200);
  }
}

}  // namespace
}  // namespace w5
