// A real W5 provider on a TCP port — poke it with curl.
//
//   ./build/examples/example_w5_server 8080 &
//   curl -c jar -X POST -d 'user=bob&password=pw123' http://127.0.0.1:8080/signup
//   curl -c jar -X POST -d 'user=bob&password=pw123' http://127.0.0.1:8080/login
//   curl -b jar -X POST -d '{"title":"hi"}' http://127.0.0.1:8080/data/photos/p1
//   curl -b jar http://127.0.0.1:8080/data/photos/p1
//   curl        http://127.0.0.1:8080/data/photos/p1     # 403: perimeter
//
// With no arguments it runs a self-test: serves one loopback request and
// exits (so the binary is CI-friendly).
#include <iostream>
#include <thread>

#include "apps/apps.h"
#include "core/gateway.h"
#include "core/provider.h"
#include "net/http_parser.h"
#include "net/tcp.h"

using w5::net::Method;

int main(int argc, char** argv) {
  w5::util::WallClock clock;
  w5::platform::Provider provider(w5::platform::ProviderConfig{}, clock);
  w5::apps::register_standard_apps(provider);

  const bool serve_forever = argc > 1;
  const std::uint16_t port =
      serve_forever ? static_cast<std::uint16_t>(std::atoi(argv[1])) : 0;

  w5::net::TcpListener listener;
  if (auto status = listener.listen(port); !status.ok()) {
    std::cerr << "listen failed: " << status.error().detail << "\n";
    return 1;
  }
  std::cout << "W5 provider listening on 127.0.0.1:" << listener.port()
            << "\n";

  if (serve_forever) {
    // Concurrent serving on the provider's epoll reactor.
    provider.serve(listener);
    return 0;
  }

  // Self-test mode: one request over real sockets, still via the reactor.
  std::thread server_thread([&] { provider.serve(listener); });
  auto client = w5::net::tcp_connect(listener.port());
  if (!client.ok()) {
    std::cerr << "connect failed\n";
    return 1;
  }
  w5::net::HttpRequest request;
  request.method = Method::kGet;
  request.target = "/stats";
  request.parsed = *w5::net::parse_request_target("/stats");
  request.headers.set("Connection", "close");
  using Response = w5::util::Result<w5::net::HttpResponse>;
  auto written = client.value()->write(request.to_wire());
  Response response = written.ok() ? w5::net::read_response(*client.value())
                                   : Response(written.error());
  client.value()->close();
  listener.close();  // the reactor notices and serve() returns
  server_thread.join();
  if (!response.ok()) {
    std::cerr << "self-test failed: " << response.error().code << "\n";
    return 1;
  }
  std::cout << "self-test GET /stats -> " << response.value().status << " "
            << response.value().body << "\n";
  return response.value().status == 200 ? 0 : 1;
}
