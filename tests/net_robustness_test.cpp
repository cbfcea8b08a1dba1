// Robustness over real TCP sockets (DESIGN.md §12): the provider's front
// door — ProviderConfig's deadlines and admission limit must reach the
// one serving engine, and its reaps and sheds must show in the counters
// /metrics exports — plus write timeouts on never-draining receivers,
// slow-but-live readers, read timeouts, and the listener error-path
// regressions (fd leaks, errno fidelity). The bare reactor's own cases
// live in net_event_loop_test.cpp.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <dirent.h>
#include <mutex>
#include <string>
#include <thread>

#include "core/provider.h"
#include "net/http_parser.h"
#include "net/tcp.h"
#include "util/clock.h"

namespace w5::net {
namespace {

using namespace std::chrono_literals;

// A provider serving one listener on its own thread.
class FrontDoor {
 public:
  explicit FrontDoor(platform::ProviderConfig config)
      : provider_(std::move(config), clock_) {
    EXPECT_TRUE(listener_.listen(0).ok());
    thread_ = std::thread([this] { provider_.serve(listener_); });
  }

  ~FrontDoor() {
    listener_.close();
    thread_.join();
  }

  platform::Provider& provider() { return provider_; }
  std::uint16_t port() const { return listener_.port(); }

  // GET /stats on a fresh connection: a request any provider answers.
  util::Result<HttpResponse> get_stats() {
    auto connection = tcp_connect(port());
    if (!connection.ok()) return connection.error();
    HttpRequest request;
    request.target = "/stats";
    request.headers.set("Connection", "close");
    if (auto written = connection.value()->write(request.to_wire());
        !written.ok())
      return written.error();
    return read_response(*connection.value());
  }

 private:
  util::WallClock clock_;
  platform::Provider provider_;
  TcpListener listener_;
  std::thread thread_;
};

platform::ProviderConfig with_robustness(ServerOptions options) {
  platform::ProviderConfig config;
  config.http_robustness = options;
  return config;
}

TEST(NetRobustness, SlowHeaderClientIsReapedWithin408) {
  FrontDoor door(with_robustness({.header_deadline_micros = 150'000,
                                  .write_timeout_micros = 500'000}));
  auto client = tcp_connect(door.port());
  ASSERT_TRUE(client.ok());
  // Half a request line, then silence: the provider must reap us with a
  // 408 rather than hold the connection forever.
  ASSERT_TRUE(client.value()->write("GET /slow HT").ok());
  const auto started = std::chrono::steady_clock::now();
  auto response = read_response(*client.value());
  const auto elapsed = std::chrono::steady_clock::now() - started;
  ASSERT_TRUE(response.ok()) << response.error().code;
  EXPECT_EQ(response.value().status, 408);
  EXPECT_EQ(response.value().headers.get("Connection"), "close");
  EXPECT_LT(elapsed, 2s);
  EXPECT_GE(door.provider().server_stats().reaped_total.load(), 1u);
  EXPECT_GE(door.provider().conn_stats().timeout_closes_total.load(), 1u);

  // The provider is free again: a well-formed request succeeds promptly.
  auto healthy = door.get_stats();
  ASSERT_TRUE(healthy.ok()) << healthy.error().code;
  EXPECT_EQ(healthy.value().status, 200);
}

TEST(NetRobustness, StalledBodyIsReaped) {
  FrontDoor door(with_robustness({.header_deadline_micros = 500'000,
                                  .body_deadline_micros = 150'000,
                                  .write_timeout_micros = 500'000}));
  auto client = tcp_connect(door.port());
  ASSERT_TRUE(client.ok());
  // Complete headers declaring a body that never arrives in full.
  ASSERT_TRUE(client.value()
                  ->write("POST /upload HTTP/1.1\r\nContent-Length: "
                          "1000\r\n\r\npartial")
                  .ok());
  auto response = read_response(*client.value());
  ASSERT_TRUE(response.ok()) << response.error().code;
  EXPECT_EQ(response.value().status, 408);
  EXPECT_GE(door.provider().server_stats().reaped_total.load(), 1u);
  EXPECT_GE(door.provider().server_stats().timeouts_total.load(), 1u);
}

TEST(NetRobustness, IdleKeepAliveConnectionIsClosedWithout408) {
  FrontDoor door(with_robustness({.header_deadline_micros = 100'000}));
  auto client = tcp_connect(door.port());
  ASSERT_TRUE(client.ok());
  // Send nothing at all. The idle connection is reaped silently: EOF,
  // no 408 (nothing was asked, nothing is owed).
  char buf[64];
  auto n = client.value()->read(buf, sizeof(buf));
  ASSERT_TRUE(n.ok()) << n.error().code;
  EXPECT_EQ(n.value(), 0u);  // clean EOF
  EXPECT_GE(door.provider().server_stats().reaped_total.load(), 1u);
}

TEST(NetRobustness, InlineDispatchStartsNoWorkerPool) {
  // The default config dispatches handlers inline on the reactor loop:
  // serving must not start the kPooled worker pool it never submits to.
  FrontDoor door(platform::ProviderConfig{});
  auto response = door.get_stats();
  ASSERT_TRUE(response.ok()) << response.error().code;
  EXPECT_EQ(response.value().status, 200);
  EXPECT_EQ(door.provider().pool_if_started(), nullptr);
}

TEST(NetRobustness, OverloadShedsWith503AndRetryAfter) {
  // Pooled dispatch on 1 worker with a queue of 1: once both are taken,
  // the next request is shed at dispatch with 503 + Retry-After.
  platform::ProviderConfig config;
  config.app_dispatch = platform::AppDispatch::kPooled;
  config.worker_threads = 1;
  config.max_queued_connections = 1;
  config.http_robustness.retry_after_seconds = 7;
  FrontDoor door(std::move(config));
  os::ThreadPool& pool = door.provider().worker_pool();

  std::mutex mutex;
  std::condition_variable cv;
  bool release = false;
  const auto blocker = [&] {
    std::unique_lock lock(mutex);
    cv.wait(lock, [&] { return release; });
  };
  // Occupy the worker first (wait until its job is actually *running*, so
  // the next job queues instead of racing for the same worker)...
  ASSERT_TRUE(pool.try_submit(blocker));
  for (int i = 0; i < 2000 && pool.active() < 1; ++i)
    std::this_thread::sleep_for(1ms);
  ASSERT_EQ(pool.active(), 1u);
  // ...then the queue.
  ASSERT_TRUE(pool.try_submit(blocker));
  ASSERT_EQ(pool.pending(), 1u);

  auto shed = door.get_stats();
  ASSERT_TRUE(shed.ok()) << shed.error().code;
  EXPECT_EQ(shed.value().status, 503);
  EXPECT_EQ(shed.value().headers.get("Retry-After"), "7");
  EXPECT_EQ(shed.value().headers.get("Connection"), "close");
  EXPECT_EQ(door.provider().server_stats().shed_total.load(), 1u);
  EXPECT_EQ(pool.jobs_rejected(), 1u);

  {
    std::lock_guard lock(mutex);
    release = true;
  }
  cv.notify_all();
  pool.drain();
  auto served = door.get_stats();  // admitted again once the pool drains
  ASSERT_TRUE(served.ok()) << served.error().code;
  EXPECT_EQ(served.value().status, 200);
}

// Open fds for this process — the leak detector for listener tests.
int open_fd_count() {
  int count = 0;
  DIR* dir = opendir("/proc/self/fd");
  if (dir == nullptr) return -1;
  while (readdir(dir) != nullptr) ++count;
  closedir(dir);
  return count;
}

TEST(NetRobustness, WriteTimeoutReapsNeverDrainingReceiver) {
  TcpListener listener;
  ASSERT_TRUE(listener.listen(0).ok());
  auto client = tcp_connect(listener.port());
  ASSERT_TRUE(client.ok());
  auto accepted = listener.accept();
  ASSERT_TRUE(accepted.ok());

  // The client never reads. A large enough write must overrun both
  // kernel buffers and then time out rather than block forever.
  accepted.value()->set_write_timeout(200'000);
  const std::string chunk(1 << 20, 'x');  // 1 MiB per write call
  util::Status last = util::ok_status();
  for (int i = 0; i < 64 && last.ok(); ++i)
    last = accepted.value()->write(chunk);
  ASSERT_FALSE(last.ok()) << "64 MiB fit in socket buffers?";
  EXPECT_EQ(last.error().code, "net.timeout");
  listener.close();
}

TEST(NetRobustness, SlowlyDrainedLargeWriteStillCompletes) {
  // The EAGAIN bugfix: a full send buffer with a *live* (slow) reader
  // must poll-and-continue, not fail with net.io.
  TcpListener listener;
  ASSERT_TRUE(listener.listen(0).ok());
  auto client = tcp_connect(listener.port());
  ASSERT_TRUE(client.ok());
  auto accepted = listener.accept();
  ASSERT_TRUE(accepted.ok());

  const std::size_t total = 8 << 20;  // well past any default buffer
  std::thread reader([&] {
    char buf[64 * 1024];
    std::size_t drained = 0;
    while (drained < total) {
      std::this_thread::sleep_for(1ms);  // deliberately sluggish
      auto n = client.value()->read(buf, sizeof(buf));
      if (!n.ok() || n.value() == 0) break;
      drained += n.value();
    }
    EXPECT_EQ(drained, total);
  });
  accepted.value()->set_write_timeout(5'000'000);  // generous, not infinite
  EXPECT_TRUE(accepted.value()->write(std::string(total, 'y')).ok());
  reader.join();
  listener.close();
}

TEST(NetRobustness, ListenFailurePathsLeakNoFds) {
  TcpListener occupant;
  ASSERT_TRUE(occupant.listen(0).ok());
  const std::uint16_t busy_port = occupant.port();

  const int before = open_fd_count();
  ASSERT_GT(before, 0);
  for (int i = 0; i < 20; ++i) {
    TcpListener contender;
    auto status = contender.listen(busy_port);
    ASSERT_FALSE(status.ok()) << "port " << busy_port << " double-bound";
    EXPECT_EQ(status.error().code, "net.io");
    // The errno text survives the cleanup close (the captured-before-
    // close regression): "bind: <reason>", not "bind: Success".
    EXPECT_NE(status.error().detail.find("bind"), std::string::npos);
    EXPECT_EQ(status.error().detail.find("Success"), std::string::npos);
  }
  EXPECT_EQ(open_fd_count(), before);

  // A listener that failed can retry on a free port with no leak...
  TcpListener retrying;
  ASSERT_FALSE(retrying.listen(busy_port).ok());
  ASSERT_TRUE(retrying.listen(0).ok());
  // ...and re-listening an already-listening listener must close the
  // old socket rather than leak it.
  const int mid = open_fd_count();
  ASSERT_TRUE(retrying.listen(0).ok());
  EXPECT_EQ(open_fd_count(), mid);
  retrying.close();
  occupant.close();
}

TEST(NetRobustness, ReadTimeoutOnQuietSocketIsDistinctError) {
  TcpListener listener;
  ASSERT_TRUE(listener.listen(0).ok());
  auto client = tcp_connect(listener.port());
  ASSERT_TRUE(client.ok());
  auto accepted = listener.accept();
  ASSERT_TRUE(accepted.ok());

  client.value()->set_read_timeout(50'000);
  char buf[16];
  auto n = client.value()->read(buf, sizeof(buf));
  ASSERT_FALSE(n.ok());
  EXPECT_EQ(n.error().code, "net.timeout");  // not net.io, not would_block

  // Clearing the timeout (0) restores blocking reads: data arrives.
  client.value()->set_read_timeout(0);
  ASSERT_TRUE(accepted.value()->write("late").ok());
  n = client.value()->read(buf, sizeof(buf));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(std::string(buf, n.value()), "late");
  listener.close();
}

}  // namespace
}  // namespace w5::net
