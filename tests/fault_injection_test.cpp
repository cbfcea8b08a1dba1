// The deterministic fault-injection harness (DESIGN.md §12): scripted
// and seeded fault schedules, backoff, the per-peer circuit breaker,
// the federation retry loop, and a seeded chaos sweep over the in-memory
// HTTP driver — every suite here replays identically for a fixed seed.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/provider.h"
#include "fed/node.h"
#include "net/backoff.h"
#include "net/circuit_breaker.h"
#include "net/fault.h"
#include "net/http_session.h"
#include "net/transport.h"
#include "util/clock.h"

namespace w5::net {
namespace {

// Records virtual delays instead of sleeping: chaos runs finish in
// milliseconds of real time no matter how much virtual waiting they do.
SleepFn recording_sleep(std::vector<util::Micros>& out) {
  return [&out](util::Micros delay) { out.push_back(delay); };
}

TEST(FaultInjectionSchedule, ScriptedActionsConsumeInOrderThenRunClean) {
  FaultSchedule schedule = FaultSchedule::scripted(
      {FaultAction{FaultKind::kShortRead, 0, 3},
       FaultAction{FaultKind::kDrop}},
      {FaultAction{FaultKind::kReset}});
  EXPECT_EQ(schedule.next_read().kind, FaultKind::kShortRead);
  EXPECT_EQ(schedule.next_read().kind, FaultKind::kDrop);
  EXPECT_EQ(schedule.next_read().kind, FaultKind::kNone);  // exhausted
  EXPECT_EQ(schedule.next_write().kind, FaultKind::kReset);
  EXPECT_EQ(schedule.next_write().kind, FaultKind::kNone);
}

TEST(FaultInjectionSchedule, SeededDrawsReplayExactlyForSameSeed) {
  FaultSchedule::Profile profile;
  profile.delay_probability = 0.2;
  profile.short_read_probability = 0.2;
  profile.drop_probability = 0.1;
  profile.reset_probability = 0.1;
  FaultSchedule first = FaultSchedule::seeded(42, profile);
  FaultSchedule second = FaultSchedule::seeded(42, profile);
  for (int i = 0; i < 500; ++i) {
    const FaultAction a = first.next_read();
    const FaultAction b = second.next_read();
    EXPECT_EQ(a.kind, b.kind) << "read op " << i;
    EXPECT_EQ(a.delay_micros, b.delay_micros) << "read op " << i;
    EXPECT_EQ(a.bytes, b.bytes) << "read op " << i;
    EXPECT_EQ(first.next_write().kind, second.next_write().kind)
        << "write op " << i;
  }
}

TEST(FaultInjectionSchedule, DifferentSeedsDiverge) {
  FaultSchedule::Profile profile;
  profile.drop_probability = 0.5;
  FaultSchedule a = FaultSchedule::seeded(1, profile);
  FaultSchedule b = FaultSchedule::seeded(2, profile);
  int differing = 0;
  for (int i = 0; i < 200; ++i)
    if (a.next_read().kind != b.next_read().kind) ++differing;
  EXPECT_GT(differing, 0);
}

TEST(FaultInjectionConnection, ShortReadCapsBytesPerCall) {
  auto [client, server] = make_pipe();
  ASSERT_TRUE(client->write("hello world").ok());
  FaultyConnection faulty(
      std::move(server),
      FaultSchedule::scripted({FaultAction{FaultKind::kShortRead, 0, 4}}, {}));
  char buf[64];
  auto n = faulty.read(buf, sizeof(buf));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 4u);  // capped by the injected budget
  n = faulty.read(buf, sizeof(buf));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(std::string(buf, n.value()), "o world");  // clean afterwards
}

TEST(FaultInjectionConnection, DropAndResetSurfaceDistinctErrors) {
  {
    auto [client, server] = make_pipe();
    FaultyConnection faulty(
        std::move(server),
        FaultSchedule::scripted({FaultAction{FaultKind::kDrop}}, {}));
    char buf[8];
    EXPECT_EQ(faulty.read(buf, sizeof(buf)).error().code, "net.timeout");
  }
  {
    auto [client, server] = make_pipe();
    FaultStats stats;
    FaultyConnection faulty(
        std::move(server),
        FaultSchedule::scripted({FaultAction{FaultKind::kReset}}, {}),
        no_sleep(), &stats);
    char buf[8];
    EXPECT_EQ(faulty.read(buf, sizeof(buf)).error().code, "net.reset");
    EXPECT_TRUE(faulty.closed());
    EXPECT_EQ(stats.resets.load(), 1u);
  }
}

TEST(FaultInjectionConnection, PartialWriteDeliversPrefixThenResets) {
  auto [client, server] = make_pipe();
  FaultyConnection faulty(
      std::move(client),
      FaultSchedule::scripted({},
                              {FaultAction{FaultKind::kPartialWrite, 0, 5}}));
  EXPECT_EQ(faulty.write("abcdefghij").error().code, "net.reset");
  auto delivered = server->read_available();
  ASSERT_TRUE(delivered.ok());
  EXPECT_EQ(delivered.value(), "abcde");  // the prefix hit the wire
}

TEST(FaultInjectionConnection, DelayGoesThroughInjectedSleeper) {
  std::vector<util::Micros> slept;
  auto [client, server] = make_pipe();
  ASSERT_TRUE(client->write("x").ok());
  FaultyConnection faulty(
      std::move(server),
      FaultSchedule::scripted({FaultAction{FaultKind::kDelay, 1234}}, {}),
      recording_sleep(slept));
  char buf[8];
  ASSERT_TRUE(faulty.read(buf, sizeof(buf)).ok());
  ASSERT_EQ(slept.size(), 1u);
  EXPECT_EQ(slept[0], 1234);
}

TEST(FaultInjectionBackoff, DelaysGrowExponentiallyWithinJitterBounds) {
  RetryPolicy policy;
  policy.max_attempts = 6;
  policy.initial_backoff = 1000;
  policy.multiplier = 2.0;
  policy.max_backoff = 1'000'000;
  policy.jitter = 0.2;
  Backoff backoff(policy);
  util::Micros expected = policy.initial_backoff;
  for (int attempt = 1; attempt < policy.max_attempts; ++attempt) {
    const util::Micros delay = backoff.next_delay();
    EXPECT_GE(delay, static_cast<util::Micros>(expected * 0.8 - 1))
        << "attempt " << attempt;
    EXPECT_LE(delay, static_cast<util::Micros>(expected * 1.2 + 1))
        << "attempt " << attempt;
    expected = std::min<util::Micros>(
        static_cast<util::Micros>(expected * policy.multiplier),
        policy.max_backoff);
  }
  EXPECT_EQ(backoff.next_delay(), 0);  // budget used up
  EXPECT_TRUE(backoff.exhausted());
}

TEST(FaultInjectionBackoff, SameSeedSameDelaySequence) {
  RetryPolicy policy;
  policy.max_attempts = 5;
  policy.seed = 99;
  Backoff a(policy);
  Backoff b(policy);
  for (int i = 0; i < policy.max_attempts; ++i)
    EXPECT_EQ(a.next_delay(), b.next_delay()) << "attempt " << i;
}

TEST(FaultInjectionBackoff, RetryableErrorsAreTransportLevelOnly) {
  EXPECT_TRUE(retryable_error(util::Error{"net.io", ""}));
  EXPECT_TRUE(retryable_error(util::Error{"net.timeout", ""}));
  EXPECT_TRUE(retryable_error(util::Error{"net.reset", ""}));
  EXPECT_TRUE(retryable_error(util::Error{"net.unreachable", ""}));
  EXPECT_TRUE(retryable_error(util::Error{"http.incomplete", ""}));
  EXPECT_FALSE(retryable_error(util::Error{"http.parse", ""}));
  EXPECT_FALSE(retryable_error(util::Error{"fed.mirror_unauthorized", ""}));
  EXPECT_FALSE(retryable_error(util::Error{"net.closed", ""}));
}

TEST(FaultInjectionBreaker, OpensAfterThresholdAndFailsFast) {
  util::SimClock clock;
  CircuitBreaker breaker(clock, {.failure_threshold = 3,
                                 .open_cooldown = 1'000'000,
                                 .half_open_probes = 1});
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(breaker.allow());
    breaker.record_failure();
  }
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(breaker.allow());  // fails fast, no probe
  EXPECT_EQ(breaker.rejected_total(), 1u);
}

TEST(FaultInjectionBreaker, HalfOpenProbeRecloseOnSuccess) {
  util::SimClock clock;
  CircuitBreaker breaker(clock, {.failure_threshold = 1,
                                 .open_cooldown = 1'000'000,
                                 .half_open_probes = 1});
  ASSERT_TRUE(breaker.allow());
  breaker.record_failure();
  ASSERT_EQ(breaker.state(), CircuitBreaker::State::kOpen);

  clock.advance(999'999);
  EXPECT_FALSE(breaker.allow());  // cooldown not yet elapsed
  clock.advance(1);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_TRUE(breaker.allow());   // the probe slot
  EXPECT_FALSE(breaker.allow());  // only one probe allowed
  breaker.record_success();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_EQ(breaker.consecutive_failures(), 0);
}

TEST(FaultInjectionBreaker, HalfOpenProbeReopensOnFailure) {
  util::SimClock clock;
  CircuitBreaker breaker(clock, {.failure_threshold = 1,
                                 .open_cooldown = 500'000,
                                 .half_open_probes = 1});
  ASSERT_TRUE(breaker.allow());
  breaker.record_failure();
  clock.advance(500'000);
  ASSERT_TRUE(breaker.allow());  // half-open probe
  breaker.record_failure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(breaker.allow());  // cooldown restarted
  clock.advance(500'000);
  EXPECT_TRUE(breaker.allow());
}

// ---- Seeded chaos sweep over the in-memory HTTP driver --------------------

struct ChaosTally {
  int handled = 0;
  std::map<std::string, int> errors;  // error code → count
  std::uint64_t faults = 0;
  util::Micros virtual_sleep = 0;

  bool operator==(const ChaosTally& other) const {
    return handled == other.handled && errors == other.errors &&
           faults == other.faults && virtual_sleep == other.virtual_sleep;
  }
};

// Pushes `requests` well-formed requests through serve_inline (the
// federation wire's driver of HttpSession), one faulty pipe each, faults
// drawn from a per-connection seed. Fully virtual: no real sleeping, no
// real sockets, so the tally is a pure function of (base_seed, profile).
ChaosTally chaos_run(std::uint64_t base_seed, int requests) {
  FaultSchedule::Profile profile;
  profile.delay_probability = 0.05;
  profile.short_read_probability = 0.10;
  profile.partial_write_probability = 0.03;
  profile.drop_probability = 0.04;
  profile.reset_probability = 0.03;

  ChaosTally tally;
  FaultStats faults;
  const ServerHandler echo = [](const HttpRequest& request) {
    return HttpResponse::text(200, "echo:" + request.body);
  };
  for (int i = 0; i < requests; ++i) {
    auto [client, server] = make_pipe();
    HttpRequest request;
    request.method = Method::kPost;
    request.target = "/chaos";
    request.body = "payload-" + std::to_string(i);
    request.headers.set("Connection", "close");
    EXPECT_TRUE(client->write(request.to_wire()).ok()) << i;
    FaultyConnection faulty(
        std::move(server),
        FaultSchedule::seeded(base_seed + static_cast<std::uint64_t>(i),
                              profile),
        [&tally](util::Micros delay) { tally.virtual_sleep += delay; },
        &faults);
    auto handled = serve_inline(faulty, echo);
    if (handled.ok() && handled.value() > 0) {
      ++tally.handled;
    } else if (!handled.ok()) {
      ++tally.errors[handled.error().code];
    }
  }
  tally.faults = faults.total();
  return tally;
}

TEST(FaultInjectionChaos, SweepIsDeterministicForFixedSeed) {
  const ChaosTally first = chaos_run(0xC4A05, 200);
  const ChaosTally second = chaos_run(0xC4A05, 200);
  EXPECT_TRUE(first == second);

  // The profile injects ~25% per-op fault probability: a healthy run
  // still serves most requests, and at least some faults actually fired.
  EXPECT_GT(first.handled, 100);
  EXPECT_GT(first.faults, 0u);
  int errored = 0;
  for (const auto& [code, n] : first.errors) errored += n;
  EXPECT_EQ(first.handled + errored, 200);
  EXPECT_GT(errored, 0);
}

TEST(FaultInjectionChaos, DifferentSeedsProduceDifferentRuns) {
  const ChaosTally a = chaos_run(1, 200);
  const ChaosTally b = chaos_run(2, 200);
  EXPECT_FALSE(a == b);
}

// ---- Federation: retry + circuit breaker over an injected-fault wire -------

class FaultInjectionFed : public ::testing::Test {
 protected:
  FaultInjectionFed()
      : provider_a_(platform::ProviderConfig{.name = "providerA"}, clock_),
        provider_b_(platform::ProviderConfig{.name = "providerB"}, clock_),
        node_a_("providerA", provider_a_, network_),
        node_b_("providerB", provider_b_, network_) {}

  void SetUp() override {
    ASSERT_TRUE(provider_a_.signup("bob", "pwd").ok());
    ASSERT_TRUE(provider_b_.signup("bob", "pwd").ok());
    node_a_.mirrors().authorize("bob", "providerB");
    node_b_.mirrors().authorize("bob", "providerA");
    util::Json photo;
    photo["title"] = "sunset";
    ASSERT_TRUE(node_a_.put_user_record("bob", "photos", "p1", photo).ok());
  }

  // Decorator that resets the first `failures` dialed connections on
  // their first write, then passes connections through untouched.
  void fail_first_dials(int failures) {
    auto remaining = std::make_shared<int>(failures);
    node_b_.set_connection_decorator(
        [remaining](const std::string&, std::unique_ptr<Connection> inner)
            -> std::unique_ptr<Connection> {
          if (*remaining > 0) {
            --*remaining;
            return std::make_unique<FaultyConnection>(
                std::move(inner),
                FaultSchedule::scripted({},
                                        {FaultAction{FaultKind::kReset}}),
                no_sleep());
          }
          return inner;
        });
  }

  util::SimClock clock_;
  net::InMemoryNetwork network_;
  platform::Provider provider_a_;
  platform::Provider provider_b_;
  fed::Node node_a_;
  fed::Node node_b_;
};

TEST_F(FaultInjectionFed, SyncRetriesTransientFaultsAndSucceeds) {
  fail_first_dials(2);  // attempts 1 and 2 reset; attempt 3 is clean
  node_b_.set_retry_policy(RetryPolicy{.max_attempts = 3});
  auto stats = node_b_.sync_from("providerA");
  ASSERT_TRUE(stats.ok()) << stats.error().code;
  EXPECT_EQ(stats.value().applied, 1u);
  EXPECT_EQ(node_b_.breaker_for("providerA").state(),
            CircuitBreaker::State::kClosed);
}

TEST_F(FaultInjectionFed, BreakerOpensAfterRepeatedSyncFailuresThenRecovers) {
  node_b_.set_retry_policy(RetryPolicy{.max_attempts = 1});
  fail_first_dials(1000);  // effectively: the peer is down
  for (int i = 0; i < 3; ++i) {
    auto stats = node_b_.sync_from("providerA");
    ASSERT_FALSE(stats.ok());
    EXPECT_EQ(stats.error().code, "net.reset") << i;
  }
  EXPECT_EQ(node_b_.breaker_for("providerA").state(),
            CircuitBreaker::State::kOpen);

  // While open: fail fast without dialing.
  auto rejected = node_b_.sync_from("providerA");
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.error().code, "fed.circuit_open");

  // Breaker state is visible at /metrics (2 = open).
  if (util::kTelemetryEnabled) {
    EXPECT_EQ(provider_b_.metrics()
                  .gauge("w5_fed_breaker_state{peer=\"providerA\"}")
                  .value(),
              2);
  }

  // After the cooldown the half-open probe goes through; the wire is
  // healthy again, so one successful sync re-closes the breaker.
  fail_first_dials(0);
  clock_.advance(1'000'000);
  auto recovered = node_b_.sync_from("providerA");
  ASSERT_TRUE(recovered.ok()) << recovered.error().code;
  EXPECT_EQ(recovered.value().applied, 1u);
  EXPECT_EQ(node_b_.breaker_for("providerA").state(),
            CircuitBreaker::State::kClosed);
  EXPECT_EQ(provider_b_.metrics()
                .gauge("w5_fed_breaker_state{peer=\"providerA\"}")
                .value(),
            0);
}

TEST_F(FaultInjectionFed, StatuszNamesAnOpenBreakerOpen) {
  if (!util::kTelemetryEnabled) return;  // statusz scrapes the state gauge
  node_b_.set_retry_policy(RetryPolicy{.max_attempts = 1});
  fail_first_dials(1000);
  for (int i = 0; i < 3; ++i) ASSERT_FALSE(node_b_.sync_from("providerA").ok());
  ASSERT_EQ(node_b_.breaker_for("providerA").state(),
            CircuitBreaker::State::kOpen);

  const auto response =
      provider_b_.http(Method::kGet, "/debug/statusz", "", "");
  ASSERT_EQ(response.status, 200);
  const auto statusz = util::Json::parse(response.body);
  ASSERT_TRUE(statusz.ok());
  EXPECT_EQ(statusz.value().at("fed_breakers").at("providerA").as_string(),
            "open");
}

}  // namespace
}  // namespace w5::net
