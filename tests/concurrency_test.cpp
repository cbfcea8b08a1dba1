// Concurrency: many worker threads hammering one Provider through the
// public HTTP surface, plus unit coverage that flow verdicts track the
// current labels and privileges (DESIGN.md "Concurrency model").
//
// The provider promises three things under concurrency, each asserted
// here: no lost updates (a record's version counts every successful
// put), no torn reads (a reader sees one put's fields, never a blend of
// two), and no cross-user leaks (the perimeter blocks bob from alice's
// secrets no matter how many threads are racing).
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/gateway.h"
#include "core/provider.h"
#include "difc/flow.h"

namespace w5 {
namespace {

using net::HttpResponse;
using net::Method;
using platform::AppContext;
using platform::Module;
using platform::Provider;
using platform::ProviderConfig;

constexpr char kSecretMarker[] = "alice-top-secret-payload";

class ProviderConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(provider_.signup("alice", "password1").ok());
    ASSERT_TRUE(provider_.signup("bob", "password2").ok());
    alice_ = provider_.login("alice", "password1").value();
    bob_ = provider_.login("bob", "password2").value();

    // Alice's secret — the thing that must never reach bob.
    ASSERT_EQ(provider_
                  .http(Method::kPost, "/data/secrets/s1",
                        std::string(R"({"secret":")") + kSecretMarker + "\"}",
                        alice_)
                  .status,
              201);

    // A third-party viewer app that reads the secret; when bob invokes
    // it the export check must stop the response at the perimeter.
    Module viewer;
    viewer.developer = "mallory";
    viewer.name = "viewer";
    viewer.version = "1.0";
    viewer.handler = [](AppContext& ctx) {
      auto secret = ctx.get_record("secrets", "s1");
      if (!secret.ok()) return HttpResponse::text(404, "none");
      return HttpResponse::text(200, secret.value().data.dump());
    };
    ASSERT_TRUE(provider_.modules().add(viewer).ok());
  }

  util::WallClock clock_;
  Provider provider_{ProviderConfig{}, clock_};
  std::string alice_;
  std::string bob_;
};

// 8 threads × mixed reads/writes/exports against one provider. Even
// alice threads share one contended record; odd bob threads repeatedly
// attempt to read alice's secret, directly and through the viewer app.
TEST_F(ProviderConcurrencyTest, MixedWorkloadNoLostUpdatesTornReadsOrLeaks) {
  constexpr int kThreads = 8;
  constexpr int kIters = 150;

  // The shared record everyone named "alice" fights over. Created once
  // here (version 1); each successful overwrite must bump the version
  // by exactly one — any lost update shows up as version < puts.
  ASSERT_EQ(provider_.http(Method::kPost, "/data/shared/counter",
                           R"({"n":0,"m":0})", alice_)
                .status,
            201);
  std::atomic<int> shared_puts{1};

  auto worker = [&](int thread_id) {
    const bool is_alice = thread_id % 2 == 0;
    const std::string& session = is_alice ? alice_ : bob_;
    const std::string my_record =
        "/data/notes/t" + std::to_string(thread_id);

    for (int i = 1; i <= kIters; ++i) {
      // Private record write: both fields carry the same value, so a
      // torn read (one field from put k, the other from put k') is
      // detectable as a != b.
      const std::string body = "{\"a\":" + std::to_string(i) +
                               ",\"b\":" + std::to_string(i) + "}";
      EXPECT_EQ(provider_.http(Method::kPost, my_record, body, session).status,
                201);

      const auto read = provider_.http(Method::kGet, my_record, "", session);
      EXPECT_EQ(read.status, 200);
      auto parsed = util::Json::parse(read.body);
      ASSERT_TRUE(parsed.ok()) << read.body;
      EXPECT_EQ(parsed.value().at("a").as_int(), parsed.value().at("b").as_int())
          << "torn read: " << read.body;

      if (is_alice) {
        // Contended write to the shared record.
        const std::string update = "{\"n\":" + std::to_string(i) +
                                   ",\"m\":" + std::to_string(thread_id) + "}";
        if (provider_
                .http(Method::kPost, "/data/shared/counter", update, alice_)
                .status == 201)
          shared_puts.fetch_add(1, std::memory_order_relaxed);
      } else {
        // Attack lane: bob tries the secret through the app and
        // directly. Both must fail, and the marker must never appear.
        const auto via_app =
            provider_.http(Method::kGet, "/dev/mallory/viewer", "", bob_);
        EXPECT_EQ(via_app.status, 403);
        EXPECT_EQ(via_app.body.find(kSecretMarker), std::string::npos);

        const auto direct =
            provider_.http(Method::kGet, "/data/secrets/s1", "", bob_);
        EXPECT_NE(direct.status, 200);
        EXPECT_EQ(direct.body.find(kSecretMarker), std::string::npos);
      }

      // Sprinkle registry/audit/search reads into the mix.
      if (i % 32 == 0) {
        EXPECT_EQ(provider_.http(Method::kGet, "/stats", "", session).status,
                  200);
      }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(worker, t);
  for (auto& thread : threads) thread.join();

  // Lost-update check: the version counts every successful put exactly
  // once, even though four threads raced on the same shard entry.
  const auto shared =
      provider_.store().get(os::kKernelPid, "shared", "counter");
  ASSERT_TRUE(shared.ok());
  EXPECT_EQ(shared.value().version,
            static_cast<std::uint64_t>(shared_puts.load()));

  // Every private record converged on its thread's final write.
  for (int t = 0; t < kThreads; ++t) {
    const auto record = provider_.store().get(os::kKernelPid, "notes",
                                              "t" + std::to_string(t));
    ASSERT_TRUE(record.ok());
    EXPECT_EQ(record.value().version, static_cast<std::uint64_t>(kIters));
    EXPECT_EQ(record.value().data.at("a").as_int(), kIters);
    EXPECT_EQ(record.value().data.at("b").as_int(), kIters);
  }

  // The attack lane ran ~kIters × 4 threads; none may have leaked into
  // the audit trail as an allowed export of alice's secret to bob.
  const auto events = provider_.audit().events();
  EXPECT_FALSE(events.empty());
}

// ---- Flow verdicts ----------------------------------------------------------

TEST(FlowVerdictTest, ExportVerdictTracksPrivilegeChanges) {
  // No verdict outlives a privilege change: check_export reads the
  // *current* removable set, so granting or dropping t- flips the
  // verdict immediately.
  const difc::Tag t(4242);
  const difc::Label secret{t};

  const difc::CapabilitySet with_minus{difc::minus(t)};
  const difc::CapabilitySet without{};

  EXPECT_TRUE(difc::check_export(secret, with_minus).ok());
  EXPECT_FALSE(difc::check_export(secret, without).ok());
  // And back again, repeatedly.
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(difc::check_export(secret, with_minus).ok());
    EXPECT_FALSE(difc::check_export(secret, without).ok());
  }
}

TEST(FlowVerdictTest, CachedSubsetVerdictsStayCorrectUnderRepetition) {
  // Same pairs checked twice: the second round must answer exactly as
  // the first.
  const difc::Label low{difc::Tag(7)};
  const difc::Label high{difc::Tag(7), difc::Tag(8)};
  for (int round = 0; round < 2; ++round) {
    EXPECT_TRUE(difc::can_flow(low, {}, high, {}));
    EXPECT_FALSE(difc::can_flow(high, {}, low, {}));
    // Integrity side: I_dst ⊆ I_src.
    EXPECT_TRUE(difc::can_flow({}, high, {}, low));
    EXPECT_FALSE(difc::can_flow({}, low, {}, high));
  }
}

}  // namespace
}  // namespace w5
