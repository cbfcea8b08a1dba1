// E9 — mirror sync between two providers (§3.3): records/s by batch
// size, incremental-sync cost, and conflict-resolution overhead.
//
// E16 — federated metasearch (DESIGN.md §18): fan-out latency vs peer
// count (BM_FanoutLatency) and cutoff effectiveness (BM_CutoffPartial vs
// BM_CutoffFullWait: with one peer stalling 20 ms, the deadline-budgeted
// partial page must beat the full-wait p99 by the factor
// scripts/bench_json.sh federation gates on).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "fed/metasearch.h"
#include "fed/node.h"
#include "net/fault.h"

namespace {

using w5::fed::Node;
using w5::platform::Provider;
using w5::platform::ProviderConfig;

struct FedFixture {
  w5::util::SimClock clock;
  w5::net::InMemoryNetwork network;
  Provider provider_a{ProviderConfig{.name = "providerA"}, clock};
  Provider provider_b{ProviderConfig{.name = "providerB"}, clock};
  Node node_a{"providerA", provider_a, network};
  Node node_b{"providerB", provider_b, network};

  FedFixture() {
    (void)provider_a.signup("bob", "password");
    (void)provider_b.signup("bob", "password");
    node_a.mirrors().authorize("bob", "providerB");
    node_b.mirrors().authorize("bob", "providerA");
  }

  void seed(std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      w5::util::Json data;
      data["title"] = "photo " + std::to_string(i);
      (void)node_a.put_user_record("bob", "photos", "p" + std::to_string(i),
                                   data);
    }
  }
};

// Full first sync of n records.
void BM_InitialSync(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    auto fx = std::make_unique<FedFixture>();
    fx->seed(n);
    state.ResumeTiming();
    auto stats = fx->node_b.sync_from("providerA");
    if (!stats.ok() || stats.value().applied != n)
      state.SkipWithError("sync failed");
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
  state.SetLabel("records=" + std::to_string(n));
}
BENCHMARK(BM_InitialSync)->Arg(10)->Arg(100)->Arg(1000)
    ->Unit(benchmark::kMillisecond);

// Steady-state no-op sync (everything already replicated).
void BM_IdempotentResync(benchmark::State& state) {
  FedFixture fx;
  fx.seed(500);
  (void)fx.node_b.sync_from("providerA");
  for (auto _ : state) {
    auto stats = fx.node_b.sync_from("providerA");
    if (!stats.ok() || stats.value().applied != 0)
      state.SkipWithError("unexpected application");
  }
  state.SetLabel("records=500, all current");
}
BENCHMARK(BM_IdempotentResync)->Unit(benchmark::kMillisecond);

// Incremental: one fresh edit among 500 replicated records.
void BM_IncrementalSync(benchmark::State& state) {
  FedFixture fx;
  fx.seed(500);
  (void)fx.node_b.sync_from("providerA");
  std::size_t round = 0;
  for (auto _ : state) {
    state.PauseTiming();
    w5::util::Json data;
    data["title"] = "edit " + std::to_string(round++);
    (void)fx.node_a.put_user_record("bob", "photos", "p0", data);
    state.ResumeTiming();
    auto stats = fx.node_b.sync_from("providerA");
    if (!stats.ok() || stats.value().applied != 1)
      state.SkipWithError("incremental sync failed");
  }
}
BENCHMARK(BM_IncrementalSync)->Unit(benchmark::kMillisecond);

// Conflict resolution: both sides edit the same record every round.
void BM_ConflictResolution(benchmark::State& state) {
  FedFixture fx;
  fx.seed(10);
  (void)fx.node_b.sync_from("providerA");
  std::size_t conflicts = 0;
  std::size_t round = 0;
  for (auto _ : state) {
    state.PauseTiming();
    fx.clock.advance(10);
    w5::util::Json edit_a;
    edit_a["title"] = "A" + std::to_string(round);
    (void)fx.node_a.put_user_record("bob", "photos", "p0", edit_a);
    fx.clock.advance(10);
    w5::util::Json edit_b;
    edit_b["title"] = "B" + std::to_string(round++);
    (void)fx.node_b.put_user_record("bob", "photos", "p0", edit_b);
    state.ResumeTiming();
    auto stats_b = fx.node_b.sync_from("providerA");
    auto stats_a = fx.node_a.sync_from("providerB");
    if (stats_b.ok()) conflicts += stats_b.value().conflicts;
    if (stats_a.ok()) conflicts += stats_a.value().conflicts;
  }
  state.counters["conflicts_resolved"] = static_cast<double>(conflicts);
}
BENCHMARK(BM_ConflictResolution)->Unit(benchmark::kMillisecond);

// ---- E16: the metasearch fan-out --------------------------------------------

// One home provider peered with `peers` others, each holding 20 of bob's
// photos. Declaration order matters: the Metasearch member is last, so
// it is destroyed (and its straggler hop threads joined) before the
// nodes and the network it dials through.
struct MetaFixture {
  w5::util::SimClock clock;
  w5::net::InMemoryNetwork network;
  Provider home{ProviderConfig{.name = "home"}, clock};
  Node home_node{"home", home, network};
  std::vector<std::unique_ptr<Provider>> peer_providers;
  std::vector<std::unique_ptr<Node>> peer_nodes;
  std::unique_ptr<w5::fed::Metasearch> meta;

  explicit MetaFixture(std::size_t peers,
                       w5::fed::MetasearchConfig config = {}) {
    (void)home.signup("bob", "password");
    seed(home_node, "h");
    for (std::size_t i = 0; i < peers; ++i) {
      const std::string name = "peer" + std::to_string(i);
      peer_providers.push_back(
          std::make_unique<Provider>(ProviderConfig{.name = name}, clock));
      peer_nodes.push_back(
          std::make_unique<Node>(name, *peer_providers.back(), network));
      (void)peer_providers.back()->signup("bob", "password");
      home_node.mirrors().authorize("bob", name);
      peer_nodes.back()->mirrors().authorize("bob", "home");
      seed(*peer_nodes.back(), "p" + std::to_string(i) + "-");
    }
    meta = std::make_unique<w5::fed::Metasearch>(home_node, config);
  }

  static void seed(Node& node, const std::string& prefix) {
    for (int i = 0; i < 20; ++i) {
      w5::util::Json data;
      data["title"] = "photo " + std::to_string(i);
      (void)node.put_user_record("bob", "photos", prefix + std::to_string(i),
                                 data);
    }
  }

  static w5::platform::FederatedQuery query() {
    w5::platform::FederatedQuery q;
    q.collection = "photos";
    q.limit = 50;
    return q;
  }
};

void report_p99(benchmark::State& state,
                std::vector<std::uint64_t>& latencies_us) {
  std::sort(latencies_us.begin(), latencies_us.end());
  state.counters["p99_us"] =
      latencies_us.empty()
          ? 0.0
          : static_cast<double>(latencies_us[latencies_us.size() * 99 / 100]);
}

// Fan-out latency vs peer count: every peer healthy, merged window of
// (peers + 1) * 20 records per search.
void BM_FanoutLatency(benchmark::State& state) {
  const auto peers = static_cast<std::size_t>(state.range(0));
  MetaFixture fx(peers);
  std::vector<std::uint64_t> latencies_us;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    auto page = fx.meta->search(w5::os::kKernelPid, "bob", fx.query());
    const auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
        std::chrono::steady_clock::now() - start);
    if (!page.ok() || page.value().partial)
      state.SkipWithError("fan-out failed or degraded");
    latencies_us.push_back(static_cast<std::uint64_t>(elapsed.count()));
  }
  report_p99(state, latencies_us);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetLabel("peers=" + std::to_string(peers));
}
BENCHMARK(BM_FanoutLatency)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

// Shared body for the cutoff pair: two peers, one of them stalling 20 ms
// per write; only the gather budget differs.
void run_cutoff(benchmark::State& state, w5::util::Micros budget,
                bool expect_partial) {
  w5::fed::MetasearchConfig config;
  config.fanout_budget_micros = budget;
  MetaFixture fx(2, config);
  fx.home_node.set_connection_decorator(
      [](const std::string& peer, std::unique_ptr<w5::net::Connection> inner)
          -> std::unique_ptr<w5::net::Connection> {
        if (peer != "peer1") return inner;
        return std::make_unique<w5::net::FaultyConnection>(
            std::move(inner),
            w5::net::FaultSchedule::scripted(
                {}, {{w5::net::FaultKind::kDelay, 20'000, 1}}));
      });
  std::vector<std::uint64_t> latencies_us;
  std::uint64_t partial_pages = 0;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    auto page = fx.meta->search(w5::os::kKernelPid, "bob", fx.query());
    const auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
        std::chrono::steady_clock::now() - start);
    if (!page.ok()) state.SkipWithError("fan-out failed");
    if (page.ok() && page.value().partial) ++partial_pages;
    if (page.ok() && page.value().records.empty())
      state.SkipWithError("degraded to an empty page");
    latencies_us.push_back(static_cast<std::uint64_t>(elapsed.count()));
  }
  report_p99(state, latencies_us);
  state.counters["partial_pages"] = static_cast<double>(partial_pages);
  if (expect_partial && partial_pages != static_cast<std::uint64_t>(
                            state.iterations()))
    state.SkipWithError("cutoff never fired");
  if (!expect_partial && partial_pages != 0)
    state.SkipWithError("full-wait run unexpectedly degraded");
}

// Budgeted: the 2 ms cutoff abandons the stalled peer and serves the
// fast peer + local leg, flagged partial. The degradation compounds:
// the first few timeouts open the stalled peer's breaker, after which
// searches skip it outright — so steady-state p99 sits well under even
// the 2 ms budget.
void BM_CutoffPartial(benchmark::State& state) {
  run_cutoff(state, 2'000, /*expect_partial=*/true);
}
BENCHMARK(BM_CutoffPartial)->Unit(benchmark::kMillisecond);

// Unbudgeted (500 ms): every search waits out the full 20 ms stall —
// the "one slow peer holds the page hostage" baseline the cutoff beats.
void BM_CutoffFullWait(benchmark::State& state) {
  run_cutoff(state, 500'000, /*expect_partial=*/false);
}
BENCHMARK(BM_CutoffFullWait)->Unit(benchmark::kMillisecond);

}  // namespace
