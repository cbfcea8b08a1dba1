#include "fed/metasearch.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <utility>

#include "core/trace.h"
#include "rank/relevance.h"
#include "util/clock.h"
#include "util/lock_ranks.h"

namespace w5::fed {

// Shared between the request thread and its hop threads. The request
// thread fills the read-only launch fields (peer, span ids, start
// cycles, wire bytes, decorator) before spawning; each hop thread writes
// only its own slot's result fields, under `mutex`, exactly once, then
// bumps `completed` and signals. A hop that outlives the gather (cutoff)
// still writes safely: the shared_ptr keeps this alive and the request
// thread stopped caring after the wait returned.
struct Metasearch::Gather {
  struct Hop {
    // Launch fields (request thread, pre-spawn; read-only after).
    std::string peer;
    std::string wire;  // full serialized POST /fed/query request
    // The node's decorator, copied so a straggler outliving a
    // set_connection_decorator keeps its own.
    Node::ConnectionDecorator decorate;
    std::uint32_t span_id = 0;
    std::uint32_t span_parent = 0;
    std::uint64_t start_cycles = 0;
    // Result fields (hop thread, under Gather::mutex).
    bool done = false;
    bool ok = false;
    std::string error_code;
    std::string provider;  // the peer's self-reported name
    util::Json records = util::Json::array();
    net::HttpResponse response;  // headers carry the peer's span dump
    std::uint64_t duration_cycles = 0;
  };

  util::Mutex mutex{util::lockrank::kFedGather, "Gather::mutex"};
  std::condition_variable cv;
  std::vector<Hop> hops;
  std::size_t completed = 0;
};

// One peer hop, run on its own thread: one exchange() with the peer, then
// the peer's answer is read into the gather slot. Thread-safety note:
// concurrent hops are safe because each dials a DISTINCT peer —
// InMemoryNetwork's listener map is read-only after setup (dial/pump
// only find()), and a peer node's accepted-connection queue is only ever
// touched by the one hop thread pumping it.
void Metasearch::run_hop(net::InMemoryNetwork& network,
                         const std::shared_ptr<Metasearch::Gather>& gather,
                         std::size_t index) {
  Metasearch::Gather::Hop& slot = gather->hops[index];
  const auto finish = [&](bool ok, std::string code, util::Json records,
                          std::string provider,
                          net::HttpResponse response) {
    const std::uint64_t duration = util::cycle_count() - slot.start_cycles;
    const util::MutexLock lock(gather->mutex);
    slot.done = true;
    slot.ok = ok;
    slot.error_code = std::move(code);
    slot.records = std::move(records);
    slot.provider = std::move(provider);
    slot.response = std::move(response);
    slot.duration_cycles = duration;
    ++gather->completed;
    gather->cv.notify_all();
  };
  const auto fail = [&](std::string code, net::HttpResponse response = {}) {
    finish(false, std::move(code), util::Json::array(), {},
           std::move(response));
  };

  auto exchanged = exchange(network, slot.peer, slot.wire, slot.decorate);
  if (!exchanged.ok()) return fail(exchanged.error().code);
  net::HttpResponse response = std::move(exchanged).value();
  // The body is parsed here, off the request thread; the slot keeps the
  // response only for its headers.
  auto body = util::Json::parse(response.body);
  response.body.clear();

  if (response.status != 200) {
    // Surface the peer's own error code when its body carries one (the
    // consent 403 and budget 429 bodies do) — the failure report then
    // says *why* the peer refused, not just that it did.
    std::string code = "fed.query_failed";
    if (body.ok()) {
      const std::string peer_code = body.value().at("error").as_string();
      if (!peer_code.empty()) code = peer_code;
    }
    return fail(std::move(code), std::move(response));
  }
  if (!body.ok()) return fail("fed.parse", std::move(response));
  finish(true, {}, body.value().at("records"),
         body.value().at("provider").as_string(), std::move(response));
}

Metasearch::Metasearch(Node& node, MetasearchConfig config)
    : node_(node),
      config_(config),
      fanouts_total_(
          &node.provider().metrics().counter("w5_fed_query_fanouts_total")),
      partial_total_(
          &node.provider().metrics().counter("w5_fed_query_partial_total")),
      peer_ok_total_(&node.provider().metrics().counter(
          "w5_fed_query_peer_results_total{result=\"ok\"}")),
      peer_timeout_total_(&node.provider().metrics().counter(
          "w5_fed_query_peer_results_total{result=\"timeout\"}")),
      peer_error_total_(&node.provider().metrics().counter(
          "w5_fed_query_peer_results_total{result=\"error\"}")),
      peer_skipped_total_(&node.provider().metrics().counter(
          "w5_fed_query_peer_results_total{result=\"breaker_open\"}")),
      dedup_dropped_total_(&node.provider().metrics().counter(
          "w5_fed_query_dedup_dropped_total")),
      records_merged_total_(&node.provider().metrics().counter(
          "w5_fed_query_records_merged_total")),
      fanout_latency_(&node.provider().metrics().histogram(
          "w5_fed_query_fanout_micros")) {}

Metasearch::~Metasearch() { reap_stragglers(/*join_all=*/true); }

util::Result<MetaPage> Metasearch::search(
    os::Pid pid, const std::string& user,
    const platform::FederatedQuery& query) {
  reap_stragglers(/*join_all=*/false);
  fanouts_total_->inc();
  const auto wall_start = std::chrono::steady_clock::now();
  platform::RequestContext* context = platform::RequestContext::current();

  if (query.collection.empty())
    return util::make_error("fed.bad_query", "collection required");
  const std::vector<std::string> terms = rank::tokenize(query.terms);

  // The gather budget: the configured cutoff, tightened by whatever the
  // request's own deadline has left — a client that asked for 50 ms
  // total never waits 2 s for a slow peer.
  util::Micros budget = config_.fanout_budget_micros;
  if (context != nullptr && context->deadline() != 0) {
    budget = std::min(
        budget,
        std::max<util::Micros>(platform::RequestContext::remaining_micros(),
                               0));
  }

  // The fan-out set (§3.3): exactly the peers this user consented to
  // mirror with — never a directory walk of the whole federation.
  std::vector<std::string> peers = node_.mirrors().peers_for(user);
  std::erase(peers, node_.name());

  util::Json body;
  body["peer"] = node_.name();
  body["user"] = user;
  body["collection"] = query.collection;
  body["q"] = query.terms;
  body["eq_field"] = query.eq_field;
  body["eq_value"] = query.eq_value;
  body["limit"] = static_cast<std::int64_t>(config_.per_peer_limit);
  const std::string body_text = body.dump();

  auto gather = std::make_shared<Gather>();
  std::vector<PeerOutcome> outcomes;
  std::vector<std::thread> threads;
  util::MetricsRegistry& metrics = node_.provider().metrics();
  for (const std::string& peer : peers) {
    net::CircuitBreaker& breaker = node_.breaker_for(peer);
    util::Gauge& state_gauge =
        metrics.gauge("w5_fed_breaker_state{peer=\"" + peer + "\"}");
    if (!breaker.allow()) {
      // Fail fast without burning a hop on a peer that keeps failing —
      // the page degrades to the peers that still answer.
      state_gauge.set(static_cast<std::int64_t>(breaker.state()));
      peer_skipped_total_->inc();
      outcomes.push_back({peer, "breaker_open", "fed.circuit_open", 0});
      continue;
    }
    Gather::Hop hop;
    hop.peer = peer;
    if (context != nullptr) {
      hop.span_parent = context->current_parent();
      hop.span_id = context->open_span();
    }
    net::HttpRequest request;
    request.method = net::Method::kPost;
    request.target = "/fed/query";
    request.parsed = *net::parse_request_target("/fed/query");
    request.headers.set("Connection", "close");
    platform::stamp_outbound(request, hop.span_id);
    request.body = body_text;
    hop.wire = request.to_wire();
    hop.decorate = node_.connection_decorator();
    hop.start_cycles = util::cycle_count();
    gather->hops.push_back(std::move(hop));
  }
  const std::size_t launched = gather->hops.size();
  threads.reserve(launched);
  // Captured as a pointer: a straggler thread outlives this frame, and
  // the network (owned by the test/bench harness) outlives the node.
  net::InMemoryNetwork* network = &node_.network();
  for (std::size_t i = 0; i < launched; ++i)
    threads.emplace_back([network, gather, i] { run_hop(*network, gather, i); });

  // The local leg runs on the request thread while the hops are in
  // flight. Under an app pid the read rule contaminates the caller as
  // usual; the gateway queries as the kernel and export-checks the
  // returned label union instead.
  std::vector<MergedRecord> all;
  difc::Label secrecy;
  util::Error local_error{"", ""};
  {
    store::QueryOptions options;
    options.owner = user;
    options.eq_field = query.eq_field;
    options.eq_value = query.eq_value;
    options.limit = config_.per_peer_limit;
    options.principal = query.principal;
    if (!terms.empty()) {
      options.predicate = [&terms](const store::Record& record) {
        return record_matches_terms(record.id, record.data, terms);
      };
    }
    platform::ScopedSpan local_span("fed.local");
    auto local =
        node_.provider().store().query(pid, query.collection, options);
    if (!local.ok()) {
      local_error = local.error();
      local_span.set_note("err=" + local_error.code);
    } else {
      local_span.set_note("records=" +
                          std::to_string(local.value().size()));
      for (store::Record& record : local.value()) {
        MergedRecord merged;
        merged.provider = node_.name();
        merged.collection = record.collection;
        merged.id = record.id;
        merged.owner = record.owner;
        merged.data = std::move(record.data);
        merged.clock = node_.clock_of(record.collection, record.id);
        merged.updated = record.updated_micros;
        merged.local = true;
        secrecy = secrecy.union_with(record.labels.secrecy);
        all.push_back(std::move(merged));
      }
    }
  }

  if (!local_error.code.empty()) {
    // The caller's own leg was refused (query budget, flow) — the page
    // is dead whatever the peers say. Abandon the hops without waiting;
    // their threads finish against the shared gather and get reaped.
    const util::MutexLock lock(stragglers_mutex_);
    for (std::size_t i = 0; i < threads.size(); ++i)
      stragglers_.push_back({std::move(threads[i]), gather, i});
    return local_error;
  }

  // The slowest-peer cutoff: wait for everyone, but never past the
  // budget. Whatever is still in flight afterwards is reported, not
  // awaited — partial results beat a page held hostage by one peer.
  {
    util::UniqueLock lock(gather->mutex);
    gather->cv.wait_for(lock.native(), std::chrono::microseconds(budget), [&] {
      return gather->completed == launched;
    });
  }

  for (std::size_t i = 0; i < launched; ++i) {
    // Result fields are copied out under the gather lock; the launch
    // fields (peer, span ids, start cycles) are read-only post-spawn and
    // stay valid even for a hop still running.
    bool done = false;
    bool hop_ok = false;
    std::string error_code;
    std::string reported_provider;
    net::HttpResponse response;
    util::Json records = util::Json::array();
    std::uint64_t duration_cycles = 0;
    {
      const util::MutexLock lock(gather->mutex);
      Gather::Hop& hop = gather->hops[i];
      done = hop.done;
      if (done) {
        hop_ok = hop.ok;
        error_code = std::move(hop.error_code);
        reported_provider = std::move(hop.provider);
        response = std::move(hop.response);
        records = std::move(hop.records);
        duration_cycles = hop.duration_cycles;
      }
    }
    const Gather::Hop& launch = gather->hops[i];
    net::CircuitBreaker& breaker = node_.breaker_for(launch.peer);
    PeerOutcome outcome;
    outcome.peer = launch.peer;
    std::uint64_t span_duration = duration_cycles;
    if (!done) {
      // Past the cutoff and still in flight: count it against the
      // breaker — a peer that keeps blowing the budget should open it.
      breaker.record_failure();
      peer_timeout_total_->inc();
      outcome.status = "timeout";
      span_duration = util::cycle_count() - launch.start_cycles;
    } else {
      threads[i].join();
      if (hop_ok) {
        breaker.record_success();
        peer_ok_total_->inc();
        outcome.status = "ok";
        for (const util::Json& item : records.as_array()) {
          MergedRecord merged;
          merged.provider = reported_provider.empty() ? launch.peer
                                                      : reported_provider;
          merged.collection = item.at("collection").as_string();
          merged.id = item.at("id").as_string();
          merged.owner = item.at("owner").as_string();
          merged.data = item.at("data");
          if (auto clock = VectorClock::from_json(item.at("clock"));
              clock.ok()) {
            merged.clock = std::move(clock).value();
          }
          merged.updated = item.at("updated").as_int(0);
          merged.local = false;
          if (merged.collection.empty() || merged.id.empty()) continue;
          ++outcome.records;
          all.push_back(std::move(merged));
        }
      } else {
        breaker.record_failure();
        peer_error_total_->inc();
        outcome.status = "error";
        outcome.error_code = error_code;
      }
    }
    metrics.gauge("w5_fed_breaker_state{peer=\"" + launch.peer + "\"}")
        .set(static_cast<std::int64_t>(breaker.state()));
    if (context != nullptr && context->spans_enabled()) {
      // The hop span the peer's serving spans hang under; emitted here
      // (not on the hop thread — RequestContext is single-threaded).
      context->add_span("fed.query", launch.start_cycles, span_duration,
                        "peer=" + launch.peer + " status=" + outcome.status,
                        launch.span_id, launch.span_parent);
      platform::graft_remote_spans(response, launch.peer, launch.span_id,
                                   launch.start_cycles);
    }
    outcomes.push_back(std::move(outcome));
  }
  {
    const util::MutexLock lock(stragglers_mutex_);
    for (std::size_t i = 0; i < threads.size(); ++i)
      if (threads[i].joinable())
        stragglers_.push_back({std::move(threads[i]), gather, i});
  }

  // ---- Merge-rank (fed/merge.h) -------------------------------------------
  std::size_t dropped = 0;
  std::vector<MergedRecord> merged = dedupe_by_clock(std::move(all), &dropped);
  if (dropped > 0) dedup_dropped_total_->inc(dropped);
  records_merged_total_->inc(merged.size());
  score_and_sort(merged, terms, config_.weights);

  MetaPage page;
  // Facets run over the whole merged window (not just this page), every
  // count through the store's own §3.5 quantizer — satellite rule: one
  // quantization path on both sides of the federation boundary.
  const store::LabeledStore& store = node_.provider().store();
  page.facets = facet_counts(merged, query.facets, [&store](std::size_t n) {
    return store.quantize_count(n);
  });
  auto paged =
      paginate(std::move(merged), query.cursor,
               std::max<std::size_t>(std::size_t{1}, query.limit));
  if (!paged.ok()) return paged.error();
  page.records = std::move(paged.value().records);
  page.next_cursor = std::move(paged.value().next_cursor);
  page.peers = std::move(outcomes);
  page.local_secrecy = std::move(secrecy);
  for (const PeerOutcome& outcome : page.peers)
    if (outcome.status != "ok") page.partial = true;
  if (page.partial) partial_total_->inc();

  const auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::steady_clock::now() - wall_start);
  fanout_latency_->observe(elapsed.count());
  return page;
}

util::Json Metasearch::render_body(const MetaPage& page) {
  util::Json items = util::Json::array();
  for (const MergedRecord& record : page.records) {
    util::Json item;
    item["provider"] = record.provider;
    item["collection"] = record.collection;
    item["id"] = record.id;
    item["owner"] = record.owner;
    item["data"] = record.data;
    item["updated"] = record.updated;
    item["local"] = record.local;
    item["score"] = record.score;
    items.push_back(std::move(item));
  }
  util::Json peers = util::Json::array();
  for (const PeerOutcome& outcome : page.peers) {
    util::Json entry;
    entry["peer"] = outcome.peer;
    entry["status"] = outcome.status;
    if (!outcome.error_code.empty()) entry["error"] = outcome.error_code;
    entry["records"] = static_cast<std::int64_t>(outcome.records);
    peers.push_back(std::move(entry));
  }
  util::Json out;
  out["items"] = std::move(items);
  out["facets"] = page.facets;
  out["peers"] = std::move(peers);
  out["partial"] = page.partial;
  out["next_cursor"] = page.next_cursor;
  return out;
}

void Metasearch::install() {
  node_.provider().set_federated_search(
      [this](os::Pid pid, const std::string& viewer,
             const platform::FederatedQuery& query)
          -> util::Result<platform::FederatedPage> {
        auto result = search(pid, viewer, query);
        if (!result.ok()) return result.error();
        platform::FederatedPage out;
        out.body = render_body(result.value());
        out.secrecy = result.value().local_secrecy;
        out.partial = result.value().partial;
        return out;
      });
}

void Metasearch::reap_stragglers(bool join_all) {
  std::vector<Straggler> to_join;
  {
    const util::MutexLock lock(stragglers_mutex_);
    if (join_all) {
      to_join.swap(stragglers_);
    } else {
      for (auto it = stragglers_.begin(); it != stragglers_.end();) {
        bool done = false;
        {
          const util::MutexLock hop_lock(it->gather->mutex);
          done = it->gather->hops[it->hop].done;
        }
        if (done) {
          to_join.push_back(std::move(*it));
          it = stragglers_.erase(it);
        } else {
          ++it;
        }
      }
    }
  }
  for (Straggler& straggler : to_join)
    if (straggler.thread.joinable()) straggler.thread.join();
}

}  // namespace w5::fed
