// Federated metasearch: the scatter/gather query plane (DESIGN.md §18).
//
// One labeled query fans out to every provider the user authorized for
// mirroring (MirrorAuthorizer::peers_for), in parallel — one hop thread
// per peer over the in-memory wire — while the home provider's own query
// engine answers the local leg. Partials are merged (fed/merge.h:
// vector-clock dedupe, tf-idf merge-rank, §3.5-quantized facets, cursor
// pagination) and the page degrades gracefully instead of blanking:
//
//   - a deadline budget caps the gather; hops still in flight at the
//     cutoff are abandoned (joined later) and reported as "timeout";
//   - per-peer circuit breakers (shared with sync_from) skip peers that
//     keep failing, reported as "breaker_open";
//   - any missing peer marks the page partial (X-W5-Fed-Partial at the
//     gateway) — results from the peers that did answer still serve.
//
// Every hop is a traced span: the request thread pre-opens a span id per
// peer, the hop carries it on the wire as X-W5-Parent, and after the
// gather the peer's X-W5-Spans dump is grafted under it — the whole
// fan-out reads as one stitched tree at /trace/:id.
//
// Threading: hop threads touch only the wire (dial/write/pump/read) for
// their one peer; breaker accounting, span emission, metrics, and the
// merge all happen on the request thread after the gather. One fan-out
// may be in flight per Metasearch at a time per peer set (the in-memory
// network serializes per listener, which one-hop-thread-per-peer
// guarantees). Destroy the Metasearch before its Node/network — the
// destructor joins abandoned hop threads first.
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "fed/merge.h"
#include "fed/node.h"
#include "util/metrics.h"
#include "util/thread_annotations.h"
#include "util/lock_ranks.h"

namespace w5::fed {

struct MetasearchConfig {
  // Wall-clock budget for the whole gather; tightened by the request's
  // remaining deadline (X-W5-Deadline-Ms at the gateway) when smaller.
  util::Micros fanout_budget_micros = 2'000'000;
  // Per-source result cap (each peer and the local leg).
  std::size_t per_peer_limit = 50;
  MergeWeights weights{};
};

// One peer's fate in a fan-out, for the response's "peers" listing and
// the partial-failure report.
struct PeerOutcome {
  std::string peer;
  // "ok" | "timeout" | "error" | "breaker_open"
  std::string status;
  std::string error_code;  // non-empty for "error"
  std::size_t records = 0;
};

struct MetaPage {
  std::vector<MergedRecord> records;  // the requested window, scored
  util::Json facets = util::Json::object();
  std::string next_cursor;
  bool partial = false;
  std::vector<PeerOutcome> peers;  // remote legs only
  difc::Label local_secrecy;       // union over local-leg records
};

class Metasearch {
 public:
  explicit Metasearch(Node& node, MetasearchConfig config = {});
  ~Metasearch();  // joins abandoned hop threads

  Metasearch(const Metasearch&) = delete;
  Metasearch& operator=(const Metasearch&) = delete;

  // Runs one fan-out as `user`. The local store leg runs under `pid`
  // (contaminating it per the usual read rule); remote legs carry only
  // the query, and each peer enforces its own consent gate.
  util::Result<MetaPage> search(os::Pid pid, const std::string& user,
                                const platform::FederatedQuery& query);

  // Installs the provider hook serving GET /fed/search and
  // AppContext::federated_search — the only way core/ and apps/ reach
  // this plane (the layering DAG has no apps→fed or core→fed edge).
  void install();

  const MetasearchConfig& config() const noexcept { return config_; }

 private:
  struct Gather;  // shared request-thread/hop-thread state

  // One peer hop, run on its own thread: one exchange() (fed/node.h),
  // its response read into the gather slot.
  static void run_hop(net::InMemoryNetwork& network,
                      const std::shared_ptr<Gather>& gather,
                      std::size_t index);

  // Renders a MetaPage into the wire/body shape FederatedPage carries.
  static util::Json render_body(const MetaPage& page);

  Node& node_;
  MetasearchConfig config_;

  // Metrics, resolved once (w5_fed_query_*).
  util::Counter* fanouts_total_;
  util::Counter* partial_total_;
  util::Counter* peer_ok_total_;
  util::Counter* peer_timeout_total_;
  util::Counter* peer_error_total_;
  util::Counter* peer_skipped_total_;
  util::Counter* dedup_dropped_total_;
  util::Counter* records_merged_total_;
  util::Histogram* fanout_latency_;

  // Hops abandoned at the cutoff keep running until their I/O returns;
  // they are joined opportunistically on the next search and finally in
  // the destructor. Each entry keeps the shared gather state alive (the
  // hop's result slot lives there) and remembers which slot, so reaping
  // can tell "finished, join is instant" from "still sleeping in a
  // fault" without blocking.
  struct Straggler {
    std::thread thread;
    std::shared_ptr<Gather> gather;
    std::size_t hop = 0;
  };
  util::Mutex stragglers_mutex_{util::lockrank::kFedStragglers,
                                "Metasearch::stragglers_mutex_"};
  std::vector<Straggler> stragglers_ W5_GUARDED_BY(stragglers_mutex_);
  void reap_stragglers(bool join_all);
};

}  // namespace w5::fed
