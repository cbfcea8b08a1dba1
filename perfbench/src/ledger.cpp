#include "ledger.h"

#include <algorithm>
#include <array>
#include <map>

#include "core/gateway.h"
#include "difc/capability.h"
#include "difc/flow.h"
#include "fed/merge.h"
#include "net/http_parser.h"
#include "util/json.h"

namespace perfbench {

namespace {

using w5::os::kKernelPid;
using w5::platform::AuditKind;

constexpr int kPasses = 5;  // each metric is a median over passes
constexpr const char* kPhotosModule = "photoco/photos@1.0";

enum Layer : std::size_t {
  // Called directly by Provider::handle's request path: summed into the
  // ledger against handle time.
  kSession,
  kSpawnReap,
  kStoreGet,
  kStorePut,
  kJsonDump,
  kJsonParse,
  kAuthorizeAllow,
  kAuthorizeDeny,
  kCheckExport,
  kAuditRecord,
  kFedSearch,
  kSummedLayers,
  // Nested inside a summed layer (store.query and the merge inside
  // fed.search), or outside handle (parse, to_wire): reported, not summed.
  kStoreQuery = kSummedLayers,
  kFedMerge,
  kNetParse,
  kNetToWire,
  kLayers,
};

constexpr std::array<const char*, kLayers> kLayerMetric = {
    "core.session_validate_ns",      "os.spawn_reap_ns",
    "store.get_ns",                  "store.put_ns",
    "util.json_dump_ns",             "util.json_parse_ns",
    "core.authorize_export_allow_ns", "core.authorize_export_deny_ns",
    "difc.check_export_ns",          "core.audit_record_ns",
    "fed.search_ns",                 "store.query_ns",
    "fed.merge_ns",                  "net.parse_ns",
    "net.to_wire_ns"};

// Cost of one now_ns() pair, subtracted from every span.
std::int64_t timer_overhead_ns() {
  std::vector<double> samples;
  for (int i = 0; i < 1001; ++i) {
    const std::int64_t a = now_ns();
    samples.push_back(static_cast<double>(now_ns() - a));
  }
  return static_cast<std::int64_t>(median(samples));
}

// In-memory spans of one pass, folded per layer as they close.
struct Spans {
  std::int64_t overhead = 0;
  std::array<double, kLayers> ns{};
  std::array<double, kLayers> calls{};
  double escape_ns = 0, escape_kib = 0;

  void add(Layer layer, std::int64_t start) {
    ns[layer] += static_cast<double>(std::max<std::int64_t>(now_ns() - start - overhead, 0));
    calls[layer] += 1;
  }
  double summed() const {
    double total = 0;
    for (std::size_t l = 0; l < kSummedLayers; ++l) total += ns[l];
    return total;
  }
};

std::string largest_field(const GenRecord& record) {
  std::string out;
  for (const auto& [key, value] : record.fields)
    if (value.size() > out.size()) out = value;
  return out;
}

class LayerReplay {
 public:
  LayerReplay(Fixture& fixture, const Dataset& data)
      : fixture_(fixture), data_(data), provider_(fixture.home()) {}

  // The layer calls Provider::handle made for `request`, timed one by one.
  void replay(const Request& request, const w5::net::HttpResponse& response,
              Spans& spans) {
    std::int64_t t = now_ns();
    {
      w5::net::RequestParser parser;
      parser.feed(request.wire);
      const auto parsed = parser.take();
      spans.add(kNetParse, t);
    }
    t = now_ns();
    const std::string wire = response.to_wire();
    spans.add(kNetToWire, t);

    const std::string& viewer = data_.users[request.op.conn];
    t = now_ns();
    (void)provider_.sessions().validate(fixture_.sessions()[request.op.conn]);
    spans.add(kSession, t);

    switch (request.op.kind) {
      case Kind::kRead:
      case Kind::kDenied:
      case Kind::kReadBack:
        read(request, viewer, spans);
        break;
      case Kind::kNoteWrite:
      case Kind::kCaption:
        write(request, viewer, spans);
        break;
      case Kind::kFed:
        fed(request, response, viewer, spans);
        break;
    }
  }

 private:
  const w5::platform::UserAccount& account(const std::string& user) {
    return *provider_.users().find(user);
  }

  void spawn_reap(const std::string& name, w5::difc::LabelState labels,
                  Spans& spans) {
    const std::int64_t t = now_ns();
    const w5::os::Pid pid = provider_.kernel().spawn_trusted(name, std::move(labels));
    (void)provider_.kernel().exit(pid);
    provider_.kernel().reap(pid);
    spans.add(kSpawnReap, t);
  }

  // The perimeter: declassifier vote, DIFC export check, audit record.
  void export_gate(const w5::difc::Label& label, const std::string& viewer,
                   const std::string& module_id, std::size_t bytes,
                   Spans& spans) {
    std::int64_t t = now_ns();
    auto authority = provider_.gateway().authorize_export(label, viewer, module_id,
                                                          "browser", bytes);
    spans.add(authority.ok() ? kAuthorizeAllow : kAuthorizeDeny, t);
    std::string label_name = label.to_string();
    if (authority.ok()) {
      t = now_ns();
      (void)w5::difc::check_export(label, authority.value());
      spans.add(kCheckExport, t);
      std::string detail = "viewer=" + viewer;
      t = now_ns();
      provider_.audit().record(AuditKind::kExportAllowed, module_id,
                               std::move(label_name), std::move(detail));
    } else {
      std::string detail = authority.error().detail;
      t = now_ns();
      provider_.audit().record(AuditKind::kExportBlocked, module_id,
                               std::move(label_name), std::move(detail));
    }
    spans.add(kAuditRecord, t);
  }

  void read(const Request& request, const std::string& viewer, Spans& spans) {
    const GenRecord& record = data_.records[request.op.record];
    const std::string module_id =
        request.op.via_app ? kPhotosModule : "platform/data-read";
    if (request.op.via_app)
      spawn_reap(std::string("app:") + kPhotosModule, {}, spans);
    std::int64_t t = now_ns();
    auto stored = provider_.store().get(kKernelPid, record.collection, record.id);
    spans.add(kStoreGet, t);
    if (!stored.ok()) return;
    t = now_ns();
    const std::string dumped = stored.value().data.dump();
    spans.add(kJsonDump, t);

    const std::string field = largest_field(record);
    escaped_.clear();
    t = now_ns();
    w5::util::json_escape(field, escaped_);
    spans.escape_ns += static_cast<double>(now_ns() - t - spans.overhead);
    spans.escape_kib += static_cast<double>(field.size()) / 1024.0;

    export_gate(stored.value().labels.secrecy, viewer, module_id, dumped.size(),
                spans);
  }

  void write(const Request& request, const std::string& viewer, Spans& spans) {
    const GenRecord& record = data_.records[request.op.record];
    const auto& owner = account(viewer);
    const w5::difc::LabelState writer({owner.secrecy_tag}, {owner.write_tag}, {});
    w5::store::Record updated;
    std::int64_t t = 0;
    if (request.op.kind == Kind::kNoteWrite) {
      t = now_ns();
      auto parsed = w5::util::Json::parse(data_.variants[request.op.record][request.op.variant]);
      spans.add(kJsonParse, t);
      spawn_reap("frontend:put-data:" + viewer, writer, spans);
      updated.collection = record.collection;
      updated.id = record.id;
      updated.owner = viewer;
      updated.labels = w5::difc::ObjectLabels{w5::difc::Label{owner.secrecy_tag},
                                              w5::difc::Label{owner.write_tag}};
      updated.data = std::move(parsed).value();
    } else {
      spawn_reap(std::string("app:") + kPhotosModule,
                 w5::difc::LabelState({}, {},
                                      w5::difc::CapabilitySet{
                                          w5::difc::plus(owner.write_tag)}),
                 spans);
      t = now_ns();
      auto stored = provider_.store().get(kKernelPid, record.collection, record.id);
      spans.add(kStoreGet, t);
      if (!stored.ok()) return;
      updated = std::move(stored).value();
      updated.data["caption"] = data_.captions[request.op.record][request.op.variant];
    }
    const w5::difc::Label secrecy = updated.labels.secrecy;
    const w5::os::Pid pid =
        provider_.kernel().spawn_trusted("frontend:put-data:" + viewer, writer);
    t = now_ns();
    (void)provider_.store().put(pid, std::move(updated));
    spans.add(kStorePut, t);
    (void)provider_.kernel().exit(pid);
    provider_.kernel().reap(pid);
    if (request.op.kind == Kind::kCaption)
      export_gate(secrecy, viewer, kPhotosModule, 10, spans);
  }

  void fed(const Request& request, const w5::net::HttpResponse& response,
           const std::string& viewer, Spans& spans) {
    const FedQuery& query = data_.queries[request.op.query];
    w5::platform::FederatedQuery federated;
    federated.collection = "photos";
    federated.terms = query.terms[0] + " " + query.terms[1];
    federated.facets = {"city", "kind"};
    federated.limit = kFedLimit;
    federated.principal = "frontend:" + viewer;
    std::int64_t t = now_ns();
    auto page = fixture_.metasearch()->search(kKernelPid, viewer, federated);
    spans.add(kFedSearch, t);
    if (!page.ok()) return;

    const auto body = w5::util::Json::parse(response.body);
    t = now_ns();
    const std::string dumped = body.ok() ? body.value().dump() : std::string();
    spans.add(kJsonDump, t);
    export_gate(page.value().local_secrecy, viewer, "fed/metasearch",
                dumped.size(), spans);

    // The local leg on its own, as Metasearch runs it.
    w5::store::QueryOptions options = leg_options(viewer, query);
    t = now_ns();
    (void)provider_.store().query(kKernelPid, "photos", options);
    spans.add(kStoreQuery, t);

    // The merge over the partials every provider would return.
    std::vector<w5::fed::MergedRecord> partials = captured(request.op.query, viewer);
    t = now_ns();
    std::size_t dropped = 0;
    auto merged = w5::fed::dedupe_by_clock(std::move(partials), &dropped);
    w5::fed::score_and_sort(merged, query.terms,
                            fixture_.metasearch()->config().weights);
    (void)w5::fed::facet_counts(merged, {"city", "kind"}, {});
    spans.add(kFedMerge, t);
  }

  static w5::store::QueryOptions leg_options(const std::string& viewer,
                                             const FedQuery& query) {
    w5::store::QueryOptions options;
    options.owner = viewer;
    options.limit = 50;
    const std::vector<std::string> terms = query.terms;
    options.predicate = [terms](const w5::store::Record& record) {
      return w5::fed::record_matches_terms(record.id, record.data, terms);
    };
    return options;
  }

  // Every provider's leg of a query, captured once per query.
  const std::vector<w5::fed::MergedRecord>& captured(std::size_t query,
                                                     const std::string& viewer) {
    auto [it, inserted] = partials_.try_emplace(query);
    if (!inserted) return it->second;
    const auto options = leg_options(viewer, data_.queries[query]);
    for (std::size_t p = 0; p < fixture_.providers().size(); ++p) {
      auto records = fixture_.providers()[p]->store().query(kKernelPid, "photos", options);
      if (!records.ok()) continue;
      for (const auto& record : records.value()) {
        w5::fed::MergedRecord merged;
        merged.provider = fixture_.nodes()[p]->name();
        merged.collection = record.collection;
        merged.id = record.id;
        merged.owner = record.owner;
        merged.data = record.data;
        merged.clock = fixture_.nodes()[p]->clock_of(record.collection, record.id);
        merged.updated = record.updated_micros;
        merged.local = p == 0;
        it->second.push_back(std::move(merged));
      }
    }
    return it->second;
  }

  Fixture& fixture_;
  const Dataset& data_;
  w5::platform::Provider& provider_;
  std::string escaped_;
  std::map<std::size_t, std::vector<w5::fed::MergedRecord>> partials_;
};

}  // namespace

Metrics count_pass(Fixture& fixture, const Dataset& data,
                   const std::vector<Request>& requests, Checker& checker,
                   std::size_t count) {
  w5::platform::Provider& home = fixture.home();
  const auto audit_total = [&home] {
    double total = 0;
    for (int kind = 0; kind < 8; ++kind)
      total += static_cast<double>(home.audit().count(static_cast<AuditKind>(kind)));
    return total;
  };
  double writes = 0, user_bytes = 0, fed_queries = 0, expected_dropped = 0;
  Cursor plan(data);
  for (std::size_t i = 0; i < count; ++i) {
    const Op& op = requests[plan.next(i % data.connections)].op;
    if (op.kind == Kind::kNoteWrite) {
      writes += 1;
      user_bytes += static_cast<double>(data.variants[op.record][op.variant].size());
    } else if (op.kind == Kind::kCaption) {
      writes += 1;
      user_bytes += static_cast<double>(data.captions[op.record][op.variant].size());
    } else if (op.kind == Kind::kFed) {
      fed_queries += 1;
      expected_dropped += static_cast<double>(data.queries[op.query].expected_dropped);
    }
  }

  const double audit0 = audit_total();
  const w5::util::Json before = scrape_metrics(home);
  Cursor cursor(data);
  replay(home, requests, cursor, checker, data.connections, count);
  const w5::util::Json after = scrape_metrics(home);
  const double audit1 = audit_total();

  const auto delta = [&](const char* name) {
    return metric_value(after, name) - metric_value(before, name);
  };
  const double dropped = delta("w5_fed_query_dedup_dropped_total");
  const double wal_bytes = delta("w5_wal_append_bytes_total");
  if (dropped != expected_dropped) checker.record_failure("fed dedupe count");
  return {
      {"core.audit_events_per_req", (audit1 - audit0) / static_cast<double>(count)},
      {"fed.dedup_dropped_per_query", fed_queries > 0 ? dropped / fed_queries : 0},
      {"store.wal_bytes_per_write", writes > 0 ? wal_bytes / writes : 0},
      {"store.wal_bytes_per_user_byte", user_bytes > 0 ? wal_bytes / user_bytes : 0},
  };
}

Metrics measure_layers(Fixture& fixture, const Dataset& data,
                       const std::vector<Request>& requests, Checker& checker,
                       std::size_t sample) {
  w5::platform::Provider& home = fixture.home();
  LayerReplay layers(fixture, data);
  const std::int64_t overhead = timer_overhead_ns();

  std::vector<double> untraced_ns, traced_ns, sum_share;
  std::array<std::vector<double>, kLayers> per_layer;
  std::vector<double> escape;
  for (int pass = 0; pass < kPasses; ++pass) {
    // The sample untraced: one timer around the whole batch, responses
    // checked after it.
    Cursor batch(data);
    std::vector<std::uint32_t> order;
    for (std::size_t i = 0; i < sample; ++i)
      order.push_back(batch.next(i % data.connections));
    std::vector<w5::net::HttpResponse> responses;
    responses.reserve(sample);
    std::int64_t t = now_ns();
    for (const std::uint32_t op : order) responses.push_back(home.handle(requests[op].parsed));
    untraced_ns.push_back(static_cast<double>(now_ns() - t) / static_cast<double>(sample));
    for (std::size_t i = 0; i < sample; ++i) {
      checker.check(requests[order[i]], responses[i].status, responses[i].body,
                    responses[i].headers.contains("X-W5-Fed-Partial"));
    }

    // The same sample traced: a span around handle and around every
    // layer call it is replayed into.
    Spans spans;
    spans.overhead = overhead;
    double handle_ns = 0;
    Cursor cursor(data);
    for (std::size_t i = 0; i < sample; ++i) {
      const Request& request = requests[cursor.next(i % data.connections)];
      t = now_ns();
      const w5::net::HttpResponse response = home.handle(request.parsed);
      handle_ns += static_cast<double>(now_ns() - t - overhead);
      checker.check(request, response.status, response.body,
                    response.headers.contains("X-W5-Fed-Partial"));
      layers.replay(request, response, spans);
    }
    traced_ns.push_back(handle_ns / static_cast<double>(sample));
    sum_share.push_back(spans.summed() / handle_ns);
    for (std::size_t l = 0; l < kLayers; ++l)
      per_layer[l].push_back(spans.calls[l] > 0 ? spans.ns[l] / spans.calls[l] : 0);
    escape.push_back(spans.escape_kib > 0 ? spans.escape_ns / spans.escape_kib : 0);
  }

  Metrics out;
  for (std::size_t l = 0; l < kLayers; ++l)
    out.emplace_back(kLayerMetric[l], median(per_layer[l]));
  out.emplace_back("util.json_escape_ns_per_kib", median(escape));
  const double share = median(sum_share);
  out.emplace_back("ledger.layer_sum_share", share);
  out.emplace_back("ledger.remainder_share", 1.0 - share);
  out.emplace_back("trace.overhead_share",
                   median(traced_ns) / median(untraced_ns) - 1.0);
  return out;
}

}  // namespace perfbench
