// Seeded workload generation: the records each provider holds and the
// cyclic request schedule each connection replays. Everything here is a
// pure function of (workload, seed); the provider only ever sees these
// generated inputs.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

enum class Workload : std::uint8_t {
  kTinyReads,
  kPhotoViewLarge,
  kNoteWrites,
  kFedSearch,
};

std::optional<Workload> parse_workload(std::string_view name);
const char* workload_name(Workload workload);

// splitmix64: the benchmark's only source of randomness.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }

 private:
  std::uint64_t state_;
};

// A flat JSON object of string fields, kept sorted by key.
using Fields = std::vector<std::pair<std::string, std::string>>;

// Appends `s` as a JSON string literal. This is the benchmark's own
// reference escaper (minimal JSON escaping, lowercase \u00xx for other
// control bytes, UTF-8 passed through), written independently of
// util::json_escape so that the output checks do not trust the code they
// check.
void escape_json(std::string_view s, std::string& out);

// {"k":"v",...} in key order: the canonical bytes a provider must serve
// back for a record stored from them.
std::string canonical_json(const Fields& fields);

struct GenRecord {
  std::string owner;
  std::string collection;
  std::string id;
  Fields fields;
  std::string json;  // canonical_json(fields)
  // fed_search: providers holding a copy (0 = home, 1.. = peers).
  std::vector<std::size_t> providers{0};
};

enum class Kind : std::uint8_t {
  kRead,       // owner read: 200 + exact record bytes
  kDenied,     // another user's private record: perimeter 403
  kNoteWrite,  // POST /data/notes/:id: 201
  kCaption,    // POST /dev/photoco/photos/caption?id=: 200
  kReadBack,   // owner read of the key the previous write set
  kFed,        // GET /fed/search: full, non-partial page
};

// One request template. Session tokens do not exist yet at generation
// time, so the wire bytes are built later (drive.h).
struct Op {
  Kind kind = Kind::kRead;
  std::size_t conn = 0;     // issuing connection; its user is users[conn]
  std::size_t record = 0;   // index into Dataset::records
  std::size_t variant = 0;  // write variant (writes and read-backs)
  std::size_t query = 0;    // index into Dataset::queries (kFed)
  bool via_app = false;     // read through the photos app, not /data
};

struct FedQuery {
  std::vector<std::string> terms;
  std::size_t expected_items = 0;  // deduped matches, capped at the limit
  std::size_t expected_dropped = 0;  // mirrored copies the merge drops
};

inline constexpr const char* kPassword = "pw-benchmark";
inline constexpr std::size_t kFedLimit = 20;
// fed::MetasearchConfig's default per_peer_limit (rows per source).
inline constexpr std::size_t kFedPerSourceLimit = 50;
inline constexpr const char* kFedFacets = "city,kind";

struct Dataset {
  Workload workload = Workload::kTinyReads;
  std::size_t connections = 0;
  std::vector<std::string> users;  // users[c] drives connection c
  std::vector<GenRecord> records;
  // Per record: canonical bytes after write variant v (notes: also the
  // POST body; photos: the record with caption v).
  std::vector<std::vector<std::string>> variants;
  // Per photo record (note_writes): caption request body for variant v.
  std::vector<std::vector<std::string>> captions;
  std::vector<FedQuery> queries;
  std::size_t providers = 1;  // fed_search: home + peers
  // A tiny owner-readable note per connected user: the warm-up reads it
  // to fill the audit log past its halving cap cheaply.
  std::vector<std::size_t> warm_records;
  std::vector<Op> ops;                                // unique templates
  std::vector<std::vector<std::uint32_t>> schedule;  // per connection, cyclic
  double deny_share = 0.0;  // target share of export decisions denied
};

Dataset generate(Workload workload, std::uint64_t seed);

}  // namespace perfbench
