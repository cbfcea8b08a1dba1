#include "dataset.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <tuple>

namespace perfbench {

namespace {

// Filler vocabulary. None of these words is a fed_search query term,
// city or kind, so term matching over generated text stays exact.
constexpr const char* kFiller[] = {
    "the",     "quick",   "lantern", "over",    "river",   "stone",
    "window",  "paper",   "garden",  "morning", "signal",  "copper",
    "harbor",  "meadow",  "pocket",  "thread",  "violet",  "winter",
    "yellow",  "zephyr",  "anchor",  "bridge",  "candle",  "desert",
    "engine",  "feather", "glacier", "hollow",  "island",  "jungle",
    "kettle",  "ladder",  "marble",  "needle",  "orchard", "pepper",
    "quartz",  "ribbon",  "saddle",  "tunnel",  "umbrella", "valley",
    "walnut",  "pixel",   "orbit",   "canyon",  "summit",  "meteor"};
constexpr std::size_t kFillerCount = sizeof(kFiller) / sizeof(kFiller[0]);

// Bytes that need escaping or are non-ASCII UTF-8 (2, 3 and 4 bytes).
constexpr const char* kDirty[] = {"\"", "\\", "\n", "\t", "\x01", "\x1f",
                                  "\xc3\xa9", "\xe2\x82\xac",
                                  "\xf0\x9f\x98\x80"};
constexpr std::size_t kDirtyCount = sizeof(kDirty) / sizeof(kDirty[0]);

// fed_search vocabulary: query terms, facet values.
constexpr const char* kTerms[] = {
    "amber", "birch", "cedar", "delta", "ember", "fjord", "grove", "heron",
    "iris",  "juniper", "kelp", "lotus", "maple", "nectar", "olive", "poppy"};
constexpr std::size_t kTermCount = sizeof(kTerms) / sizeof(kTerms[0]);
constexpr const char* kCities[] = {"oslo", "lima", "kyiv", "doha"};
constexpr const char* kKinds[] = {"portrait", "landscape", "macro"};

// Words separated by spaces, at least `length` bytes. With `dirty`, about
// 1% of the bytes need escaping or are multi-byte UTF-8 (a dirty token
// after 6% of ~7-byte words). Never truncated, so UTF-8 stays valid.
std::string text(Rng& rng, std::size_t length, bool dirty) {
  std::string out;
  out.reserve(length + 16);
  while (out.size() < length) {
    if (!out.empty()) out.push_back(' ');
    out += kFiller[rng.below(kFillerCount)];
    if (dirty && rng.below(100) < 6) out += kDirty[rng.below(kDirtyCount)];
  }
  return out;
}

// Printable ASCII caption text with the occasional quote or backslash.
std::string caption_text(Rng& rng, std::size_t length) {
  std::string out = text(rng, length, false);
  for (std::size_t i = 0; i < out.size(); i += 97) out[i] = i % 2 ? '"' : '\\';
  return out;
}

std::string numbered(const std::string& user, const char* kind,
                     std::size_t i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "-%s%02zu", kind, i);
  return user + buf;
}

template <typename T>
void shuffle(std::vector<T>& items, Rng& rng) {
  for (std::size_t i = items.size(); i > 1; --i) {
    const std::size_t j = rng.below(i);
    const T held = items[i - 1];
    items[i - 1] = items[j];
    items[j] = held;
  }
}

class Builder {
 public:
  Builder(Workload workload, std::uint64_t seed) : rng_(seed) {
    data_.workload = workload;
  }

  Rng& rng() { return rng_; }
  Dataset& data() { return data_; }

  void add_users(std::size_t users, std::size_t connections) {
    data_.connections = connections;
    for (std::size_t u = 0; u < users; ++u) {
      std::string user = "u";
      user += std::to_string(u);
      data_.users.push_back(std::move(user));
    }
    data_.schedule.resize(connections);
  }

  std::size_t add_record(std::string owner, std::string collection,
                         std::string id, Fields fields) {
    std::sort(fields.begin(), fields.end());
    GenRecord record;
    record.owner = std::move(owner);
    record.collection = std::move(collection);
    record.id = std::move(id);
    record.json = canonical_json(fields);
    record.fields = std::move(fields);
    data_.records.push_back(std::move(record));
    data_.variants.emplace_back();
    data_.captions.emplace_back();
    return data_.records.size() - 1;
  }

  void add_warm_notes() {
    for (std::size_t c = 0; c < data_.connections; ++c) {
      data_.warm_records.push_back(add_record(
          data_.users[c], "notes", data_.users[c] + "-warm",
          {{"body", "warm"}, {"title", "warm"}}));
    }
  }

  void push(std::size_t conn, Op op) {
    op.conn = conn;
    const auto key = std::make_tuple(op.kind, op.conn, op.record, op.variant,
                                     op.query, op.via_app);
    auto [it, inserted] = index_.try_emplace(
        key, static_cast<std::uint32_t>(data_.ops.size()));
    if (inserted) data_.ops.push_back(op);
    data_.schedule[conn].push_back(it->second);
  }

 private:
  Rng rng_;
  Dataset data_;
  std::map<std::tuple<Kind, std::size_t, std::size_t, std::size_t,
                      std::size_t, bool>,
           std::uint32_t>
      index_;
};

// Reads of ~256 B records: 3/4 through /data/notes, 1/4 through the photos
// app; exactly 4 of every 32 requests (3 notes, 1 photo) target another
// user's record and must be denied.
void tiny_reads(Builder& b) {
  constexpr std::size_t kUsers = 8, kConns = 4, kNotes = 32, kPhotos = 8;
  b.add_users(kUsers, kConns);
  Dataset& d = b.data();
  std::vector<std::vector<std::size_t>> notes(kUsers), photos(kUsers);
  for (std::size_t u = 0; u < kUsers; ++u) {
    const std::string& user = d.users[u];
    for (std::size_t i = 0; i < kNotes; ++i) {
      notes[u].push_back(b.add_record(
          user, "notes", numbered(user, "n", i),
          {{"body", text(b.rng(), 220, false)},
           {"title", "note " + std::to_string(i)}}));
    }
    for (std::size_t i = 0; i < kPhotos; ++i) {
      photos[u].push_back(b.add_record(
          user, "photos", numbered(user, "p", i),
          {{"caption", text(b.rng(), 215, false)},
           {"title", "photo " + std::to_string(i)}}));
    }
  }
  b.add_warm_notes();
  d.deny_share = 4.0 / 32.0;
  for (std::size_t c = 0; c < kConns; ++c) {
    for (std::size_t block = 0; block < 128; ++block) {
      // (via_app, denied) for each of the 32 slots.
      std::vector<std::pair<bool, bool>> slots;
      for (int i = 0; i < 21; ++i) slots.emplace_back(false, false);
      for (int i = 0; i < 3; ++i) slots.emplace_back(false, true);
      for (int i = 0; i < 7; ++i) slots.emplace_back(true, false);
      slots.emplace_back(true, true);
      shuffle(slots, b.rng());
      for (const auto& [via_app, denied] : slots) {
        std::size_t owner = c;
        if (denied) owner = (c + 1 + b.rng().below(kUsers - 1)) % kUsers;
        const auto& pool = via_app ? photos[owner] : notes[owner];
        Op op;
        op.kind = denied ? Kind::kDenied : Kind::kRead;
        op.record = pool[b.rng().below(pool.size())];
        op.via_app = via_app;
        b.push(c, op);
      }
    }
  }
}

// Owner views of ~64 KiB photos through the photos app, one in four a
// view of another user's (owner-only) photo that must be denied.
void photo_view_large(Builder& b) {
  constexpr std::size_t kUsers = 8, kConns = 4, kPhotos = 8;
  b.add_users(kUsers, kConns);
  Dataset& d = b.data();
  std::vector<std::vector<std::size_t>> photos(kUsers);
  for (std::size_t u = 0; u < kUsers; ++u) {
    const std::string& user = d.users[u];
    for (std::size_t i = 0; i < kPhotos; ++i) {
      photos[u].push_back(b.add_record(
          user, "photos", numbered(user, "p", i),
          {{"blob", text(b.rng(), 65000, true)},
           {"caption", text(b.rng(), 80, false)},
           {"title", "photo " + std::to_string(i)}}));
    }
  }
  b.add_warm_notes();
  d.deny_share = 1.0 / 4.0;
  for (std::size_t c = 0; c < kConns; ++c) {
    for (std::size_t block = 0; block < 1024; ++block) {
      std::vector<bool> denied{false, false, false, true};
      shuffle(denied, b.rng());
      for (const bool deny : denied) {
        std::size_t owner = c;
        if (deny) owner = (c + 1 + b.rng().below(kUsers - 1)) % kUsers;
        Op op;
        op.kind = deny ? Kind::kDenied : Kind::kRead;
        op.record = photos[owner][b.rng().below(kPhotos)];
        op.via_app = true;
        b.push(c, op);
      }
    }
  }
}

// Overwrites of 1-4 KiB records: 12 of every 16 writes POST a note, 4
// rewrite a photo caption through the photos app; the 8th and 16th write
// of each block are followed by an owner read-back of the same key.
void note_writes(Builder& b) {
  constexpr std::size_t kUsers = 4, kNotes = 16, kPhotos = 4, kVariants = 4;
  b.add_users(kUsers, kUsers);
  Dataset& d = b.data();
  std::vector<std::vector<std::size_t>> notes(kUsers), photos(kUsers);
  for (std::size_t u = 0; u < kUsers; ++u) {
    const std::string& user = d.users[u];
    for (std::size_t i = 0; i < kNotes; ++i) {
      const std::size_t size = 1024 + b.rng().below(3072);
      std::vector<std::string> variants;
      for (std::size_t v = 0; v < kVariants; ++v) {
        Fields fields{{"body", text(b.rng(), size - 40, false)},
                      {"title", "note " + std::to_string(i)}};
        variants.push_back(canonical_json(fields));
        if (v == 0) {
          notes[u].push_back(
              b.add_record(user, "notes", numbered(user, "n", i), fields));
        }
      }
      d.variants.back() = std::move(variants);
    }
    for (std::size_t i = 0; i < kPhotos; ++i) {
      const std::size_t size = 1024 + b.rng().below(3072);
      std::vector<std::string> captions, variants;
      for (std::size_t v = 0; v < kVariants; ++v) {
        captions.push_back(caption_text(b.rng(), size - 40));
        variants.push_back(canonical_json(
            {{"caption", captions.back()},
             {"title", "photo " + std::to_string(i)}}));
      }
      photos[u].push_back(b.add_record(
          user, "photos", numbered(user, "p", i),
          {{"caption", captions[0]}, {"title", "photo " + std::to_string(i)}}));
      d.variants.back() = std::move(variants);
      d.captions.back() = std::move(captions);
    }
  }
  b.add_warm_notes();
  d.deny_share = 0.0;
  std::vector<std::size_t> written(d.records.size(), 0);
  for (std::size_t c = 0; c < kUsers; ++c) {
    for (std::size_t block = 0; block < 256; ++block) {
      std::vector<bool> caption(16, false);
      for (std::size_t i = 0; i < 4; ++i) caption[i] = true;
      shuffle(caption, b.rng());
      for (std::size_t slot = 0; slot < 16; ++slot) {
        const auto& pool = caption[slot] ? photos[c] : notes[c];
        Op op;
        op.kind = caption[slot] ? Kind::kCaption : Kind::kNoteWrite;
        op.record = pool[b.rng().below(pool.size())];
        op.variant = ++written[op.record] % kVariants;
        b.push(c, op);
        if (slot % 8 == 7) {
          op.kind = Kind::kReadBack;
          b.push(c, op);
        }
      }
    }
  }
}

// One user's photos spread over a home provider and two peers, a quarter
// of each provider's records mirrored onto the next provider so the merge
// has duplicates to drop. Queries AND two of sixteen terms; each caption
// holds four, so a query matches ~5% of the records every leg scans.
// Scanning 500 records per leg keeps a query's CPU work well above the
// cost of starting its two hop threads.
void fed_search(Builder& b) {
  constexpr std::size_t kProviders = 3, kPerProvider = 400, kMirrored = 100;
  b.add_users(1, 1);
  Dataset& d = b.data();
  d.providers = kProviders;
  const char* const prefixes[kProviders] = {"h", "a", "b"};
  for (std::size_t p = 0; p < kProviders; ++p) {
    for (std::size_t i = 0; i < kPerProvider; ++i) {
      std::vector<std::string> words(kTerms, kTerms + kTermCount);
      shuffle(words, b.rng());
      std::string caption;
      for (std::size_t w = 0; w < 4; ++w) caption += words[w] + " ";
      caption += text(b.rng(), 120, false);
      char id[16];
      std::snprintf(id, sizeof(id), "%s-%03zu", prefixes[p], i);
      const std::size_t index = b.add_record(
          "u0", "photos", id,
          {{"caption", caption},
           {"city", kCities[b.rng().below(4)]},
           {"kind", kKinds[b.rng().below(3)]},
           {"title", "photo"}});
      d.records[index].providers = {p};
      if (i < kMirrored) d.records[index].providers.push_back((p + 1) % kProviders);
    }
  }
  b.add_warm_notes();
  for (std::size_t i = 0; i < kTermCount; ++i) {
    for (std::size_t j = i + 1; j < kTermCount; ++j) {
      FedQuery query;
      query.terms = {kTerms[i], kTerms[j]};
      if (b.rng().below(2)) std::swap(query.terms[0], query.terms[1]);
      d.queries.push_back(std::move(query));
    }
  }
  shuffle(d.queries, b.rng());
  std::vector<FedQuery> kept;
  for (FedQuery& query : d.queries) {
    std::size_t matches = 0;
    std::vector<std::size_t> per_source(kProviders, 0);
    for (const GenRecord& record : d.records) {
      if (record.collection != "photos") continue;
      const std::string& caption = record.fields[0].second;
      const auto has = [&caption](const std::string& term) {
        return (" " + caption).find(" " + term + " ") != std::string::npos;
      };
      if (has(query.terms[0]) && has(query.terms[1])) {
        ++matches;
        query.expected_dropped += record.providers.size() - 1;
        for (const std::size_t p : record.providers) ++per_source[p];
      }
    }
    query.expected_items = std::min(matches, kFedLimit);
    // Each source answers at most kFedPerSourceLimit rows; a query past
    // that would make the merge's input depend on row order, not on the
    // data, so it is not used.
    if (*std::max_element(per_source.begin(), per_source.end()) <= kFedPerSourceLimit)
      kept.push_back(std::move(query));
  }
  d.queries = std::move(kept);
  // Every query equally often: rounds of all queries, each round in its
  // own seeded order.
  std::vector<std::size_t> order(d.queries.size());
  for (std::size_t round = 0; round < 32; ++round) {
    for (std::size_t q = 0; q < order.size(); ++q) order[q] = q;
    shuffle(order, b.rng());
    for (const std::size_t q : order) {
      Op op;
      op.kind = Kind::kFed;
      op.query = q;
      b.push(0, op);
    }
  }
}

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  for (const Workload w : {Workload::kTinyReads, Workload::kPhotoViewLarge,
                           Workload::kNoteWrites, Workload::kFedSearch}) {
    if (name == workload_name(w)) return w;
  }
  return std::nullopt;
}

const char* workload_name(Workload workload) {
  switch (workload) {
    case Workload::kTinyReads: return "tiny_reads";
    case Workload::kPhotoViewLarge: return "photo_view_large";
    case Workload::kNoteWrites: return "note_writes";
    case Workload::kFedSearch: return "fed_search";
  }
  return "?";
}

void escape_json(std::string_view s, std::string& out) {
  static constexpr char kHex[] = "0123456789abcdef";
  out.push_back('"');
  for (const char c : s) {
    const auto byte = static_cast<unsigned char>(c);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (byte < 0x20) {
          out += "\\u00";
          out.push_back(kHex[byte >> 4]);
          out.push_back(kHex[byte & 0xf]);
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

std::string canonical_json(const Fields& fields) {
  std::string out = "{";
  for (const auto& [key, value] : fields) {
    if (out.size() > 1) out.push_back(',');
    escape_json(key, out);
    out.push_back(':');
    escape_json(value, out);
  }
  out.push_back('}');
  return out;
}

Dataset generate(Workload workload, std::uint64_t seed) {
  Builder builder(workload, seed * 0x2545f4914f6cdd1dull + 1);
  switch (workload) {
    case Workload::kTinyReads: tiny_reads(builder); break;
    case Workload::kPhotoViewLarge: photo_view_large(builder); break;
    case Workload::kNoteWrites: note_writes(builder); break;
    case Workload::kFedSearch: fed_search(builder); break;
  }
  return std::move(builder.data());
}

}  // namespace perfbench
