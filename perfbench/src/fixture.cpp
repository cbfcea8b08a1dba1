#include "fixture.h"

#include <stdexcept>

#include "apps/apps.h"
#include "util/json.h"

namespace perfbench {

namespace {

using w5::net::Method;

void expect(bool ok, const std::string& what) {
  if (!ok) throw std::runtime_error("set-up failed: " + what);
}

}  // namespace

Fixture::Fixture(const Dataset& data, const std::string& durability_dir)
    : data_(data) {
  const bool fed = data.workload == Workload::kFedSearch;
  if (fed) network_ = std::make_unique<w5::net::InMemoryNetwork>();
  for (std::size_t p = 0; p < data.providers; ++p) {
    w5::platform::ProviderConfig config;
    if (data.workload == Workload::kNoteWrites) {
      config.durability.enabled = true;
      config.durability.dir = durability_dir;
      config.durability.mode = w5::store::DurabilityMode::kNone;
    }
    providers_.push_back(
        std::make_unique<w5::platform::Provider>(std::move(config), clock_));
    if (data.workload == Workload::kNoteWrites &&
        providers_.back()->durable() == nullptr) {
      expect(false, "durability: " +
                        providers_.back()->durability_status().error().code);
    }
    if (!fed) {
      expect(providers_.back()->modules().add(w5::apps::make_photo_app()).ok(),
             "register photos app");
    }
    for (const std::string& user : data.users)
      expect(providers_.back()->signup(user, kPassword).ok(), "signup " + user);
  }
  for (const std::string& user : data.users) {
    auto token = home().login(user, kPassword);
    expect(token.ok(), "login " + user);
    sessions_.push_back(token.value());
  }

  if (fed) {
    const std::string names[] = {"home", "peer0", "peer1"};
    for (std::size_t p = 0; p < data.providers; ++p) {
      nodes_.push_back(std::make_unique<w5::fed::Node>(
          names[p], *providers_[p], *network_));
    }
    for (std::size_t p = 1; p < data.providers; ++p) {
      for (const std::string& user : data.users) {
        nodes_[0]->mirrors().authorize(user, names[p]);
        nodes_[p]->mirrors().authorize(user, names[0]);
      }
    }
    meta_ = std::make_unique<w5::fed::Metasearch>(*nodes_[0]);
    meta_->install();
  }

  if (data.workload == Workload::kNoteWrites) {
    for (std::size_t u = 0; u < data.users.size(); ++u) {
      const auto response = home().http(
          Method::kPost, "/policy",
          R"({"declassifier":"std/owner-only","write_grants":["photoco/photos"]})",
          sessions_[u]);
      expect(response.status == 200, "grant photos write to " + data.users[u]);
    }
  }

  for (const GenRecord& record : data.records) {
    std::size_t owner = 0;
    while (data.users[owner] != record.owner) ++owner;
    if (fed && record.collection == "photos") {
      auto parsed = w5::util::Json::parse(record.json);
      expect(parsed.ok(), "parse " + record.id);
      for (const std::size_t p : record.providers) {
        expect(nodes_[p]->put_user_record(record.owner, record.collection,
                                          record.id, parsed.value())
                   .ok(),
               "fed put " + record.id);
      }
      continue;
    }
    const auto response =
        home().http(Method::kPost, "/data/" + record.collection + "/" + record.id,
                    record.json, sessions_[owner]);
    expect(response.status == 201, "load " + record.id);
  }
}

Fixture::~Fixture() = default;

std::string Fixture::verify() const {
  for (const GenRecord& record : data_.records) {
    if (data_.workload == Workload::kFedSearch && record.collection == "photos")
      continue;  // checked through every /fed/search page instead
    std::size_t owner = 0;
    while (data_.users[owner] != record.owner) ++owner;
    const auto response = providers_[0]->http(
        Method::kGet, "/data/" + record.collection + "/" + record.id, "",
        sessions_[owner]);
    if (response.status != 200 || response.body != record.json) {
      return "record " + record.collection + "/" + record.id +
             " read back as status " + std::to_string(response.status) +
             ", " + std::to_string(response.body.size()) + " bytes (expected " +
             std::to_string(record.json.size()) + ")";
    }
  }
  return {};
}

}  // namespace perfbench
