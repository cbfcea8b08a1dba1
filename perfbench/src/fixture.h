// The system under test, built from a Dataset through public entry
// points only: Provider construction, signup/login, and the HTTP routes
// (or, for fed_search, fed::Node::put_user_record on each provider).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/provider.h"
#include "dataset.h"
#include "fed/metasearch.h"
#include "fed/node.h"
#include "net/transport.h"
#include "util/clock.h"

namespace perfbench {

class Fixture {
 public:
  // Set-up proper, the part setup_s times. Every workload serves the
  // default ProviderConfig, except that note_writes turns durability on
  // (kNone, in `durability_dir`) and fed_search installs fed::Metasearch
  // over two consenting in-process peers. Throws std::runtime_error when
  // a set-up request fails.
  Fixture(const Dataset& data, const std::string& durability_dir);
  ~Fixture();

  Fixture(const Fixture&) = delete;
  Fixture& operator=(const Fixture&) = delete;

  // Reads every record owned on the home provider back and compares its
  // bytes with the generated canonical form. Empty string when all match.
  std::string verify() const;

  w5::platform::Provider& home() { return *providers_[0]; }
  // All providers (fed_search: home, then the peers) and their nodes.
  const std::vector<std::unique_ptr<w5::platform::Provider>>& providers() const {
    return providers_;
  }
  const std::vector<std::unique_ptr<w5::fed::Node>>& nodes() const {
    return nodes_;
  }
  w5::fed::Metasearch* metasearch() { return meta_.get(); }
  // Session token per user on the home provider (index = user index).
  const std::vector<std::string>& sessions() const { return sessions_; }

 private:
  const Dataset& data_;
  w5::util::WallClock clock_;
  // Declaration order is teardown order reversed: the metasearch joins
  // its hop threads before the nodes and the wire they dial go away.
  std::unique_ptr<w5::net::InMemoryNetwork> network_;
  std::vector<std::unique_ptr<w5::platform::Provider>> providers_;
  std::vector<std::unique_ptr<w5::fed::Node>> nodes_;
  std::unique_ptr<w5::fed::Metasearch> meta_;
  std::vector<std::string> sessions_;
};

}  // namespace perfbench
