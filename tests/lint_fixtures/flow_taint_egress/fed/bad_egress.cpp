// Seeded egress violation: record bytes become the wire argument of a
// federation hop, exchange(), with no declassifier gate on the path.
// w5flow must report the chain (share_note -> send_to_peer ->
// exchange()). The std::exchange and member .exchange() calls below also
// take record bytes, but neither writes to a peer: they must not be
// reported.
#include <string>
#include <utility>

namespace w5::fed {

// Source: the value is derived from a store::Record.
std::string note_text(const store::Record& record) {
  std::string text = record.value();
  return text;
}

// The leaky hop: its parameter is written to the peer uncleansed.
void send_to_peer(net::InMemoryNetwork& network, const std::string& wire) {
  auto response = exchange(network, "peer-b", wire, nullptr);
}

// The caller that closes the source->sink path.
void share_note(net::InMemoryNetwork& network, const store::Record& record,
                std::atomic<std::string*>& slot) {
  std::string wire = note_text(record);
  std::string previous = std::exchange(wire, wire);
  slot.exchange(&wire);
  send_to_peer(network, wire);
}

}  // namespace w5::fed
