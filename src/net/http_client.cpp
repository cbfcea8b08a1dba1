#include "net/http_client.h"

#include <algorithm>

#include "util/strings.h"

namespace w5::net {

util::Result<HttpResponse> HttpClient::roundtrip(Connection& connection,
                                                 const HttpRequest& request) {
  if (auto written = connection.write(request.to_wire()); !written.ok())
    return written.error();
  ResponseParser parser(limits_);
  char buf[8192];
  while (!parser.complete() && !parser.failed()) {
    auto n = connection.read(buf, sizeof(buf));
    if (!n.ok()) return n.error();
    if (n.value() == 0)
      return util::make_error("http.incomplete", "EOF before full response");
    parser.feed(std::string_view(buf, n.value()));
  }
  if (parser.failed()) return parser.error();
  return parser.take();
}

util::Result<HttpResponse> HttpClient::roundtrip_with_retry(
    const ConnectionFactory& factory, const HttpRequest& request,
    const RetryPolicy& policy, const SleepFn& sleep, RetryStats* stats) {
  Backoff backoff(policy);
  util::Result<HttpResponse> last =
      util::make_error("net.retry", "no attempts made");
  while (true) {
    if (stats != nullptr) ++stats->attempts;
    auto connection = factory();
    if (connection.ok()) {
      last = roundtrip(*connection.value(), request);
    } else {
      last = connection.error();
    }

    util::Micros server_hint = 0;  // Retry-After, when the server set one
    bool retryable;
    if (last.ok()) {
      retryable = last.value().status == 503;
      if (retryable) {
        const auto header = last.value().headers.get("Retry-After");
        if (header) {
          if (const auto seconds = util::parse_u64(*header); seconds)
            server_hint = static_cast<util::Micros>(*seconds) * 1'000'000;
        }
      }
    } else {
      retryable = retryable_error(last.error());
    }
    if (!retryable) return last;

    const util::Micros delay = backoff.next_delay();
    if (backoff.exhausted()) return last;
    // Respect the server's own pacing, but never beyond the policy cap —
    // a hostile Retry-After must not park the client for an hour.
    const util::Micros wait =
        std::min(std::max(delay, server_hint), policy.max_backoff);
    if (stats != nullptr) stats->delays.push_back(wait);
    sleep(wait);
  }
}

}  // namespace w5::net
