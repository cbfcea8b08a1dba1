// Minimal HTTP/1.1 client: one round trip over an existing Connection,
// plus a retrying variant (exponential backoff + jitter) that re-dials
// through a connection factory. Used by tests and the examples; the
// federation hops use their own exchange over the in-memory wire
// (fed/node.h).
#pragma once

#include <memory>
#include <vector>

#include "net/backoff.h"
#include "net/http.h"
#include "net/http_parser.h"
#include "net/transport.h"
#include "util/result.h"

namespace w5::net {

// Dials a fresh connection per attempt (retries never reuse a socket
// that already failed mid-exchange).
using ConnectionFactory =
    std::function<util::Result<std::unique_ptr<Connection>>()>;

class HttpClient {
 public:
  // What a retried exchange did, for tests and telemetry.
  struct RetryStats {
    int attempts = 0;
    std::vector<util::Micros> delays;  // backoff waited before each retry
  };

  explicit HttpClient(ParserLimits limits = {}) : limits_(limits) {}

  // Writes the request and reads one response. With the in-memory
  // transport the server must have already produced the response bytes
  // (InMemoryNetwork accept handlers serve synchronously).
  util::Result<HttpResponse> roundtrip(Connection& connection,
                                       const HttpRequest& request);

  // roundtrip with retry: dials via `factory`, retries transport-level
  // failures (net.io/net.timeout/net.reset/net.unreachable/
  // http.incomplete) and 503 responses, sleeping the backoff delay (or
  // the server's Retry-After, whichever is longer) between attempts.
  // Non-retryable errors and non-503 responses return immediately; an
  // exhausted budget returns the last error (or the last 503 response —
  // it is a valid answer, just a negative one).
  util::Result<HttpResponse> roundtrip_with_retry(
      const ConnectionFactory& factory, const HttpRequest& request,
      const RetryPolicy& policy, const SleepFn& sleep = real_sleep(),
      RetryStats* stats = nullptr);

 private:
  ParserLimits limits_;
};

}  // namespace w5::net
