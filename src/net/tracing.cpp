#include "net/tracing.h"

#include <utility>

#include "util/lock_ranks.h"
#include "util/thread_annotations.h"

namespace w5::net {

namespace {

// The provider is installed once at startup (first Provider construction)
// and read on every outbound request; a mutex-guarded shared_ptr-free
// design is fine because installation happens-before serving in every
// composition we ship, and the mutex cost is off the serving fast path
// (one outbound hop per federation pull, not per request).
util::Mutex g_provider_mutex{util::lockrank::kNetTraceProvider,
                             "tracing::g_provider_mutex"};
TraceProvider g_provider;

}  // namespace

bool valid_trace_token(std::string_view token) {
  if (token.empty() || token.size() > 64) return false;
  for (const char c : token) {
    const bool ok = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') ||
                    (c >= 'A' && c <= 'Z') || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

void set_outbound_trace_provider(TraceProvider provider) {
  const util::MutexLock lock(g_provider_mutex);
  g_provider = std::move(provider);
}

bool outbound_trace_headers(TraceHeaders* out) {
  TraceProvider provider;
  {
    const util::MutexLock lock(g_provider_mutex);
    provider = g_provider;
  }
  if (!provider) return false;
  return provider(out);
}

}  // namespace w5::net
