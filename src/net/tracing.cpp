#include "net/tracing.h"

namespace w5::net {

bool valid_trace_token(std::string_view token) {
  if (token.empty() || token.size() > 64) return false;
  for (const char c : token) {
    const bool ok = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') ||
                    (c >= 'A' && c <= 'Z') || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

}  // namespace w5::net
