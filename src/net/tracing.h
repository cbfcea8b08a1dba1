// Cross-hop trace header names for the net layer (DESIGN.md §16).
//
// The trace protocol itself — building a request's context from these
// headers, echoing the id, stamping outbound hops and grafting a peer's
// span dump — lives in core/trace. The layering DAG forbids net/ → core/,
// yet the connection engine (net/http_session) must echo a validated
// inbound id on early-exit responses the handler never sees
// (408/413/431/503), and the reactor reads the echo back for its
// exemplars. So net only knows the header names and the id *shape*.
//
// §3.5: only token-shaped values ([0-9a-zA-Z_-]{1,64}) ever cross here —
// an arbitrary client header can never ride telemetry channels.
#pragma once

#include <string_view>

namespace w5::net {

// Wire header names, shared by the connection engine and core/trace.
inline constexpr std::string_view kTraceHeader = "X-W5-Trace";
inline constexpr std::string_view kParentHeader = "X-W5-Parent";
inline constexpr std::string_view kSampledHeader = "X-W5-Sampled";
inline constexpr std::string_view kSpansHeader = "X-W5-Spans";

// True when `token` is shaped like a trace id ([0-9a-zA-Z_-]{1,64}).
// The one validator: core/trace accepts an inbound id only through it.
bool valid_trace_token(std::string_view token);

}  // namespace w5::net
