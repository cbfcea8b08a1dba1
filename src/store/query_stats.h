// Plain-struct query-engine statistics (DESIGN.md §17).
//
// Deliberately record-free: this header carries only counters and config
// echoes, so telemetry/debug surfaces (statusz, /metrics) can render
// index and planner health without ever being one include away from user
// data bytes (w5lint's §3.5 telemetry rule bans store/record.h AND
// store/labeled_store.h in telemetry files; this header is the sanctioned
// stats hand-off).
#pragma once

#include <cstddef>
#include <cstdint>

namespace w5::store {

struct QueryEngineStats {
  // Planner access-path choices, counted per shard visit (a single query
  // increments one of these up to kShardCount times).
  std::uint64_t plans_field = 0;  // field-value posting list
  std::uint64_t plans_owner = 0;  // owner posting list
  std::uint64_t plans_scan = 0;   // label-grouped ordered scan

  // Label-set posting-list clearance checks: one subset check
  // per (group, shard, query). Skipped groups are records the engine
  // never touched at all — the §3.5-friendly fast path.
  std::uint64_t label_groups_checked = 0;
  std::uint64_t label_groups_skipped = 0;

  std::uint64_t cursor_resumes = 0;  // queries resumed from a page cursor

  // Index inventory (gauges, sampled under shard read locks).
  std::size_t registered_indexes = 0;  // IndexSpec count
  std::size_t field_postings = 0;      // distinct (field,value) lists
  std::size_t label_postings = 0;      // distinct secrecy-label lists
  std::size_t owner_postings = 0;      // distinct owner lists

  // Covert-channel governor (DESIGN.md §17, §3.5).
  std::uint64_t queries_admitted = 0;
  std::uint64_t queries_denied = 0;   // store.query_budget errors issued
  std::size_t budget_principals = 0;  // live metering windows
  std::size_t count_quantum = 1;      // 1 = exact counts
  std::uint64_t budget_queries = 0;   // 0 = unmetered
};

}  // namespace w5::store
