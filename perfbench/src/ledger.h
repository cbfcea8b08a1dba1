// The traced run's layer ledger. The benchmark times calls into each
// layer's public functions from its own code (spans kept in memory), on
// a sample of the same requests the timed phases send; nothing inside
// the program is instrumented for it.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "dataset.h"
#include "drive.h"
#include "fixture.h"

namespace perfbench {

using Metrics = std::vector<std::pair<std::string, double>>;

// Exact counts over the first `count` requests of the schedule, replayed
// in-process on freshly set-up state, so one seed always gives the same
// numbers: core.audit_events_per_req, fed.dedup_dropped_per_query,
// store.wal_bytes_per_write, store.wal_bytes_per_user_byte. Also checks
// the merge dropped exactly the mirrored copies the dataset planted
// (a mismatch counts as a failed check).
Metrics count_pass(Fixture& fixture, const Dataset& data,
                   const std::vector<Request>& requests, Checker& checker,
                   std::size_t count);

// Per-layer costs (ns per call) on the first `sample` requests of the
// schedule (medians over several passes), plus
// ledger.layer_sum_share (top-level layer calls / Provider::handle on the
// same requests), ledger.remainder_share and trace.overhead_share.
// Layers a workload never reaches report 0.
Metrics measure_layers(Fixture& fixture, const Dataset& data,
                       const std::vector<Request>& requests, Checker& checker,
                       std::size_t sample);

}  // namespace perfbench
