#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "fleet/fleet_engine.h"
#include "report.h"
#include "workloads.h"

namespace perfbench {

// The traced run's per-layer timings.
struct TraceRun {
  std::vector<std::string> failures;
  std::vector<Metric> metrics;
  // Client steps replayed with spans on and off, for `attempted`.
  int64_t steps = 0;
};

// Times calls into each layer's public functions from outside the
// program:
//
//  * the set-up breakdown: scene generation, a server::Server built from
//    the database, and tour generation;
//  * an index probe pass on that fresh server: sharded_index()
//    .QueryProfiled over every client frame's viewport window;
//  * a serial replay of the workload's clients and tours that calls, per
//    tick and in System::Run* order, WarmPoolsJoin, ObserveClientMotion
//    per client, RefreshPoolInterest, TickRebalancer, WarmPoolsDispatch,
//    each client's Step, server::EncodeRecords on the records it
//    delivered and SharedMediumLink::Submit, then Advance once.
//
// The replay runs in pairs, once with spans and once without, each on a
// fresh System, until `seconds` have passed (at least one pair);
// trace.overhead is the median with/without wall-time ratio. Admission,
// coalescing and cells live inside FleetEngine and are not replayed.
TraceRun RunTrace(const Workload& workload,
                  const std::vector<mars::fleet::ClientSpec>& specs,
                  const std::string& scratch, double seconds);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
