#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/system.h"
#include "fleet/fleet_engine.h"

namespace perfbench {

// One benchmark workload: a fleet size, a System configuration and the
// fleet options. README.md records why each workload exists.
struct Workload {
  std::string name;
  // The fleet's seed for MakeMixedFleet (the scene's is system.scene.seed).
  uint64_t fleet_seed = 0;
  int32_t clients = 0;
  int32_t frames = 0;
  mars::core::System::Config system;
  // workers is the fleet's phase-A thread count before the nproc clamp.
  mars::fleet::FleetOptions fleet;

  bool disk() const {
    return system.storage.store == mars::storage::StoreKind::kDisk;
  }
  int64_t total_frames() const {
    return static_cast<int64_t>(clients) * frames;
  }
};

// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

// Fills `out` with workload `name` and its pinned scene and fleet seeds.
// Returns false for an unknown name.
bool MakeWorkload(const std::string& name, Workload* out);

// The workload's mixed fleet: streaming, buffered and naive clients on
// alternating tram and walk tours.
std::vector<mars::fleet::ClientSpec> MakeSpecs(const Workload& workload);

// Threads a run of `workload` uses: fleet workers, plus warm workers when
// the pool warmer runs, plus fan-out workers when fan-out is parallel.
int32_t ThreadBudget(const Workload& workload);

// Lowers the fleet's worker count so ThreadBudget() <= nproc - 1 (never
// below one worker). Fleet output is identical at any worker count, so only the
// wall-clock figures depend on the clamp.
void ClampToCores(int32_t nproc, Workload* workload);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
