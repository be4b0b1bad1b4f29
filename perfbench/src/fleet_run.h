#ifndef PERFBENCH_FLEET_RUN_H_
#define PERFBENCH_FLEET_RUN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/system.h"
#include "fleet/fleet_engine.h"
#include "report.h"
#include "workloads.h"

namespace perfbench {

// A fresh directory for one System's page files, removed with everything
// in it on destruction. A rerun against an existing page file restores
// the trees instead of building them, so every disk System gets its own.
class PageDir {
 public:
  // Creates a new directory under `parent` (made first if missing).
  explicit PageDir(const std::string& parent);
  ~PageDir();

  PageDir(const PageDir&) = delete;
  PageDir& operator=(const PageDir&) = delete;

  // Empty when the directory could not be created.
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// The workload's System config, with disk page files placed in `dir`.
mars::core::System::Config SystemConfig(const Workload& workload,
                                        const PageDir& dir);

// A built System and the FleetEngine over it. Members are destroyed in
// reverse order, so the page files outlive the System using them.
struct FleetSetup {
  std::unique_ptr<PageDir> dir;
  std::unique_ptr<mars::core::System> system;
  std::unique_ptr<mars::fleet::FleetEngine> engine;
  // Empty when set-up succeeded.
  std::string failure;
  // Wall and process CPU time of System::Create + FleetEngine
  // construction.
  double seconds = 0.0;
  double cpu_seconds = 0.0;
};

// The timed set-up shared by every fleet run and the set-up-only passes.
FleetSetup SetUpFleet(const Workload& workload,
                      const std::vector<mars::fleet::ClientSpec>& specs,
                      const std::string& scratch);

// One untraced fleet run: SetUpFleet, then FleetEngine::Run, then the
// correctness checks.
struct FleetRun {
  // Correctness checks that failed; empty for a good run.
  std::vector<std::string> failures;
  double setup_seconds = 0.0;
  double setup_cpu_seconds = 0.0;
  double run_seconds = 0.0;
  // CPU time of every thread in the process during Run, and the CPU time
  // the host withheld from this machine meanwhile (steal, all CPUs).
  double run_cpu_seconds = 0.0;
  double run_steal_seconds = 0.0;
  // Peak resident set from set-up to the end of Run.
  double peak_rss_mb = 0.0;
  // FNV-1a over every client's and the aggregate's full-precision
  // RunMetricsJson, in client-id order.
  uint64_t digest = 0;
  // The simulated end-to-end figures in the result line: deterministic
  // for the workload's inputs, identical on every run.
  std::vector<Metric> simulated;
  // Simulated response times and the failed share, printed beside them
  // but kept out of the result line (README.md says why).
  std::vector<Metric> response;
  // Per-layer counts taken from FleetResult and Server::PoolStats().
  std::vector<Metric> layer_counts;
  // Paged index size right after set-up.
  int64_t index_pages = 0;
};

FleetRun RunFleet(const Workload& workload,
                  const std::vector<mars::fleet::ClientSpec>& specs,
                  const std::string& scratch);

}  // namespace perfbench

#endif  // PERFBENCH_FLEET_RUN_H_
