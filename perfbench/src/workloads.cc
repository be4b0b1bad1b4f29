#include "workloads.h"

#include <algorithm>

namespace perfbench {

namespace {

using mars::storage::EvictPolicy;
using mars::storage::StoreKind;

// Every workload serves the same 100-object (~19 MB) city at the fleet's
// standard cruise speed; they differ in placement, storage and serving
// features.
constexpr int32_t kObjects = 100;
constexpr double kSpeed = 0.5;
constexpr int64_t kPoolPages = 256;

// The pinned scenario. The simulated fleet is chaotic in its inputs: with
// the fleet seeded per run, disk_motion_admit's frames_per_s spreads over
// 0.63 of its median across seeds (README.md), so a run-to-run figure is
// only steady on a fixed scene and fleet.
constexpr uint64_t kSceneSeed = 42;
constexpr uint64_t kFleetSeed = 42;

Workload Base(const std::string& name) {
  Workload w;
  w.name = name;
  w.fleet_seed = kFleetSeed;
  w.system.scene.object_count = kObjects;
  w.system.scene.seed = kSceneSeed;
  return w;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {
      "mixed_mem", "disk_motion_admit", "zipf_sharded_all"};
  return kNames;
}

bool MakeWorkload(const std::string& name, Workload* out) {
  Workload w = Base(name);
  // Every workload runs three threads (fleet + warm workers): one core of
  // a 4-core machine stays free for the OS and the parent process. Run to
  // run, mixed_mem's frames_per_s spread 0.15 at 4 fleet workers and 0.06
  // at 3 (eight interleaved runs each on a 4-core VM).
  if (name == "mixed_mem") {
    // The plain serving path: memory store, one shard, one cell.
    w.clients = 128;
    w.frames = 120;
    w.fleet.workers = 3;
  } else if (name == "disk_motion_admit") {
    // The motion-eviction x admission cliff: motion-scored pool eviction,
    // background warming and admission deferrals over a pool far smaller
    // than the paged index.
    w.clients = 32;
    w.frames = 20;
    w.fleet.workers = 2;
    w.system.storage.store = StoreKind::kDisk;
    w.system.storage.pool_pages = kPoolPages;
    w.system.storage.evict = EvictPolicy::kMotion;
    w.system.storage.warm = true;
    w.system.storage.warm_workers = 1;
    w.fleet.admission.enabled = true;
  } else if (name == "zipf_sharded_all") {
    // Every serving feature on a skewed scene: rebalanced shards, four
    // cells, coalescing, the ABR ladder and admission, over LRU pages.
    w.clients = 128;
    w.frames = 120;
    w.fleet.workers = 3;
    w.system.scene.placement = mars::workload::Placement::kZipf;
    w.system.shards = 4;
    w.system.rebalance.enabled = true;
    w.system.storage.store = StoreKind::kDisk;
    w.system.storage.pool_pages = kPoolPages;
    w.system.storage.evict = EvictPolicy::kLru;
    w.fleet.cells = 4;
    w.fleet.coalesce.enabled = true;
    w.fleet.abr.enabled = true;
    w.fleet.admission.enabled = true;
  } else {
    return false;
  }
  *out = w;
  return true;
}

std::vector<mars::fleet::ClientSpec> MakeSpecs(const Workload& workload) {
  return mars::fleet::FleetEngine::MakeMixedFleet(
      workload.clients, workload.frames, kSpeed, workload.fleet_seed);
}

int32_t ThreadBudget(const Workload& workload) {
  const auto& storage = workload.system.storage;
  int32_t threads = workload.fleet.workers;
  if (storage.warm) threads += storage.warm_workers;
  if (workload.system.fanout_workers > 1) {
    threads += workload.system.fanout_workers;
  }
  return threads;
}

void ClampToCores(int32_t nproc, Workload* workload) {
  const int32_t budget = std::max(1, nproc - 1);
  const int32_t others = ThreadBudget(*workload) - workload->fleet.workers;
  workload->fleet.workers =
      std::max(1, std::min(workload->fleet.workers, budget - others));
}

}  // namespace perfbench
