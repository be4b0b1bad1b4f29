// Extension experiment: motion-aware asynchronous page prefetching
// (storage/pool_warmer.h) — background buffer-pool warming driven by the
// fleet's predicted motion.
//
// The scenario is the warmer's reason to exist: a roaming fleet on a
// cold pool. Six clients sweep the scene in straight lanes at constant
// speed, so every frame's windows land mostly on pages nobody has
// touched yet. Without warming each first touch stalls the query on
// synchronous page reads; with warming the interest field (the same
// predictor state the motion eviction policy uses) points one tick
// ahead of each lane and the warmer has those pages resident before the
// query arrives. The pool is sized to ~10% of the dataset's pages, so
// nothing survives long — the bench measures prediction, not capacity.
//
// Three configurations replay the identical schedule in lockstep:
//
//   off   --warm off (the passthrough baseline)
//   on    --warm on, 2 I/O workers
//   on8   --warm on, 8 I/O workers (determinism control)
//
// The bench fails loudly if:
//
//   * any query returns different records or node accesses across the
//     three configurations (warming must be invisible to results), or
//   * `on` and `on8` end with different pool counters — the warmer's
//     install protocol makes the I/O pool width unobservable, or
//   * warming never issued a prefetch (the comparison would be vacuous), or
//   * neither acceptance criterion holds: warm-on pool hit rate at least
//     1.5x warm-off, or warm-on p99 first-touch stall (synchronous page
//     reads per query) at least 1.3x lower than warm-off.
//
// CI runs this with MARS_BENCH_SMOKE=1 / MARS_BENCH_JSON=<path>; the
// emitted metrics are deterministic simulated quantities (hit rates,
// stall pages — never wall clock), gated against bench/baselines/ by
// tools/bench_gate.py.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "geometry/box.h"
#include "geometry/vec.h"
#include "index/record.h"
#include "index/shard_map.h"
#include "index/sharded_index.h"
#include "server/motion_interest.h"
#include "storage/storage_manager.h"

namespace {

using namespace mars;  // NOLINT

constexpr int32_t kShards = 4;
constexpr int32_t kPageSize = 2048;
constexpr double kSpaceExtent = 1000.0;
constexpr int kClients = 4;

// Like the storage bench's synthetic coefficient table — clustered
// objects, support regions growing with coefficient weight — but with
// tight supports (a few units, not tens): queries then touch a compact
// set of leaf pages, so the pool holds several frames of working set
// and residency is decided by prediction rather than raw churn.
std::vector<index::CoeffRecord> MakeRecords(int objects, int coeffs,
                                            uint64_t seed) {
  common::Rng rng(seed);
  std::vector<index::CoeffRecord> records;
  records.reserve(static_cast<size_t>(objects) * coeffs);
  for (int obj = 0; obj < objects; ++obj) {
    const double cx = rng.Uniform(50, 950);
    const double cy = rng.Uniform(50, 950);
    for (int c = 0; c < coeffs; ++c) {
      index::CoeffRecord rec;
      rec.object_id = obj;
      rec.coeff_id = c;
      rec.w = rng.UniformDouble();
      const double extent = 1.0 + 4.0 * rec.w;
      const double x = cx + rng.Uniform(-25, 25);
      const double y = cy + rng.Uniform(-25, 25);
      rec.position = {x, y, rng.Uniform(0, 20)};
      rec.support_bounds = geometry::MakeBox3(x - extent, y - extent, 0,
                                              x + extent, y + extent, 20);
      records.push_back(rec);
    }
  }
  return records;
}

struct Step {
  int32_t client_id = 0;
  geometry::Vec2 position;
  geometry::Box2 window;
};

geometry::Box2 WindowAround(const geometry::Vec2& p, double half) {
  const double lo_x = std::clamp(p.x - half, 0.0, kSpaceExtent);
  const double lo_y = std::clamp(p.y - half, 0.0, kSpaceExtent);
  const double hi_x = std::clamp(p.x + half, 0.0, kSpaceExtent);
  const double hi_y = std::clamp(p.y + half, 0.0, kSpaceExtent);
  return geometry::MakeBox2(lo_x, lo_y, hi_x, hi_y);
}

// Straight lanes at constant speed: client c sweeps x = 120 + 140c
// bottom-to-top (odd clients top-to-bottom), covering fresh territory
// every frame — the cold-start roam the warmer is built for.
std::vector<std::vector<Step>> MakeSchedule(int32_t frames, double speed,
                                            double half) {
  std::vector<std::vector<Step>> schedule;
  schedule.reserve(static_cast<size_t>(frames));
  for (int32_t t = 0; t < frames; ++t) {
    std::vector<Step> frame;
    for (int32_t c = 0; c < kClients; ++c) {
      const double x = 125.0 + 190.0 * c;
      const double travelled = 40.0 + speed * t;
      const double y = (c % 2 == 0) ? travelled : kSpaceExtent - travelled;
      Step step;
      step.client_id = c;
      step.position = {x, y};
      step.window = WindowAround(step.position, half);
      frame.push_back(step);
    }
    schedule.push_back(std::move(frame));
  }
  return schedule;
}

index::ShardedIndexOptions WarmOptions(const std::string& path,
                                       int64_t pool_pages, bool warm,
                                       int32_t warm_budget,
                                       int32_t warm_workers) {
  index::ShardedIndexOptions options;
  options.shards = kShards;
  options.storage.store = storage::StoreKind::kDisk;
  options.storage.path = path;
  options.storage.page_size = kPageSize;
  options.storage.pool_pages = pool_pages;
  options.storage.evict = storage::EvictPolicy::kMotion;
  options.storage.warm = warm;
  options.storage.warm_budget = warm_budget;
  options.storage.warm_workers = warm_workers;
  return options;
}

void RemovePageFiles(const std::string& path) {
  std::remove(path.c_str());
  for (int32_t k = 0; k < kShards; ++k) {
    std::remove((path + ".shard" + std::to_string(k)).c_str());
  }
}

struct PoolTotals {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t evictions = 0;
  int64_t disk_reads = 0;
  int64_t disk_writes = 0;
  int64_t resident_pages = 0;
  int64_t prefetch_issued = 0;
  int64_t prefetch_hits = 0;
  int64_t prefetch_wasted = 0;
  int64_t prefetch_dropped = 0;
};

PoolTotals SumPools(const index::ShardedCoefficientIndex& index) {
  PoolTotals total;
  for (const auto& shard : index.PoolStats()) {
    total.hits += shard.pool.hits;
    total.misses += shard.pool.misses;
    total.evictions += shard.pool.evictions;
    total.disk_reads += shard.pool.disk_reads;
    total.disk_writes += shard.pool.disk_writes;
    total.resident_pages += shard.pool.resident_pages;
    total.prefetch_issued += shard.pool.prefetch_issued;
    total.prefetch_hits += shard.pool.prefetch_hits;
    total.prefetch_wasted += shard.pool.prefetch_wasted;
    total.prefetch_dropped += shard.pool.prefetch_dropped;
  }
  return total;
}

double HitRate(const PoolTotals& t) {
  const double total = static_cast<double>(t.hits + t.misses);
  return total > 0.0 ? static_cast<double>(t.hits) / total : 0.0;
}

// p99 over per-query synchronous page reads — the first-touch stall
// proxy: a query that faults k pages in from disk stalls k reads long.
double P99(std::vector<int64_t> stalls) {
  if (stalls.empty()) return 0.0;
  std::sort(stalls.begin(), stalls.end());
  const double n = static_cast<double>(stalls.size());
  const size_t rank = static_cast<size_t>(std::ceil(0.99 * n));
  const size_t idx = rank > 0 ? rank - 1 : 0;
  return static_cast<double>(stalls[std::min(idx, stalls.size() - 1)]);
}

}  // namespace

int main() {
  const bool smoke = bench::SmokeMode();
  const int objects = smoke ? 3200 : 4800;
  const int coeffs = 40;
  const double lane_speed = 20.0;
  const int32_t frames = 44;
  // The warm budget tracks the fleet's per-frame miss front, which
  // scales with record density (objects), not with the pool.
  const int32_t warm_budget = smoke ? 48 : 72;
  const double window_half = 25.0;
  // Skip the first frames when measuring: the predictor needs a couple
  // of observations to lock each lane's velocity and the warmer's
  // dispatch → install pipeline is one tick deep, so the earliest a
  // speculative page can pay off is frame 2. The ramp queries still run
  // (and still must match warm-off exactly) — they just don't count.
  const int32_t ramp_frames = 3;

  const auto records = MakeRecords(objects, coeffs, /*seed=*/11);
  const geometry::Box2 space = index::ShardMap::GroundBounds(records);
  const auto schedule = MakeSchedule(frames, lane_speed, window_half);

  // Probe build: an unbounded pool retains every page the build writes,
  // so the resident total is the dataset's page count — which sizes the
  // contenders' pools at ~10% of the data.
  const std::string probe_path = "bench_warming_probe.pages";
  RemovePageFiles(probe_path);
  int64_t dataset_pages = 0;
  {
    index::ShardedCoefficientIndex probe(WarmOptions(
        probe_path, /*pool_pages=*/1 << 30, /*warm=*/false, 48, 1));
    probe.Build(records);
    dataset_pages = SumPools(probe).resident_pages;
  }
  RemovePageFiles(probe_path);
  const int64_t pool_pages = std::max<int64_t>(kShards, dataset_pages / 10);

  // The three contenders replay the same schedule in lockstep.
  struct Pass {
    const char* name;
    std::string path;
    bool warm;
    int32_t warm_workers;
    std::unique_ptr<index::ShardedCoefficientIndex> index;
    std::vector<int64_t> stalls;  // per-query synchronous page reads
  };
  Pass passes[] = {
      {"off", "bench_warming_off.pages", false, 1, nullptr, {}},
      {"on", "bench_warming_on.pages", true, 2, nullptr, {}},
      {"on8", "bench_warming_on8.pages", true, 8, nullptr, {}},
  };
  for (Pass& pass : passes) {
    RemovePageFiles(pass.path);
    pass.index = std::make_unique<index::ShardedCoefficientIndex>(WarmOptions(
        pass.path, pool_pages, pass.warm, warm_budget, pass.warm_workers));
    pass.index->Build(records);
  }

  // Interest field tuned for warm-ahead rather than broad protection: a
  // grid finer than the query windows (blocks ~31 units vs 50-unit
  // windows) so "just behind" and "just ahead" of a lane land in
  // different cells, and a short horizon so probability mass
  // concentrates on the next few frames instead of smearing down the
  // whole lane.
  server::MotionInterestTracker::Options interest_options;
  interest_options.grid_nx = 32;
  interest_options.grid_ny = 32;
  interest_options.probability.horizon = 4;
  server::MotionInterestTracker tracker(space, interest_options);
  int64_t queries = 0;
  size_t measure_start = 0;
  PoolTotals base[3];
  for (int32_t frame_idx = 0; frame_idx < frames; ++frame_idx) {
    const std::vector<Step>& frame = schedule[static_cast<size_t>(frame_idx)];
    // Mirror the fleet's serial phase: install the previous tick's
    // speculative reads, refresh the interest field, dispatch the next
    // batch — then serve the tick's queries (which overlap the new
    // batch's reads, exactly as fleet Phase A does).
    for (const Step& step : frame) {
      tracker.Observe(step.client_id, step.position);
    }
    const storage::InterestGrid interest = tracker.Snapshot();
    for (Pass& pass : passes) {
      pass.index->WarmJoin();
      pass.index->UpdateInterest(interest);
      pass.index->WarmDispatch();
    }

    if (frame_idx == ramp_frames) {
      measure_start = passes[0].stalls.size();
      for (int p = 0; p < 3; ++p) {
        base[p] = SumPools(*passes[p].index);
      }
    }

    for (const Step& step : frame) {
      std::vector<index::RecordId> want;
      int64_t want_io = 0;
      for (Pass& pass : passes) {
        const PoolTotals before = SumPools(*pass.index);
        std::vector<index::RecordId> got;
        const int64_t io = pass.index->Query(step.window, 0.2, 1.0, &got);
        const PoolTotals after = SumPools(*pass.index);
        pass.stalls.push_back(after.disk_reads - before.disk_reads);
        if (&pass == &passes[0]) {
          want = std::move(got);
          want_io = io;
        } else if (got != want || io != want_io) {
          std::fprintf(stderr,
                       "FATAL: pass %s diverged from warm-off on query %lld "
                       "(records %zu vs %zu, accesses %lld vs %lld) — "
                       "warming changed results\n",
                       pass.name, static_cast<long long>(queries), got.size(),
                       want.size(), static_cast<long long>(io),
                       static_cast<long long>(want_io));
          for (Pass& p : passes) RemovePageFiles(p.path);
          return 1;
        }
      }
      ++queries;
    }
  }
  for (Pass& pass : passes) pass.index->WarmJoin();

  const PoolTotals off = SumPools(*passes[0].index);
  const PoolTotals on = SumPools(*passes[1].index);
  const PoolTotals on8 = SumPools(*passes[2].index);
  for (Pass& pass : passes) {
    pass.index.reset();
    RemovePageFiles(pass.path);
  }

  // The I/O pool width must be unobservable: every counter — query-path
  // and prefetch alike — identical between 2 and 8 warm workers.
  if (on.hits != on8.hits || on.misses != on8.misses ||
      on.evictions != on8.evictions || on.disk_reads != on8.disk_reads ||
      on.disk_writes != on8.disk_writes ||
      on.prefetch_issued != on8.prefetch_issued ||
      on.prefetch_hits != on8.prefetch_hits ||
      on.prefetch_wasted != on8.prefetch_wasted ||
      on.prefetch_dropped != on8.prefetch_dropped ||
      passes[1].stalls != passes[2].stalls) {
    std::fprintf(stderr,
                 "FATAL: warm-workers 2 vs 8 pool counters diverged — the "
                 "warmer leaked I/O timing into observable state\n");
    return 1;
  }
  if (on.prefetch_issued == 0) {
    std::fprintf(stderr,
                 "FATAL: warming never issued a prefetch; the comparison "
                 "is vacuous\n");
    return 1;
  }

  // Rates and percentiles over the measured window only (post-ramp).
  auto measured = [&](const PoolTotals& totals, const PoolTotals& start) {
    PoolTotals d = totals;
    d.hits -= start.hits;
    d.misses -= start.misses;
    d.evictions -= start.evictions;
    d.disk_reads -= start.disk_reads;
    return d;
  };
  const PoolTotals off_run = measured(off, base[0]);
  const PoolTotals on_run = measured(on, base[1]);
  auto measured_stalls = [&](const Pass& pass) {
    return std::vector<int64_t>(pass.stalls.begin() +
                                    static_cast<std::ptrdiff_t>(measure_start),
                                pass.stalls.end());
  };
  const double off_hit_rate = HitRate(off_run);
  const double on_hit_rate = HitRate(on_run);
  const double hit_ratio =
      off_hit_rate > 0.0 ? on_hit_rate / off_hit_rate : 0.0;
  const double off_p99 = P99(measured_stalls(passes[0]));
  const double on_p99 = P99(measured_stalls(passes[1]));
  const double stall_ratio = on_p99 > 0.0 ? off_p99 / on_p99 : off_p99;

  std::printf("motion-aware pool warming%s\n", smoke ? " (smoke)" : "");
  std::printf(
      "dataset: %zu records, %lld pages of %d B; pool %lld pages "
      "(%.1f%% of data) split over %d shards\n",
      records.size(), static_cast<long long>(dataset_pages), kPageSize,
      static_cast<long long>(pool_pages),
      100.0 * static_cast<double>(pool_pages) /
          static_cast<double>(std::max<int64_t>(dataset_pages, 1)),
      kShards);
  std::printf(
      "workload: %lld queries over %d frames (%d-frame ramp excluded from "
      "measurement), %d roaming lanes at %.0f units/frame\n",
      static_cast<long long>(queries), frames, ramp_frames, kClients,
      lane_speed);
  std::printf("%-6s %10s %12s %16s %12s\n", "warm", "hit rate", "page reads",
              "p99 stall pages", "evictions");
  std::printf("%-6s %9.1f%% %12lld %16.0f %12lld\n", "off",
              100.0 * off_hit_rate,
              static_cast<long long>(off_run.disk_reads), off_p99,
              static_cast<long long>(off_run.evictions));
  std::printf("%-6s %9.1f%% %12lld %16.0f %12lld\n", "on",
              100.0 * on_hit_rate, static_cast<long long>(on_run.disk_reads),
              on_p99, static_cast<long long>(on_run.evictions));
  std::printf(
      "prefetch: %lld issued, %lld hit, %lld wasted, %lld dropped\n",
      static_cast<long long>(on.prefetch_issued),
      static_cast<long long>(on.prefetch_hits),
      static_cast<long long>(on.prefetch_wasted),
      static_cast<long long>(on.prefetch_dropped));
  std::printf(
      "warm-on hit rate %.2fx warm-off; p99 first-touch stall %.2fx "
      "lower\n",
      hit_ratio, stall_ratio);
  std::printf("every warm query matched warm-off exactly\n");

  if (hit_ratio < 1.5 && stall_ratio < 1.3) {
    std::fprintf(stderr,
                 "FATAL: warming met neither acceptance bar (hit-rate "
                 "ratio %.3f < 1.5 and p99 stall ratio %.3f < 1.3)\n",
                 hit_ratio, stall_ratio);
    return 1;
  }

  const std::vector<bench::BenchMetric> metrics = {
      {"warm_on_hit_rate", on_hit_rate, true},
      {"warm_off_hit_rate", off_hit_rate, true},
      {"warm_hit_ratio", hit_ratio, true},
      {"warm_on_p99_stall_pages", on_p99, false},
      {"warm_off_p99_stall_pages", off_p99, false},
      {"warm_on_page_reads", static_cast<double>(on.disk_reads), false},
      {"prefetch_issued", static_cast<double>(on.prefetch_issued), false},
      {"prefetch_hits", static_cast<double>(on.prefetch_hits), true},
  };
  if (!bench::WriteBenchJson("warming", metrics)) {
    return 1;
  }
  return 0;
}
