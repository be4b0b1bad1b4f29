#include "fleet_run.h"

#include <stdlib.h>

#include <chrono>
#include <filesystem>
#include <memory>
#include <system_error>
#include <utility>

#include "storage/storage_manager.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

uint64_t Digest(const std::string& text, uint64_t hash) {
  return mars::storage::Fnv1a64(
      reinterpret_cast<const uint8_t*>(text.data()), text.size(), hash);
}

uint64_t ResultDigest(const mars::fleet::FleetResult& result) {
  uint64_t hash = mars::storage::kFnvOffset;
  for (const mars::fleet::ClientResult& client : result.clients) {
    hash = Digest(std::to_string(client.spec.id) + ":" +
                      mars::core::RunMetricsJson(client.metrics) + "\n",
                  hash);
  }
  return Digest("aggregate:" + mars::core::RunMetricsJson(result.aggregate),
                hash);
}

}  // namespace

PageDir::PageDir(const std::string& parent) {
  std::error_code ec;
  std::filesystem::create_directories(parent, ec);
  std::string templ = parent + "/pages-XXXXXX";
  if (mkdtemp(templ.data()) != nullptr) path_ = templ;
}

PageDir::~PageDir() {
  if (path_.empty()) return;
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

mars::core::System::Config SystemConfig(const Workload& workload,
                                        const PageDir& dir) {
  mars::core::System::Config config = workload.system;
  if (workload.disk()) config.storage.path = dir.path() + "/index.pages";
  return config;
}

FleetSetup SetUpFleet(const Workload& workload,
                      const std::vector<mars::fleet::ClientSpec>& specs,
                      const std::string& scratch) {
  FleetSetup setup;
  setup.dir = std::make_unique<PageDir>(scratch);
  if (workload.disk() && setup.dir->path().empty()) {
    setup.failure = "cannot create a page-file directory in " + scratch;
    return setup;
  }
  const double cpu_start = ProcessCpuSeconds();
  const Clock::time_point start = Clock::now();
  auto created = mars::core::System::Create(SystemConfig(workload, *setup.dir));
  if (!created.ok()) {
    setup.failure = "System::Create: " + created.status().ToString();
    return setup;
  }
  setup.system = std::move(created).value();
  setup.engine = std::make_unique<mars::fleet::FleetEngine>(
      *setup.system, workload.fleet, specs);
  setup.seconds = SecondsSince(start);
  setup.cpu_seconds = ProcessCpuSeconds() - cpu_start;
  return setup;
}

FleetRun RunFleet(const Workload& workload,
                  const std::vector<mars::fleet::ClientSpec>& specs,
                  const std::string& scratch) {
  FleetRun run;
  ResetPeakRss();
  const FleetSetup setup = SetUpFleet(workload, specs, scratch);
  if (!setup.failure.empty()) {
    run.failures.push_back(setup.failure);
    return run;
  }
  run.setup_seconds = setup.seconds;
  run.setup_cpu_seconds = setup.cpu_seconds;

  const mars::server::Server& server = setup.system->server();
  for (const auto& s : server.PoolStats()) run.index_pages += s.file_pages;

  const double steal_start = StealSeconds();
  const double cpu_start = ProcessCpuSeconds();
  const Clock::time_point run_start = Clock::now();
  const mars::fleet::FleetResult result = setup.engine->Run();
  run.run_seconds = SecondsSince(run_start);
  run.run_cpu_seconds = ProcessCpuSeconds() - cpu_start;
  run.run_steal_seconds = StealSeconds() - steal_start;
  run.peak_rss_mb = PeakRssMb();

  // --- Correctness checks ---------------------------------------------
  const int64_t frames = workload.total_frames();
  if (static_cast<int64_t>(result.clients.size()) != workload.clients) {
    run.failures.push_back("fleet returned " +
                           std::to_string(result.clients.size()) +
                           " clients, expected " +
                           std::to_string(workload.clients));
  }
  if (result.aggregate.frames != frames) {
    run.failures.push_back("aggregate.frames " +
                           std::to_string(result.aggregate.frames) +
                           " != clients x frames " + std::to_string(frames));
  }
  if (result.chaos_session_desyncs != 0 ||
      result.chaos_duplicate_deliveries != 0 ||
      result.chaos_stranded_waiters != 0 ||
      result.chaos_unresolved_exchanges != 0) {
    run.failures.push_back("a chaos invariant counter is nonzero");
  }
  if (workload.disk() && server.restored_shards() != 0) {
    run.failures.push_back("disk run restored " +
                           std::to_string(server.restored_shards()) +
                           " shards from an existing page file");
  }
  run.digest = ResultDigest(result);

  // --- Simulated end-to-end figures ------------------------------------
  const mars::core::RunMetrics& agg = result.aggregate;
  const double frames_d = static_cast<double>(frames);
  const int64_t samples = agg.response_histogram.total;
  const double tail_q = TailQuantile(samples);
  const double failed_share = Ratio(
      static_cast<double>(result.shed_exchanges + agg.timeouts), frames_d);
  run.simulated = {
      {"cell_bytes_per_frame",
       Ratio(static_cast<double>(result.cell_bytes), frames_d), "B", frames,
       ""},
      {"nodes_per_frame",
       Ratio(static_cast<double>(agg.node_accesses), frames_d), "count",
       frames, ""},
      {"served_share", 1.0 - failed_share, "ratio", frames,
       "1 - failed_share"},
  };
  run.response = {
      {"vresp_p50_s", agg.response_histogram.Quantile(0.5), "s",
       samples, "p50 per demand exchange"},
      {"vresp_p99_s", agg.response_histogram.Quantile(tail_q), "s",
       samples, QuantileLabel(tail_q) + " per demand exchange"},
      {"failed_share", failed_share, "ratio", frames,
       "(shed exchanges + timeouts) / frames"},
  };

  // --- Per-layer counts -------------------------------------------------
  mars::storage::PoolStats pool;
  for (const auto& s : server.PoolStats()) {
    pool.hits += s.pool.hits;
    pool.misses += s.pool.misses;
    pool.evictions += s.pool.evictions;
    pool.disk_reads += s.pool.disk_reads;
    pool.disk_writes += s.pool.disk_writes;
    pool.prefetch_issued += s.pool.prefetch_issued;
    pool.prefetch_hits += s.pool.prefetch_hits;
  }
  const auto count = [](int64_t v) { return static_cast<double>(v); };
  run.layer_counts = {
      {"server.admission_deferred", count(result.deferred_exchanges), "count",
       1, ""},
      {"server.admission_shed", count(result.shed_exchanges), "count", 1, ""},
      {"server.hot_hit_rate",
       Ratio(count(result.hot_hits),
             count(result.hot_hits + result.hot_misses)),
       "ratio", result.hot_hits + result.hot_misses, ""},
      {"server.encode_calls", count(result.encode_calls), "count", 1, ""},
      {"server.coalesce_hits", count(result.coalesce_hits), "count", 1, ""},
      {"server.coalesce_refused", count(result.coalesce_refused), "count", 1,
       ""},
      {"net.peak_backlog_kb", count(result.peak_cell_backlog_bytes) / 1024.0,
       "KiB", 1, ""},
      {"net.handovers", count(result.handovers), "count", 1, ""},
      {"qos.step_ups", count(result.abr_step_ups), "count", 1, ""},
      {"qos.top_ups", count(result.abr_top_ups), "count", 1, ""},
      {"storage.pool_hit_rate",
       Ratio(count(pool.hits), count(pool.hits + pool.misses)), "ratio",
       pool.hits + pool.misses, ""},
      {"storage.disk_reads_per_frame", Ratio(count(pool.disk_reads), frames_d),
       "reads/frame", frames, ""},
      {"storage.disk_writes", count(pool.disk_writes), "count", 1,
       "includes the set-up page-file write"},
      {"storage.evictions_per_frame", Ratio(count(pool.evictions), frames_d),
       "evictions/frame", frames, ""},
      {"storage.prefetch_useful",
       Ratio(count(pool.prefetch_hits), count(pool.prefetch_issued)), "ratio",
       pool.prefetch_issued, "prefetch hits / prefetch issued"},
      {"index.rebalance_ops", count(server.rebalance_ops()), "count", 1, ""},
      {"index.live_shards", count(server.live_shard_count()), "count", 1, ""},
  };
  return run;
}

}  // namespace perfbench
