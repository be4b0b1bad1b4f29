#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/experiment.h"
#include "core/system.h"
#include "server/persistence.h"

namespace mars::core {
namespace {

std::unique_ptr<System> SmallSystem(
    server::Server::IndexKind kind =
        server::Server::IndexKind::kSupportRegion,
    workload::Placement placement = workload::Placement::kUniform) {
  System::Config config;
  config.scene.space = geometry::MakeBox2(0, 0, 2000, 2000);
  config.scene.object_count = 20;
  config.scene.levels = 3;
  config.scene.seed = 7;
  config.scene.placement = placement;
  config.index_kind = kind;
  auto system = System::Create(config);
  EXPECT_TRUE(system.ok());
  return std::move(system).value();
}

// Denser variant with the paper's object-per-window density, so the naive
// full-resolution baseline actually has data to move.
std::unique_ptr<System> DenseSystem() {
  System::Config config;
  config.scene.space = geometry::MakeBox2(0, 0, 2000, 2000);
  config.scene.object_count = 120;
  config.scene.levels = 3;  // ~50 KB objects: bigger than the test caches
  config.scene.seed = 9;
  auto system = System::Create(config);
  EXPECT_TRUE(system.ok());
  return std::move(system).value();
}

workload::TourOptions SmallTour(double speed, uint64_t seed = 3) {
  workload::TourOptions options;
  options.space = geometry::MakeBox2(0, 0, 2000, 2000);
  options.target_speed = speed;
  options.frames = 80;
  options.seed = seed;
  return options;
}

TEST(SystemTest, CreateFailsOnBadScene) {
  System::Config config;
  config.scene.object_count = 0;
  EXPECT_FALSE(System::Create(config).ok());
}

TEST(SystemTest, StreamingRunProducesMetrics) {
  auto system = SmallSystem();
  const auto tour = workload::GenerateTour(SmallTour(0.5));
  const RunMetrics metrics =
      system->RunStreaming(tour, client::StreamingClient::Options());
  EXPECT_EQ(metrics.frames, 80);
  EXPECT_GT(metrics.demand_bytes, 0);
  EXPECT_GT(metrics.node_accesses, 0);
  EXPECT_GT(metrics.total_response_seconds, 0.0);
  EXPECT_GT(metrics.tour_distance, 0.0);
}

TEST(SystemTest, RunsAreDeterministic) {
  auto system = SmallSystem();
  const auto tour = workload::GenerateTour(SmallTour(0.4));
  client::BufferedClient::Options options;
  options.seed = 5;
  const RunMetrics a = system->RunBuffered(tour, options);
  const RunMetrics b = system->RunBuffered(tour, options);
  EXPECT_EQ(a.demand_bytes, b.demand_bytes);
  EXPECT_EQ(a.prefetch_bytes, b.prefetch_bytes);
  EXPECT_DOUBLE_EQ(a.total_response_seconds, b.total_response_seconds);
  EXPECT_DOUBLE_EQ(a.cache_hit_rate, b.cache_hit_rate);
}

TEST(SystemTest, FasterClientsRetrieveLessData) {
  // The Fig. 8 effect on the end-to-end system: same distance, varying
  // speed, falling bytes.
  auto system = SmallSystem();
  auto run = [&](double speed) {
    workload::TourOptions tour_options = SmallTour(speed);
    tour_options.frames = 0;
    tour_options.distance = 1500.0;
    const auto tour = workload::GenerateTour(tour_options);
    return system
        ->RunStreaming(tour, client::StreamingClient::Options())
        .demand_bytes;
  };
  const int64_t slow = run(0.05);
  const int64_t fast = run(0.9);
  EXPECT_GT(slow, 2 * fast);
}

TEST(SystemTest, MotionAwareSystemFasterThanNaiveAtHighSpeed) {
  // The headline Fig. 14 comparison, shrunk to a dense small scene.
  auto system = DenseSystem();
  workload::TourOptions tour_options = SmallTour(0.9, 11);
  tour_options.frames = 200;
  const auto tour = workload::GenerateTour(tour_options);
  // Paper regime: the cache is small relative to a full-resolution object.
  client::BufferedClient::Options ma;
  ma.buffer_bytes = 32 * 1024;
  client::NaiveObjectClient::Options naive;
  naive.cache_bytes = 32 * 1024;
  const RunMetrics fast_ma = system->RunBuffered(tour, ma);
  const RunMetrics fast_naive = system->RunNaiveObject(tour, naive);
  EXPECT_LT(fast_ma.MeanResponseSeconds(),
            fast_naive.MeanResponseSeconds());
}

TEST(SystemTest, MotionAwarePrefetchBeatsNaivePrefetchOnTram) {
  auto system = DenseSystem();
  workload::TourOptions tour_options = SmallTour(0.5, 13);
  tour_options.kind = workload::TourKind::kTram;
  tour_options.frames = 250;
  const auto tour = workload::GenerateTour(tour_options);

  client::BufferedClient::Options ma;
  ma.motion_aware = true;
  ma.buffer_bytes = 128 * 1024;
  client::BufferedClient::Options naive = ma;
  naive.motion_aware = false;

  const RunMetrics m = system->RunBuffered(tour, ma);
  const RunMetrics n = system->RunBuffered(tour, naive);
  // The motion-aware prefetcher should use its prefetched bytes at least
  // as efficiently as the uniform ring.
  EXPECT_GE(m.data_utilization, n.data_utilization);
}

TEST(SystemTest, NaiveIndexCostsMoreIo) {
  auto support_system =
      SmallSystem(server::Server::IndexKind::kSupportRegion);
  auto naive_system = SmallSystem(server::Server::IndexKind::kNaivePoint);
  const auto tour = workload::GenerateTour(SmallTour(0.5, 17));
  const client::StreamingClient::Options options;
  const RunMetrics support = support_system->RunStreaming(tour, options);
  const RunMetrics naive = naive_system->RunStreaming(tour, options);
  // Identical data delivered...
  EXPECT_EQ(support.demand_bytes, naive.demand_bytes);
  // ...at lower I/O cost.
  EXPECT_LT(support.node_accesses, naive.node_accesses);
}

TEST(SystemTest, ZipfSceneWorksEndToEnd) {
  auto system = SmallSystem(server::Server::IndexKind::kSupportRegion,
                            workload::Placement::kZipf);
  const auto tour = workload::GenerateTour(SmallTour(0.5, 19));
  const RunMetrics metrics =
      system->RunBuffered(tour, client::BufferedClient::Options());
  EXPECT_EQ(metrics.frames, 80);
  EXPECT_GE(metrics.cache_hit_rate, 0.0);
  EXPECT_LE(metrics.cache_hit_rate, 1.0);
}

TEST(SystemTest, PersistedDatabaseReproducesIdenticalRuns) {
  // Serialize a scene, reload it, and run the same tour on both systems:
  // every metric must match exactly (the persisted form is the scene).
  System::Config config;
  config.scene.space = geometry::MakeBox2(0, 0, 2000, 2000);
  config.scene.object_count = 15;
  config.scene.levels = 2;
  config.scene.seed = 23;
  auto original = System::Create(config);
  ASSERT_TRUE(original.ok());

  const std::vector<uint8_t> bytes =
      server::SerializeDatabase((*original)->db());
  auto db = server::DeserializeDatabase(bytes);
  ASSERT_TRUE(db.ok());
  auto restored = System::FromDatabase(config, std::move(*db));

  const auto tour = workload::GenerateTour(SmallTour(0.5, 29));
  client::BufferedClient::Options options;
  options.seed = 3;
  const RunMetrics a = (*original)->RunBuffered(tour, options);
  const RunMetrics b = restored->RunBuffered(tour, options);
  EXPECT_EQ(a.demand_bytes, b.demand_bytes);
  EXPECT_EQ(a.prefetch_bytes, b.prefetch_bytes);
  EXPECT_EQ(a.node_accesses, b.node_accesses);
  EXPECT_DOUBLE_EQ(a.total_response_seconds, b.total_response_seconds);
  EXPECT_DOUBLE_EQ(a.cache_hit_rate, b.cache_hit_rate);
}

// --- Serial tick contract -----------------------------------------------
//
// System::Run* must drive the server's serial tick exactly as the
// reference loops below do: per frame, warm join, motion observation,
// interest refresh, rebalancer tick and warm dispatch, one per-step call
// at a time, then the client step; after the tour, the trailing join.

// A 4-shard disk system with motion eviction, pool warming and an eager
// rebalancer, so every step of the tick does real work. Each call gets a
// fresh page file.
std::unique_ptr<System> TickContractSystem(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name + ".pages";
  std::remove(path.c_str());
  for (int s = 0; s < 64; ++s) {
    std::remove((path + ".shard" + std::to_string(s)).c_str());
  }
  System::Config config;
  config.scene.space = geometry::MakeBox2(0, 0, 2000, 2000);
  config.scene.object_count = 40;
  config.scene.levels = 3;
  config.scene.seed = 3;
  config.shards = 4;
  config.storage.store = storage::StoreKind::kDisk;
  config.storage.path = path;
  config.storage.evict = storage::EvictPolicy::kMotion;
  config.storage.pool_pages = 64;  // small: keeps eviction live
  config.storage.warm = true;
  config.storage.warm_budget = 8;
  config.storage.warm_workers = 2;
  config.rebalance.enabled = true;
  config.rebalance.interval = 4;
  config.rebalance.min_split_records = 16;
  config.link.loss_probability = 0.1;  // exercise the retry folds
  auto system = System::Create(config);
  EXPECT_TRUE(system.ok());
  if (!system.ok()) return nullptr;
  return std::move(system).value();
}

void ReferenceTick(const server::Server& server,
                   const geometry::Vec2& position) {
  server.WarmPoolsJoin();
  server.ObserveClientMotion(0, position);
  server.RefreshPoolInterest();
  server.TickRebalancer();
  server.WarmPoolsDispatch();
}

// The client's private bearer, built the way System::Run* builds it.
struct ReferenceLink {
  explicit ReferenceLink(const System& system)
      : link(system.config().link), fault(system.config().fault) {
    if (fault.enabled()) link.AttachFaultSchedule(&fault);
  }
  net::SimulatedLink link;
  net::FaultSchedule fault;
};

RunMetrics ReferenceStreaming(const System& system,
                              const std::vector<workload::TourPoint>& tour) {
  ReferenceLink net(system);
  client::StreamingClient cl(client::StreamingClient::Options(),
                             system.space(), &system.server(), &net.link);
  RunMetrics m;
  int64_t stale_run = 0;
  for (const workload::TourPoint& point : tour) {
    ReferenceTick(system.server(), point.position);
    const client::StreamingFrameReport report =
        cl.Step(point.position, point.speed);
    m.demand_bytes += report.response_bytes;
    m.node_accesses += report.node_accesses;
    m.records_delivered += report.new_records;
    m.total_response_seconds += report.response_seconds;
    if (report.response_seconds > 0.0) ++m.demand_exchanges;
    m.retries += report.retries;
    if (!report.status.ok()) {
      ++m.timeouts;
      ++m.outage_frames;
      ++m.stale_frames;
      ++stale_run;
      m.max_stale_run_frames = std::max(m.max_stale_run_frames, stale_run);
    } else {
      stale_run = 0;
    }
    ++m.frames;
  }
  cl.FlushAck();
  system.server().WarmPoolsJoin();
  m.tour_distance = workload::TourDistance(tour);
  return m;
}

RunMetrics ReferenceBuffered(const System& system,
                             const std::vector<workload::TourPoint>& tour) {
  ReferenceLink net(system);
  client::BufferedClient cl(client::BufferedClient::Options(), system.space(),
                            &system.server(), &net.link);
  RunMetrics m;
  for (const workload::TourPoint& point : tour) {
    ReferenceTick(system.server(), point.position);
    const client::BufferedFrameReport report =
        cl.Step(point.position, point.speed);
    m.demand_bytes += report.demand_bytes;
    m.prefetch_bytes += report.prefetch_bytes;
    m.node_accesses += report.node_accesses;
    m.records_delivered += static_cast<int64_t>(report.records.size());
    m.total_response_seconds += report.response_seconds;
    if (report.response_seconds > 0.0) ++m.demand_exchanges;
    m.retries += report.retries;
    m.timeouts += report.timeouts;
    ++m.frames;
  }
  system.server().WarmPoolsJoin();
  m.cache_hit_rate = cl.buffer_stats().HitRate();
  m.data_utilization = cl.buffer_stats().Utilization();
  m.outage_frames = cl.outage_frames();
  m.stale_frames = cl.stale_frames();
  m.max_stale_run_frames = cl.max_stale_run_frames();
  m.tour_distance = workload::TourDistance(tour);
  return m;
}

RunMetrics ReferenceNaive(const System& system,
                          const std::vector<workload::TourPoint>& tour) {
  ReferenceLink net(system);
  client::NaiveObjectClient cl(client::NaiveObjectClient::Options(),
                               system.space(), &system.server(), &net.link);
  RunMetrics m;
  for (const workload::TourPoint& point : tour) {
    ReferenceTick(system.server(), point.position);
    const client::NaiveFrameReport report =
        cl.Step(point.position, point.speed);
    m.demand_bytes += report.bytes;
    m.node_accesses += report.node_accesses;
    m.total_response_seconds += report.response_seconds;
    if (report.response_seconds > 0.0) ++m.demand_exchanges;
    ++m.frames;
  }
  system.server().WarmPoolsJoin();
  m.cache_hit_rate = cl.CacheHitRate();
  m.tour_distance = workload::TourDistance(tour);
  return m;
}

void ExpectSameServerState(const server::Server& run,
                           const server::Server& reference) {
  const auto run_pools = run.PoolStats();
  const auto ref_pools = reference.PoolStats();
  ASSERT_EQ(run_pools.size(), ref_pools.size());
  for (size_t i = 0; i < run_pools.size(); ++i) {
    EXPECT_EQ(run_pools[i].shard, ref_pools[i].shard);
    EXPECT_TRUE(run_pools[i].pool == ref_pools[i].pool) << "pool " << i;
    EXPECT_EQ(run_pools[i].file_pages, ref_pools[i].file_pages);
    EXPECT_EQ(run_pools[i].free_pages, ref_pools[i].free_pages);
    EXPECT_EQ(run_pools[i].fragmented_pages, ref_pools[i].fragmented_pages);
  }
  const auto run_events = run.RebalanceEvents();
  const auto ref_events = reference.RebalanceEvents();
  ASSERT_EQ(run_events.size(), ref_events.size());
  for (size_t i = 0; i < run_events.size(); ++i) {
    EXPECT_EQ(run_events[i].kind, ref_events[i].kind) << "event " << i;
    EXPECT_EQ(run_events[i].round, ref_events[i].round) << "event " << i;
    EXPECT_EQ(run_events[i].shard, ref_events[i].shard) << "event " << i;
    EXPECT_EQ(run_events[i].target, ref_events[i].target) << "event " << i;
    EXPECT_EQ(run_events[i].share, ref_events[i].share) << "event " << i;
    EXPECT_EQ(run_events[i].records, ref_events[i].records) << "event " << i;
  }
}

// Guards against a vacuous comparison: the tour must have issued
// speculative reads and, for clients that query the coefficient index,
// split a shard. (The naive client reads only the object index, so the
// rebalancer sees no load from it.)
void ExpectTickDidWork(const server::Server& server, bool expect_split) {
  int64_t splits = 0;
  for (const server::RebalanceEvent& e : server.RebalanceEvents()) {
    if (e.kind == server::RebalanceEvent::Kind::kSplit) ++splits;
  }
  if (expect_split) {
    EXPECT_GE(splits, 1);
  }
  int64_t prefetch_issued = 0;
  for (const auto& s : server.PoolStats()) {
    prefetch_issued += s.pool.prefetch_issued;
  }
  EXPECT_GT(prefetch_issued, 0);
}

TEST(SerialTickContractTest, RunLoopsMatchPerStepReference) {
  workload::TourOptions tour_options = SmallTour(0.5, 5);
  tour_options.frames = 60;
  const auto tour = workload::GenerateTour(tour_options);
  for (const std::string kind : {"streaming", "buffered", "naive"}) {
    SCOPED_TRACE(kind);
    auto run = TickContractSystem("tick_run_" + kind);
    auto reference = TickContractSystem("tick_ref_" + kind);
    ASSERT_NE(run, nullptr);
    ASSERT_NE(reference, nullptr);
    RunMetrics got;
    RunMetrics want;
    if (kind == "streaming") {
      got = run->RunStreaming(tour, client::StreamingClient::Options());
      want = ReferenceStreaming(*reference, tour);
    } else if (kind == "buffered") {
      got = run->RunBuffered(tour, client::BufferedClient::Options());
      want = ReferenceBuffered(*reference, tour);
      EXPECT_GT(got.records_delivered, 0);
    } else {
      got = run->RunNaiveObject(tour, client::NaiveObjectClient::Options());
      want = ReferenceNaive(*reference, tour);
    }
    EXPECT_EQ(RunMetricsJson(got), RunMetricsJson(want));
    ExpectSameServerState(run->server(), reference->server());
    ExpectTickDidWork(run->server(), /*expect_split=*/kind != "naive");
  }
}

TEST(ExperimentTest, StandardLaddersMatchPaper) {
  EXPECT_EQ(StandardSpeeds().front(), 0.001);
  EXPECT_EQ(StandardSpeeds().back(), 1.0);
  EXPECT_EQ(StandardQueryFractions(),
            (std::vector<double>{0.05, 0.10, 0.15, 0.20}));
  EXPECT_EQ(StandardDatasetSizesMb(), (std::vector<int32_t>{20, 40, 60, 80}));
  EXPECT_EQ(StandardBufferSizesKb(), (std::vector<int32_t>{16, 32, 64, 128}));
}

TEST(ExperimentTest, MeanOfAveragesRuns) {
  RunMetrics a, b;
  a.frames = 10;
  a.demand_bytes = 100;
  a.cache_hit_rate = 0.4;
  b.frames = 20;
  b.demand_bytes = 300;
  b.cache_hit_rate = 0.8;
  const RunMetrics mean = MeanOf({a, b});
  EXPECT_EQ(mean.frames, 15);
  EXPECT_EQ(mean.demand_bytes, 200);
  EXPECT_DOUBLE_EQ(mean.cache_hit_rate, 0.6);
  EXPECT_EQ(MeanOf({}).frames, 0);
}

TEST(ExperimentTest, FormattingHelpers) {
  EXPECT_EQ(Fmt(1.23456, 2), "1.23");
  EXPECT_EQ(Fmt(10.0, 0), "10");
  EXPECT_EQ(FmtBytes(2048), "2.00 KB");
}

}  // namespace
}  // namespace mars::core
