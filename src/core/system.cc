#include "core/system.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace mars::core {

common::StatusOr<std::unique_ptr<System>> System::Create(
    const Config& config) {
  auto scene = workload::GenerateScene(config.scene);
  if (!scene.ok()) return scene.status();
  auto db = std::make_unique<server::ObjectDatabase>(
      std::move(scene).value());
  return std::unique_ptr<System>(new System(config, std::move(db)));
}

std::unique_ptr<System> System::FromDatabase(const Config& config,
                                             server::ObjectDatabase db) {
  auto owned = std::make_unique<server::ObjectDatabase>(std::move(db));
  Config adjusted = config;
  // Make sure the configured space covers the data.
  geometry::Box2 extent = adjusted.scene.space;
  for (const geometry::Box3& b : owned->object_bounds()) {
    extent.Extend(geometry::Box2({b.lo(0), b.lo(1)}, {b.hi(0), b.hi(1)}));
  }
  adjusted.scene.space = extent;
  return std::unique_ptr<System>(new System(adjusted, std::move(owned)));
}

System::System(const Config& config,
               std::unique_ptr<server::ObjectDatabase> db)
    : config_(config), db_(std::move(db)) {
  server::Server::Options options;
  options.kind = config.index_kind;
  options.rtree = config.rtree;
  options.shards = config.shards;
  options.fanout_workers = config.fanout_workers;
  options.storage = config.storage;
  options.rebalance = config.rebalance;
  server_ = std::make_unique<server::Server>(db_.get(), options);
}

namespace {

// The single-client serving loop (paper Sec. IV, Algorithm 1): per tour
// frame the server runs its serial tick, then the client moves and
// queries. The public Run* variants differ only in the client they
// drive, how `fold` adds a frame's report to the metrics, and what
// `finish` reads off the client before the trailing Quiesce().
template <typename Client, typename Fold, typename Finish>
RunMetrics RunTour(const System::Config& config, const geometry::Box2& space,
                   const server::Server& server,
                   const std::vector<workload::TourPoint>& tour,
                   const typename Client::Options& options, Fold fold,
                   Finish finish) {
  net::SimulatedLink link(config.link);
  net::FaultSchedule fault(config.fault);
  if (fault.enabled()) link.AttachFaultSchedule(&fault);
  Client cl(options, space, &server, &link);
  RunMetrics metrics;
  for (const workload::TourPoint& point : tour) {
    server.ObserveClientMotion(0, point.position);
    server.Tick();
    const auto report = cl.Step(point.position, point.speed);
    metrics.node_accesses += report.node_accesses;
    metrics.total_response_seconds += report.response_seconds;
    if (report.response_seconds > 0.0) ++metrics.demand_exchanges;
    fold(report, &metrics);
    ++metrics.frames;
  }
  finish(cl, &metrics);
  server.Quiesce();
  metrics.tour_distance = workload::TourDistance(tour);
  return metrics;
}

}  // namespace

RunMetrics System::RunStreaming(
    const std::vector<workload::TourPoint>& tour,
    const client::StreamingClient::Options& options) {
  int64_t stale_run = 0;
  return RunTour<client::StreamingClient>(
      config_, space(), *server_, tour, options,
      [&stale_run](const client::StreamingFrameReport& report, RunMetrics* m) {
        m->demand_bytes += report.response_bytes;
        m->records_delivered += report.new_records;
        m->retries += report.retries;
        if (report.status.ok()) {
          stale_run = 0;
          return;
        }
        ++m->timeouts;
        ++m->outage_frames;
        // A failed frame renders from the store as of the last successful
        // exchange: it is stale by definition.
        ++m->stale_frames;
        ++stale_run;
        m->max_stale_run_frames = std::max(m->max_stale_run_frames, stale_run);
      },
      // Commit the trailing pending delivery so the server's committed
      // state matches the client's store at run end.
      [](client::StreamingClient& cl, RunMetrics*) { cl.FlushAck(); });
}

RunMetrics System::RunBuffered(
    const std::vector<workload::TourPoint>& tour,
    const client::BufferedClient::Options& options) {
  return RunTour<client::BufferedClient>(
      config_, space(), *server_, tour, options,
      [](const client::BufferedFrameReport& report, RunMetrics* m) {
        m->demand_bytes += report.demand_bytes;
        m->prefetch_bytes += report.prefetch_bytes;
        m->records_delivered += static_cast<int64_t>(report.records.size());
        m->retries += report.retries;
        m->timeouts += report.timeouts;
      },
      [](const client::BufferedClient& cl, RunMetrics* m) {
        m->cache_hit_rate = cl.buffer_stats().HitRate();
        m->data_utilization = cl.buffer_stats().Utilization();
        m->outage_frames = cl.outage_frames();
        m->stale_frames = cl.stale_frames();
        m->max_stale_run_frames = cl.max_stale_run_frames();
      });
}

RunMetrics System::RunNaiveObject(
    const std::vector<workload::TourPoint>& tour,
    const client::NaiveObjectClient::Options& options) {
  return RunTour<client::NaiveObjectClient>(
      config_, space(), *server_, tour, options,
      [](const client::NaiveFrameReport& report, RunMetrics* m) {
        m->demand_bytes += report.bytes;
      },
      [](const client::NaiveObjectClient& cl, RunMetrics* m) {
        m->cache_hit_rate = cl.CacheHitRate();
      });
}

}  // namespace mars::core
