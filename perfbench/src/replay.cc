#include "replay.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <memory>
#include <utility>

#include "client/buffered_client.h"
#include "client/naive_client.h"
#include "client/streaming_client.h"
#include "client/viewport.h"
#include "fleet_run.h"
#include "net/link.h"
#include "net/shared_link.h"
#include "qos/adaptive_ladder.h"
#include "qos/resolution_policy.h"
#include "server/session_table.h"
#include "server/wire_codec.h"
#include "workload/scene.h"
#include "workload/tour.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
using mars::fleet::ClientKind;
using mars::fleet::ClientSpec;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

// The replay's timed layers, in report order.
enum Layer {
  kStepStreaming,
  kStepBuffered,
  kStepNaive,
  kEncode,
  kObserve,
  kRefresh,
  kRebalance,
  kWarmJoin,
  kWarmDispatch,
  kSubmit,
  kAdvance,
  kLayers,
};

constexpr std::array<const char*, kLayers> kLayerNames = {
    "client.step_us.streaming", "client.step_us.buffered",
    "client.step_us.naive",     "server.encode_us",
    "motion.observe_us",        "motion.refresh_us",
    "server.rebalance_us",      "storage.warm_join_us",
    "storage.warm_dispatch_us", "net.submit_us",
    "net.advance_us",
};

// Per-call durations in microseconds, by layer. With recording off a
// Span reads no clock, which is what trace.overhead compares against.
struct Recorder {
  bool on = false;
  std::array<std::vector<double>, kLayers> us;
};

class Span {
 public:
  Span(Recorder* rec, Layer layer) : rec_(rec), layer_(layer) {
    if (rec_->on) start_ = Clock::now();
  }
  ~Span() {
    if (rec_->on) rec_->us[layer_].push_back(Micros(Clock::now() - start_));
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Recorder* rec_;
  Layer layer_;
  Clock::time_point start_{};
};

// The tour FleetEngine generates for `spec` (FleetEngine::BuildState).
std::vector<mars::workload::TourPoint> MakeTour(
    const Workload& workload, const mars::geometry::Box2& space,
    const ClientSpec& spec) {
  mars::workload::TourOptions tour;
  tour.kind = spec.tour_kind;
  tour.space = space;
  tour.target_speed = spec.speed;
  tour.frames = spec.frames;
  tour.frame_interval = workload.fleet.frame_interval_seconds;
  tour.seed = spec.tour_seed;
  return mars::workload::GenerateTour(tour);
}

// One replayed client, built with the options FleetEngine gives it.
struct ReplayClient {
  ClientSpec spec;
  std::vector<mars::workload::TourPoint> tour;
  std::unique_ptr<mars::net::SimulatedLink> link;
  std::unique_ptr<mars::qos::AdaptiveLadderPolicy> abr;
  std::unique_ptr<mars::client::StreamingClient> streaming;
  std::unique_ptr<mars::client::BufferedClient> buffered;
  std::unique_ptr<mars::client::NaiveObjectClient> naive;
};

std::unique_ptr<ReplayClient> MakeClient(const Workload& workload,
                                         const mars::core::System& system,
                                         mars::server::SessionTable* sessions,
                                         const ClientSpec& spec) {
  auto c = std::make_unique<ReplayClient>();
  c->spec = spec;
  c->tour = MakeTour(workload, system.space(), spec);
  mars::net::SimulatedLink::Options link = workload.fleet.client_link;
  link.loss_seed = spec.seed * 0x9E3779B97F4A7C15ull + 1;
  c->link = std::make_unique<mars::net::SimulatedLink>(link);
  if (workload.fleet.abr.enabled && spec.kind != ClientKind::kNaive) {
    c->abr = std::make_unique<mars::qos::AdaptiveLadderPolicy>(
        workload.fleet.abr.ladder);
  }
  const mars::server::Server* server = &system.server();
  switch (spec.kind) {
    case ClientKind::kStreaming: {
      mars::client::StreamingClient::Options opts;
      opts.query_fraction = spec.query_fraction;
      opts.policy = c->abr.get();
      opts.channel.seed = spec.seed * 31 + 7;
      c->streaming = std::make_unique<mars::client::StreamingClient>(
          opts, system.space(), server, c->link.get(),
          sessions->GetOrCreate(spec.id));
      break;
    }
    case ClientKind::kBuffered: {
      mars::client::BufferedClient::Options opts;
      opts.query_fraction = spec.query_fraction;
      opts.policy = c->abr.get();
      opts.buffer_bytes = spec.buffer_bytes;
      opts.seed = spec.seed;
      opts.channel.seed = spec.seed * 31 + 7;
      c->buffered = std::make_unique<mars::client::BufferedClient>(
          opts, system.space(), server, c->link.get());
      break;
    }
    case ClientKind::kNaive: {
      mars::client::NaiveObjectClient::Options opts;
      opts.query_fraction = spec.query_fraction;
      opts.cache_bytes = spec.buffer_bytes;
      c->naive = std::make_unique<mars::client::NaiveObjectClient>(
          opts, system.space(), server, c->link.get());
      break;
    }
  }
  return c;
}

// Steps `c` through frame `k`; returns the wire bytes it submits and
// fills `records` with what it delivered.
int64_t StepClient(ReplayClient* c, size_t k, Recorder* rec,
                   std::vector<mars::index::RecordId>* records) {
  const mars::workload::TourPoint& p = c->tour[k];
  switch (c->spec.kind) {
    case ClientKind::kStreaming: {
      mars::client::StreamingFrameReport report;
      {
        const Span span(rec, kStepStreaming);
        report = c->streaming->Step(p.position, p.speed);
      }
      if (!report.status.ok()) return 0;
      *records = std::move(report.records);
      return report.request_bytes + report.response_bytes;
    }
    case ClientKind::kBuffered: {
      mars::client::BufferedFrameReport report;
      {
        const Span span(rec, kStepBuffered);
        report = c->buffered->Step(p.position, p.speed);
      }
      *records = std::move(report.records);
      return report.demand_bytes + report.prefetch_bytes;
    }
    case ClientKind::kNaive: {
      const Span span(rec, kStepNaive);
      return c->naive->Step(p.position, p.speed).bytes;
    }
  }
  return 0;
}

// One serial replay on a fresh System. Returns the tick loop's wall
// seconds, or a negative value (with `error` set) when set-up failed.
double Replay(const Workload& workload, const std::vector<ClientSpec>& specs,
              const std::string& scratch, Recorder* rec,
              int64_t* encoded_bytes, std::string* error) {
  const PageDir dir(scratch);
  if (workload.disk() && dir.path().empty()) {
    *error = "cannot create a page-file directory in " + scratch;
    return -1.0;
  }
  auto created = mars::core::System::Create(SystemConfig(workload, dir));
  if (!created.ok()) {
    *error = "System::Create: " + created.status().ToString();
    return -1.0;
  }
  const std::unique_ptr<mars::core::System> system = std::move(created).value();
  const mars::server::Server& server = system->server();
  mars::server::SessionTable sessions;
  std::vector<std::unique_ptr<ReplayClient>> clients;
  clients.reserve(specs.size());
  mars::net::SharedMediumLink cell(workload.fleet.cell);
  for (const ClientSpec& spec : specs) {
    clients.push_back(MakeClient(workload, *system, &sessions, spec));
    cell.SetClientWeight(spec.id, spec.weight);
  }
  size_t ticks = 0;
  for (const auto& c : clients) ticks = std::max(ticks, c->tour.size());

  std::vector<mars::index::RecordId> records;
  const Clock::time_point start = Clock::now();
  for (size_t k = 0; k < ticks; ++k) {
    {
      const Span span(rec, kWarmJoin);
      server.WarmPoolsJoin();
    }
    for (const auto& c : clients) {
      if (k >= c->tour.size()) continue;
      const Span span(rec, kObserve);
      server.ObserveClientMotion(c->spec.id, c->tour[k].position);
    }
    {
      const Span span(rec, kRefresh);
      server.RefreshPoolInterest();
    }
    {
      const Span span(rec, kRebalance);
      server.TickRebalancer();
    }
    {
      const Span span(rec, kWarmDispatch);
      server.WarmPoolsDispatch();
    }
    for (const auto& c : clients) {
      if (k >= c->tour.size()) continue;
      records.clear();
      const int64_t wire = StepClient(c.get(), k, rec, &records);
      if (!records.empty()) {
        // FleetEngine encodes each distinct delivered record once.
        std::sort(records.begin(), records.end());
        records.erase(std::unique(records.begin(), records.end()),
                      records.end());
        std::vector<uint8_t> blob;
        {
          const Span span(rec, kEncode);
          blob = mars::server::EncodeRecords(system->db(), records);
        }
        *encoded_bytes += static_cast<int64_t>(blob.size());
      }
      if (wire > 0) {
        const Span span(rec, kSubmit);
        cell.Submit(c->spec.id, wire, c->tour[k].speed);
      }
    }
    const Span span(rec, kAdvance);
    cell.Advance(workload.fleet.frame_interval_seconds);
  }
  server.WarmPoolsJoin();
  cell.DrainAll();
  return SecondsSince(start);
}

// p50 and tail of `values` as two metrics named `name`.p50 / `name`.p99.
void AddQuantiles(const std::string& name, const std::string& unit,
                  const std::vector<double>& values,
                  std::vector<Metric>* out) {
  const int64_t n = static_cast<int64_t>(values.size());
  const double tail = TailQuantile(n);
  out->push_back({name + ".p50", Quantile(values, 0.5), unit, n, "per call"});
  out->push_back({name + ".p99", Quantile(values, tail), unit, n,
                  QuantileLabel(tail) + " per call"});
}

// Set-up breakdown plus the index probe pass.
void SetupAndProbe(const Workload& workload,
                   const std::vector<ClientSpec>& specs,
                   const std::string& scratch, TraceRun* run) {
  const mars::core::System::Config& config = workload.system;
  Clock::time_point t = Clock::now();
  auto scene = mars::workload::GenerateScene(config.scene);
  const double scene_s = SecondsSince(t);
  if (!scene.ok()) {
    run->failures.push_back("GenerateScene: " + scene.status().ToString());
    return;
  }
  const mars::server::ObjectDatabase db = std::move(scene).value();

  const PageDir dir(scratch);
  if (workload.disk() && dir.path().empty()) {
    run->failures.push_back("cannot create a page-file directory in " +
                            scratch);
    return;
  }
  mars::server::Server::Options options;
  options.kind = config.index_kind;
  options.rtree = config.rtree;
  options.shards = config.shards;
  options.fanout_workers = config.fanout_workers;
  options.storage = SystemConfig(workload, dir).storage;
  options.rebalance = config.rebalance;
  t = Clock::now();
  const mars::server::Server server(&db, options);
  const double build_s = SecondsSince(t);

  t = Clock::now();
  std::vector<std::vector<mars::workload::TourPoint>> tours;
  tours.reserve(specs.size());
  for (const ClientSpec& spec : specs) {
    tours.push_back(MakeTour(workload, config.scene.space, spec));
  }
  const double tours_s = SecondsSince(t);

  std::vector<double> query_us;
  std::vector<double> nodes;
  std::vector<double> shards;
  std::vector<double> max_shard_nodes;
  std::vector<mars::index::RecordId> out;
  const mars::qos::SpeedResolutionMap speed_map;
  for (size_t i = 0; i < specs.size(); ++i) {
    const mars::client::Viewport viewport(config.scene.space,
                                          specs[i].query_fraction,
                                          specs[i].query_fraction);
    for (const mars::workload::TourPoint& p : tours[i]) {
      out.clear();
      mars::index::ShardedCoefficientIndex::FanoutProfile profile;
      const mars::geometry::Box2 window = viewport.WindowAt(p.position);
      const double w_min = speed_map.MapSpeedToResolution(p.speed);
      const Clock::time_point q = Clock::now();
      const int64_t accesses = server.sharded_index().QueryProfiled(
          window, w_min, 1.0, &out, &profile);
      query_us.push_back(Micros(Clock::now() - q));
      nodes.push_back(static_cast<double>(accesses));
      shards.push_back(profile.shards_touched);
      max_shard_nodes.push_back(
          static_cast<double>(profile.max_shard_accesses));
    }
  }
  AddQuantiles("index.query_us", "us", query_us, &run->metrics);
  AddQuantiles("index.nodes_per_query", "count", nodes, &run->metrics);
  AddQuantiles("index.shards_per_query", "count", shards, &run->metrics);
  AddQuantiles("index.max_shard_nodes", "count", max_shard_nodes,
               &run->metrics);
  run->metrics.push_back({"workload.scene_s", scene_s, "s", 1, ""});
  run->metrics.push_back({"index.build_s", build_s, "s", 1,
                          "server::Server built from the database"});
  run->metrics.push_back({"workload.tours_s", tours_s, "s", 1, ""});
}

}  // namespace

TraceRun RunTrace(const Workload& workload,
                  const std::vector<ClientSpec>& specs,
                  const std::string& scratch, double seconds) {
  TraceRun run;
  const Clock::time_point start = Clock::now();
  SetupAndProbe(workload, specs, scratch, &run);
  if (!run.failures.empty()) return run;

  Recorder traced;
  traced.on = true;
  Recorder untraced;
  double traced_wall = 0.0;
  int64_t encoded_bytes = 0;
  std::vector<double> overhead;
  double pair_seconds = 0.0;
  // Alternate which side of a pair runs first, so drift in machine load
  // does not bias the ratio.
  for (int pair = 0;; ++pair) {
    const Clock::time_point pair_start = Clock::now();
    double wall[2] = {0.0, 0.0};  // [untraced, traced]
    for (int side = 0; side < 2; ++side) {
      const bool traced_side = (side == 0) == (pair % 2 == 1);
      std::string error;
      int64_t bytes = 0;
      const double w = Replay(workload, specs, scratch,
                              traced_side ? &traced : &untraced, &bytes,
                              &error);
      if (w < 0.0) {
        run.failures.push_back(error);
        return run;
      }
      wall[traced_side ? 1 : 0] = w;
      if (traced_side) encoded_bytes += bytes;
      run.steps += workload.total_frames();
    }
    traced_wall += wall[1];
    overhead.push_back(wall[1] / wall[0]);
    pair_seconds = std::max(pair_seconds, SecondsSince(pair_start));
    if (SecondsSince(start) + pair_seconds > seconds) break;
  }

  const double traced_us = traced_wall * 1e6;
  for (int layer = 0; layer < kLayers; ++layer) {
    const std::vector<double>& us = traced.us[layer];
    AddQuantiles(kLayerNames[layer], "us", us, &run.metrics);
    double sum = 0.0;
    for (const double v : us) sum += v;
    run.metrics.push_back({std::string(kLayerNames[layer]) + ".share",
                           traced_us > 0.0 ? sum / traced_us : 0.0, "ratio",
                           static_cast<int64_t>(us.size()),
                           "share of traced replay wall time"});
    if (layer == kEncode) {
      run.metrics.push_back({"server.encode_mb_per_s",
                             sum > 0.0 ? encoded_bytes / sum : 0.0, "MB/s",
                             static_cast<int64_t>(us.size()),
                             "encoded bytes / encode time"});
    }
  }
  run.metrics.push_back({"trace.overhead", Median(overhead), "ratio",
                         static_cast<int64_t>(overhead.size()),
                         "replay wall, spans on / off (median of pairs)"});
  return run;
}

}  // namespace perfbench
