// mars_sim — command-line driver for MARS experiments.
//
// Subcommands:
//   generate  --out FILE [--objects N] [--mb N] [--zipf] [--seed S]
//       Generate a procedural city scene and persist it.
//   info      --db FILE
//       Print a summary of a persisted scene.
//   run       [--db FILE | --objects N | --mb N] [--tour tram|walk]
//             [--speed S] [--frames N] [--distance M]
//             [--client buffered|streaming|naive] [--buffer-kb N]
//             [--query-frac F] [--index support|naive-point]
//             [--no-prefetch] [--naive-prefetch] [--kalman] [--seed S]
//             [--loss P] [--outage-rate R] [--outage-secs S]
//             [--clients N] [--workers M] [--shards K]
//             [--fanout-workers W]
//             [--fairness wfq|equal] [--weights S,B,N] [--admission]
//             [--coalesce on|off]
//             [--cells K] [--cell-outage-rate R] [--handover-blackout S]
//             [--store memory|disk] [--pages FILE] [--page-size N]
//             [--pool-pages N] [--evict lru|motion]
//             [--rebalance on|off] [--rebalance-interval N]
//             [--split-factor F] [--merge-factor F] [--max-shards K]
//             [--abr on|off] [--ladder-steps N] [--abr-target BPS]
//             [--handover-dwell N]
//       Run one client over one tour and print the metrics.
//       --loss injects i.i.d. packet loss (probability per exchange,
//       < 0.5); --outage-rate schedules full-connectivity outages at R
//       per hour with mean duration --outage-secs (default 8 s).
//       With --clients N > 1, runs a mixed fleet of N concurrent clients
//       (streaming/buffered/naive, alternating tram/walk tours) against
//       one shared server and a shared 2 Mbps cell, using --workers M
//       threads for the parallel phase; the per-client and aggregate
//       metrics are bit-identical at any M. --loss then applies to the
//       cell, --outage-rate to the cell's fault schedule.
//       --fairness selects the cell's scheduling discipline (weighted
//       fair queuing by default; "equal" is the legacy per-transfer
//       equal-share model). --weights sets the WFQ weight per client
//       kind as three comma-separated values: streaming,buffered,naive
//       (e.g. --weights 2,2,1 gives the motion-aware clients twice the
//       naive baseline's share). --admission enables the server's
//       admission controller on the cell (defer/shed under overload).
//       --coalesce on enables cross-client request coalescing on the
//       cell (fleet mode only, requires --fairness wfq): concurrent
//       requests for the same record ride one wire copy through the
//       server's inflight table; the cell is charged once for the
//       coalesced payload plus a small per-attach header. Off (the
//       default) is a strict passthrough — output is bit-identical to
//       a build without the feature. When on, the JSON block gains
//       per-class coalescing lines, a totals line, and per-shard hot
//       cache stats.
//       --shards K partitions the coefficient index over a ground-plane
//       grid of K shards (default 1 = the classic single tree; every
//       query's required set is identical at any K) and prints per-shard
//       stats in the JSON block when K > 1. --fanout-workers W > 1
//       queries the shards in parallel; results are identical to
//       sequential fan-out.
//       --cells K tiles the ground plane with K radio cells (fleet mode
//       only; default 1 = the classic single shared cell, a strict
//       bit-identical passthrough). Each client is served by the cell
//       covering its position and handed over as it crosses cells; a
//       cell outage fails its clients over to the nearest healthy
//       neighbour, cancelling and re-issuing their in-flight transfers.
//       --cell-outage-rate R schedules whole-cell outages at R per hour
//       (per cell, independent seeds; mean duration --outage-secs),
//       overriding --outage-rate for the cells. --handover-blackout S
//       blacks out a client's private bearer for S seconds after each
//       handover (the radio re-association gap). With --cells K > 1 the
//       JSON block gains per-cell, handover and chaos-invariant lines.
//       --store disk pages the coefficient index into the --pages file
//       (shard k of K > 1 appends ".shard<k>") behind per-shard buffer
//       pools of --pool-pages total pages of --page-size bytes; a rerun
//       against an existing page file restores the trees instead of
//       rebuilding ("restored shards" reports how many attached).
//       --evict picks the pool's eviction policy: lru, or motion — the
//       paper's client visit-probability logic run server-side over the
//       fleet's predicted positions. The default --store memory is a
//       bit-identical passthrough; disk mode adds "-- storage --" lines
//       and per-shard pool stats to the JSON block.
//       --warm on starts the background pool warmer (requires --store
//       disk --evict motion): a dedicated I/O pool speculatively reads
//       the pages the fleet's interest field predicts it is about to
//       traverse, installing them at the next serial commit point under
//       a never-evict-hotter rule. --warm-budget N caps the arrays
//       admitted into flight per tick (default 32); --warm-workers W
//       sizes the I/O pool (default 2). Query results and node-access
//       counts are bit-identical to --warm off at any --workers or
//       --warm-workers; only pool hit rates and wall-clock change. Off
//       (the default) is a strict bit-identical passthrough; on extends
//       the pool_shard JSON lines with prefetch counters.
//       --rebalance on makes the shard set load-adaptive: every
//       --rebalance-interval frames (default 16) the server splits a
//       shard running hotter than --split-factor (default 2.0) times its
//       fair share of that window's index accesses and merges one idling
//       below --merge-factor (default 0.1) of it, up to --max-shards
//       total slots — online split/merge via the same build-then-swap
//       epochs as ingest, so queries never block. Works from any
//       --shards (even 1) and in both single-client and fleet mode;
//       fleet metrics stay byte-identical at any --workers. Off (the
//       default) is a strict bit-identical passthrough. When on, the
//       output gains a "-- rebalance --" summary and one JSON line per
//       applied op.
//       --abr on gives every motion-aware fleet client an adaptive
//       resolution ladder (fleet mode only): under admission
//       backpressure or collapsing goodput the client coarsens its
//       requested w_min one rung at a time (fetch coarse now), and when
//       the cell clears it steps back down, topping detail up through
//       Algorithm 1's resolution-increment path. --ladder-steps N sets
//       the rung count above the static mapping (default 4);
//       --abr-target BPS the per-client goodput (bytes/second,
//       default 16384) considered healthy. Ladder decisions are made in
//       the fleet's serial commit phase from integer-microsecond
//       virtual-clock state, so the fleet JSON stays byte-identical at
//       any --workers. Off (the default) is a strict bit-identical
//       passthrough; on adds per-client "abr_client" lines and an "abr"
//       totals line to the JSON block.
//       --handover-dwell N delays a voluntary cell handover until the
//       covering cell has differed from the serving cell for N
//       consecutive routing rounds (cell-edge ping-pong hysteresis;
//       default 1 = immediate, the historical behavior). Outage
//       failovers always fire immediately.
//
// Examples:
//   mars_sim generate --mb 60 --out city.mars
//   mars_sim run --db city.mars --tour walk --speed 0.7 --client buffered
//   mars_sim run --mb 20 --tour tram --speed 1.0 --client naive
//   mars_sim run --mb 20 --loss 0.05 --outage-rate 30 --outage-secs 5
//   mars_sim run --mb 20 --clients 32 --workers 8 --frames 120
//   mars_sim run --mb 20 --clients 12 --cells 4 --cell-outage-rate 60

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>

#include "common/units.h"
#include "core/metrics.h"
#include "core/system.h"
#include "fleet/fleet_engine.h"
#include "server/persistence.h"
#include "workload/scene.h"
#include "workload/tour.h"

namespace {

using namespace mars;  // NOLINT

struct Flags {
  std::string command;
  std::string db_path;
  std::string out_path;
  int objects = 0;
  int mb = 0;
  bool zipf = false;
  uint64_t seed = 42;
  std::string tour = "tram";
  double speed = 0.5;
  int frames = 300;
  double distance = -1.0;
  std::string client = "buffered";
  int buffer_kb = 64;
  double query_frac = 0.1;
  std::string index = "support";
  bool no_prefetch = false;
  bool naive_prefetch = false;
  bool kalman = false;
  double loss = 0.0;
  double outage_rate = 0.0;
  double outage_secs = 8.0;
  int clients = 1;
  int workers = 1;
  int shards = 1;
  int fanout_workers = 1;
  std::string fairness = "wfq";
  double weight_streaming = 1.0;
  double weight_buffered = 1.0;
  double weight_naive = 1.0;
  bool admission = false;
  std::string coalesce = "off";
  int cells = 1;
  double cell_outage_rate = 0.0;
  double handover_blackout = 0.0;
  std::string store = "memory";
  std::string pages_path;
  int page_size = 4096;
  int pool_pages = 256;
  std::string evict = "lru";
  std::string warm = "off";
  int warm_budget = 32;
  int warm_workers = 2;
  std::string rebalance = "off";
  int rebalance_interval = 16;
  double split_factor = 2.0;
  double merge_factor = 0.1;
  int max_shards = 64;
  std::string abr = "off";
  int ladder_steps = 4;
  double abr_target = 16384.0;  // bytes/second
  int handover_dwell = 1;
};

void Usage() {
  std::fprintf(stderr,
               "usage: mars_sim generate|info|run [flags]\n"
               "run `head -30 tools/mars_sim.cc` for the flag list\n");
}

bool ParseFlags(int argc, char** argv, Flags* flags) {
  if (argc < 2) return false;
  flags->command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--db") {
      flags->db_path = next();
    } else if (arg == "--out") {
      flags->out_path = next();
    } else if (arg == "--objects") {
      flags->objects = std::atoi(next());
    } else if (arg == "--mb") {
      flags->mb = std::atoi(next());
    } else if (arg == "--zipf") {
      flags->zipf = true;
    } else if (arg == "--seed") {
      flags->seed = static_cast<uint64_t>(std::atoll(next()));
    } else if (arg == "--tour") {
      flags->tour = next();
    } else if (arg == "--speed") {
      flags->speed = std::atof(next());
    } else if (arg == "--frames") {
      flags->frames = std::atoi(next());
    } else if (arg == "--distance") {
      flags->distance = std::atof(next());
    } else if (arg == "--client") {
      flags->client = next();
    } else if (arg == "--buffer-kb") {
      flags->buffer_kb = std::atoi(next());
    } else if (arg == "--query-frac") {
      flags->query_frac = std::atof(next());
    } else if (arg == "--index") {
      flags->index = next();
    } else if (arg == "--no-prefetch") {
      flags->no_prefetch = true;
    } else if (arg == "--naive-prefetch") {
      flags->naive_prefetch = true;
    } else if (arg == "--kalman") {
      flags->kalman = true;
    } else if (arg == "--loss") {
      flags->loss = std::atof(next());
    } else if (arg == "--outage-rate") {
      flags->outage_rate = std::atof(next());
    } else if (arg == "--outage-secs") {
      flags->outage_secs = std::atof(next());
    } else if (arg == "--clients") {
      flags->clients = std::atoi(next());
    } else if (arg == "--workers") {
      flags->workers = std::atoi(next());
    } else if (arg == "--shards") {
      flags->shards = std::atoi(next());
    } else if (arg == "--fanout-workers") {
      flags->fanout_workers = std::atoi(next());
    } else if (arg == "--fairness") {
      flags->fairness = next();
    } else if (arg == "--weights") {
      if (std::sscanf(next(), "%lf,%lf,%lf", &flags->weight_streaming,
                      &flags->weight_buffered, &flags->weight_naive) != 3) {
        std::fprintf(stderr, "--weights wants S,B,N (three doubles)\n");
        return false;
      }
    } else if (arg == "--admission") {
      flags->admission = true;
    } else if (arg == "--coalesce") {
      flags->coalesce = next();
    } else if (arg == "--cells") {
      flags->cells = std::atoi(next());
    } else if (arg == "--cell-outage-rate") {
      flags->cell_outage_rate = std::atof(next());
    } else if (arg == "--handover-blackout") {
      flags->handover_blackout = std::atof(next());
    } else if (arg == "--store") {
      flags->store = next();
    } else if (arg == "--pages") {
      flags->pages_path = next();
    } else if (arg == "--page-size") {
      flags->page_size = std::atoi(next());
    } else if (arg == "--pool-pages") {
      flags->pool_pages = std::atoi(next());
    } else if (arg == "--evict") {
      flags->evict = next();
    } else if (arg == "--warm") {
      flags->warm = next();
    } else if (arg == "--warm-budget") {
      flags->warm_budget = std::atoi(next());
    } else if (arg == "--warm-workers") {
      flags->warm_workers = std::atoi(next());
    } else if (arg == "--rebalance") {
      flags->rebalance = next();
    } else if (arg == "--rebalance-interval") {
      flags->rebalance_interval = std::atoi(next());
    } else if (arg == "--split-factor") {
      flags->split_factor = std::atof(next());
    } else if (arg == "--merge-factor") {
      flags->merge_factor = std::atof(next());
    } else if (arg == "--max-shards") {
      flags->max_shards = std::atoi(next());
    } else if (arg == "--abr") {
      flags->abr = next();
    } else if (arg == "--ladder-steps") {
      flags->ladder_steps = std::atoi(next());
    } else if (arg == "--abr-target") {
      flags->abr_target = std::atof(next());
    } else if (arg == "--handover-dwell") {
      flags->handover_dwell = std::atoi(next());
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

workload::SceneOptions SceneFromFlags(const Flags& flags) {
  workload::SceneOptions scene =
      flags.mb > 0 ? workload::SceneForDatasetSize(flags.mb, flags.seed)
                   : workload::SceneOptions();
  if (flags.objects > 0) scene.object_count = flags.objects;
  scene.seed = flags.seed;
  if (flags.zipf) scene.placement = workload::Placement::kZipf;
  return scene;
}

int Generate(const Flags& flags) {
  if (flags.out_path.empty()) {
    std::fprintf(stderr, "generate requires --out\n");
    return 2;
  }
  const workload::SceneOptions scene = SceneFromFlags(flags);
  std::printf("generating %d objects (seed %llu)...\n", scene.object_count,
              static_cast<unsigned long long>(scene.seed));
  auto db = workload::GenerateScene(scene);
  if (!db.ok()) {
    std::fprintf(stderr, "%s\n", db.status().ToString().c_str());
    return 1;
  }
  const auto status = server::SaveDatabase(*db, flags.out_path);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s: %d objects, %zu records, %s of records\n",
              flags.out_path.c_str(), db->object_count(),
              db->records().size(),
              common::FormatBytes(db->total_bytes()).c_str());
  return 0;
}

int Info(const Flags& flags) {
  if (flags.db_path.empty()) {
    std::fprintf(stderr, "info requires --db\n");
    return 2;
  }
  auto db = server::LoadDatabase(flags.db_path);
  if (!db.ok()) {
    std::fprintf(stderr, "%s\n", db.status().ToString().c_str());
    return 1;
  }
  std::printf("objects : %d\n", db->object_count());
  std::printf("records : %zu\n", db->records().size());
  std::printf("dataset : %s\n",
              common::FormatBytes(db->total_bytes()).c_str());
  int64_t coeffs = 0;
  for (const auto& r : db->records()) {
    if (!r.is_base()) ++coeffs;
  }
  std::printf("coeffs  : %lld\n", static_cast<long long>(coeffs));
  return 0;
}

// Per-shard stats JSON, one line per shard. Only emitted when sharding
// is actually on (K > 1), so default-configuration output stays
// byte-identical to the single-tree era.
void PrintShardStats(const core::System& system) {
  const server::Server& server = system.server();
  if (server.shard_count() <= 1) return;
  for (const auto& s : server.sharded_index().Stats()) {
    std::printf(
        "{\"shard\": %d, \"records\": %lld, \"node_accesses\": %lld, "
        "\"fanout_queries\": %lld, \"rebuilds\": %lld}\n",
        s.shard, static_cast<long long>(s.records),
        static_cast<long long>(s.node_accesses),
        static_cast<long long>(s.fanout_queries),
        static_cast<long long>(s.rebuilds));
  }
}

// Per-shard buffer-pool JSON, one line per shard. Disk mode only, so
// memory-mode output stays byte-identical to the pre-storage era. Unlike
// the fleet JSON, these counters (hits, misses, evictions, disk reads,
// prefetch outcomes) are not invariant across --workers: they depend on
// the order in which concurrent client steps fetch pages. They repeat
// exactly at --workers 1.
void PrintPoolStats(const core::System& system) {
  const server::Server& server = system.server();
  if (!server.disk_store()) return;
  // The prefetch counters ride only the warm-on lines, so --warm off
  // output stays byte-identical to the pre-warming era.
  const bool warming = server.pool_warming_enabled();
  for (const auto& s : server.PoolStats()) {
    std::printf(
        "{\"pool_shard\": %d, \"hits\": %lld, \"misses\": %lld, "
        "\"evictions\": %lld, \"disk_reads\": %lld, \"disk_writes\": %lld, "
        "\"resident_pages\": %lld, \"file_pages\": %lld, "
        "\"free_pages\": %lld, \"fragmented_pages\": %lld",
        s.shard, static_cast<long long>(s.pool.hits),
        static_cast<long long>(s.pool.misses),
        static_cast<long long>(s.pool.evictions),
        static_cast<long long>(s.pool.disk_reads),
        static_cast<long long>(s.pool.disk_writes),
        static_cast<long long>(s.pool.resident_pages),
        static_cast<long long>(s.file_pages),
        static_cast<long long>(s.free_pages),
        static_cast<long long>(s.fragmented_pages));
    if (warming) {
      std::printf(
          ", \"prefetch_issued\": %lld, \"prefetch_hits\": %lld, "
          "\"prefetch_wasted\": %lld, \"prefetch_dropped\": %lld",
          static_cast<long long>(s.pool.prefetch_issued),
          static_cast<long long>(s.pool.prefetch_hits),
          static_cast<long long>(s.pool.prefetch_wasted),
          static_cast<long long>(s.pool.prefetch_dropped));
    }
    std::printf("}\n");
  }
}

// Rebalance telemetry: only emitted with --rebalance on, so off-mode
// output stays byte-identical to the static-shard era.
void PrintRebalanceSummary(const core::System& system) {
  const server::Server& server = system.server();
  if (!server.rebalance_enabled()) return;
  const std::vector<server::RebalanceEvent> events = server.RebalanceEvents();
  int64_t splits = 0;
  for (const server::RebalanceEvent& e : events) {
    if (e.kind == server::RebalanceEvent::Kind::kSplit) ++splits;
  }
  std::printf("\n-- rebalance --\n");
  std::printf("ops applied             : %lld (%lld splits, %lld merges)\n",
              static_cast<long long>(events.size()),
              static_cast<long long>(splits),
              static_cast<long long>(static_cast<int64_t>(events.size()) -
                                     splits));
  std::printf("shards live / total     : %d / %d\n",
              server.live_shard_count(), server.shard_count());
}

// One JSON line per applied rebalance op (--rebalance on only).
void PrintRebalanceJson(const core::System& system) {
  const server::Server& server = system.server();
  if (!server.rebalance_enabled()) return;
  for (const server::RebalanceEvent& e : server.RebalanceEvents()) {
    std::printf(
        "{\"rebalance\": {\"op\": \"%s\", \"round\": %lld, \"shard\": %d, "
        "\"target\": %d, \"share\": %.17g, \"records\": %lld}}\n",
        e.kind == server::RebalanceEvent::Kind::kSplit ? "split" : "merge",
        static_cast<long long>(e.round), e.shard, e.target, e.share,
        static_cast<long long>(e.records));
  }
}

// Human-readable storage summary (disk mode only).
void PrintStorageSummary(const core::System& system) {
  const server::Server& server = system.server();
  if (!server.disk_store()) return;
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t evictions = 0;
  int64_t reads = 0;
  int64_t writes = 0;
  int64_t prefetch_issued = 0;
  int64_t prefetch_hits = 0;
  int64_t prefetch_wasted = 0;
  int64_t prefetch_dropped = 0;
  for (const auto& s : server.PoolStats()) {
    hits += s.pool.hits;
    misses += s.pool.misses;
    evictions += s.pool.evictions;
    reads += s.pool.disk_reads;
    writes += s.pool.disk_writes;
    prefetch_issued += s.pool.prefetch_issued;
    prefetch_hits += s.pool.prefetch_hits;
    prefetch_wasted += s.pool.prefetch_wasted;
    prefetch_dropped += s.pool.prefetch_dropped;
  }
  const double total = static_cast<double>(hits + misses);
  std::printf("\n-- storage --\n");
  std::printf("pool hits / misses      : %lld / %lld (%.1f %% hit)\n",
              static_cast<long long>(hits), static_cast<long long>(misses),
              total > 0.0 ? 100.0 * static_cast<double>(hits) / total : 0.0);
  std::printf("pool evictions          : %lld\n",
              static_cast<long long>(evictions));
  std::printf("disk reads / writes     : %lld / %lld\n",
              static_cast<long long>(reads), static_cast<long long>(writes));
  if (server.pool_warming_enabled()) {
    // Warm-on only, so --warm off output stays byte-identical.
    std::printf("prefetch issued / hits  : %lld / %lld\n",
                static_cast<long long>(prefetch_issued),
                static_cast<long long>(prefetch_hits));
    std::printf("prefetch wasted/dropped : %lld / %lld\n",
                static_cast<long long>(prefetch_wasted),
                static_cast<long long>(prefetch_dropped));
  }
}

// Fleet mode: N concurrent clients against one shared server and cell.
int RunFleet(const core::System& system, const Flags& flags) {
  fleet::FleetOptions options;
  options.workers = flags.workers;
  options.cell.loss_probability = flags.loss;
  options.cell.discipline =
      flags.fairness == "equal"
          ? net::SharedMediumLink::Discipline::kEqualShare
          : net::SharedMediumLink::Discipline::kWeightedFair;
  options.admission.enabled = flags.admission;
  options.coalesce.enabled = flags.coalesce == "on";
  options.cell_fault.outage_rate_per_hour = flags.outage_rate;
  options.cell_fault.outage_mean_seconds = flags.outage_secs;
  options.cell_fault.seed = flags.seed + 2;
  options.cells = flags.cells;
  options.handover_blackout_seconds = flags.handover_blackout;
  options.handover_dwell_rounds = flags.handover_dwell;
  options.abr.enabled = flags.abr == "on";
  options.abr.ladder.ladder_steps = flags.ladder_steps;
  options.abr.ladder.target_goodput_bps = flags.abr_target;
  if (flags.cell_outage_rate > 0.0) {
    // Whole-cell failure rate for the multi-cell topology; each cell
    // derives an independent outage stream from the base seed.
    options.cell_fault.outage_rate_per_hour = flags.cell_outage_rate;
  }
  std::vector<fleet::ClientSpec> specs = fleet::FleetEngine::MakeMixedFleet(
      flags.clients, flags.frames, flags.speed, flags.seed);
  for (fleet::ClientSpec& spec : specs) {
    spec.buffer_bytes = static_cast<int64_t>(flags.buffer_kb) * 1024;
    switch (spec.kind) {
      case fleet::ClientKind::kStreaming:
        spec.weight = flags.weight_streaming;
        break;
      case fleet::ClientKind::kBuffered:
        spec.weight = flags.weight_buffered;
        break;
      case fleet::ClientKind::kNaive:
        spec.weight = flags.weight_naive;
        break;
    }
  }
  fleet::FleetEngine engine(system, options, std::move(specs));
  const fleet::FleetResult result = engine.Run();

  std::printf("\n-- fleet (%d clients, %d workers) --\n", flags.clients,
              flags.workers);
  if (flags.cells > 1) {
    std::printf("cells                   : %d\n", flags.cells);
    std::printf("handovers / failovers   : %lld / %lld\n",
                static_cast<long long>(result.handovers),
                static_cast<long long>(result.failovers));
    std::printf("reissued transfers      : %lld (%s)\n",
                static_cast<long long>(result.reissued_transfers),
                common::FormatBytes(result.reissued_bytes).c_str());
  }
  std::printf("virtual seconds         : %.1f\n", result.virtual_seconds);
  std::printf("cell bytes              : %s\n",
              common::FormatBytes(result.cell_bytes).c_str());
  std::printf("cell retries / timeouts : %lld / %lld\n",
              static_cast<long long>(result.cell_retries),
              static_cast<long long>(result.cell_timeouts));
  std::printf("cell outage             : %.1f s\n",
              result.cell_outage_seconds);
  std::printf("hot cache hits / misses : %lld / %lld\n",
              static_cast<long long>(result.hot_hits),
              static_cast<long long>(result.hot_misses));
  std::printf("hot encode bytes saved  : %s\n",
              common::FormatBytes(result.hot_bytes_saved).c_str());
  std::printf("mean response / query   : %.3f s\n",
              result.aggregate.MeanResponsePerExchange());
  std::printf("p50 / p99 response      : %.3f / %.3f s\n",
              result.aggregate.P50ResponseSeconds(),
              result.aggregate.P99ResponseSeconds());
  const bool coalescing = flags.coalesce == "on";
  if (coalescing) {
    std::printf("coalesce hits / attach  : %lld / %lld\n",
                static_cast<long long>(result.coalesce_hits),
                static_cast<long long>(result.coalesce_attaches));
    std::printf("coalesce bytes saved    : %s (refused %lld)\n",
                common::FormatBytes(result.coalesce_bytes_saved).c_str(),
                static_cast<long long>(result.coalesce_refused));
    std::printf("encode calls            : %lld\n",
                static_cast<long long>(result.encode_calls));
  }
  if (flags.abr == "on") {
    std::printf("abr step-ups / top-ups  : %lld / %lld (worst rung %d/%d)\n",
                static_cast<long long>(result.abr_step_ups),
                static_cast<long long>(result.abr_top_ups),
                result.abr_max_ladder_step, flags.ladder_steps);
  }
  if (flags.admission) {
    std::printf("admitted/deferred/shed  : %lld / %lld / %lld\n",
                static_cast<long long>(result.admitted_exchanges),
                static_cast<long long>(result.deferred_exchanges),
                static_cast<long long>(result.shed_exchanges));
    std::printf("peak cell backlog       : %s\n",
                common::FormatBytes(result.peak_cell_backlog_bytes).c_str());
  }
  static const char* const kKindNames[] = {"streaming", "buffered", "naive"};
  for (size_t k = 0; k < result.by_kind.size(); ++k) {
    const fleet::ClassStats& cls = result.by_kind[k];
    if (cls.clients == 0) continue;
    const double goodput =
        result.virtual_seconds > 0.0
            ? static_cast<double>(cls.metrics.total_bytes()) /
                  result.virtual_seconds
            : 0.0;
    std::printf(
        "class %-9s           : %lld clients, %.0f B/s goodput, "
        "p99 %.3f s\n",
        kKindNames[k], static_cast<long long>(cls.clients), goodput,
        cls.metrics.P99ResponseSeconds());
  }

  PrintStorageSummary(system);
  PrintRebalanceSummary(system);

  // Full-precision JSON lines: one per client plus the aggregate. Diffing
  // this block across --workers values must show zero differences.
  std::printf("\n-- json --\n");
  for (const fleet::ClientResult& client : result.clients) {
    std::printf("{\"client\": %d, \"metrics\": %s}\n", client.spec.id,
                core::RunMetricsJson(client.metrics).c_str());
  }
  std::printf("{\"aggregate\": %s}\n",
              core::RunMetricsJson(result.aggregate).c_str());
  PrintShardStats(system);
  PrintPoolStats(system);
  PrintRebalanceJson(system);
  if (coalescing) {
    // Coalescing telemetry rides extra JSON lines so the off-mode block
    // above stays byte-identical to the pre-coalescing era.
    for (size_t k = 0; k < result.by_kind.size(); ++k) {
      const fleet::ClassStats& cls = result.by_kind[k];
      if (cls.clients == 0) continue;
      std::printf(
          "{\"coalesce_class\": \"%s\", \"hits\": %lld, \"attaches\": %lld, "
          "\"bytes_saved\": %lld, \"encode_calls\": %lld, "
          "\"cell_bytes\": %lld}\n",
          kKindNames[k], static_cast<long long>(cls.coalesce_hits),
          static_cast<long long>(cls.coalesce_attaches),
          static_cast<long long>(cls.coalesce_bytes_saved),
          static_cast<long long>(cls.encode_calls),
          static_cast<long long>(cls.cell_bytes));
    }
    std::printf(
        "{\"coalesce\": {\"hits\": %lld, \"attaches\": %lld, "
        "\"bytes_saved\": %lld, \"refused\": %lld, \"header_bytes\": %lld, "
        "\"encode_calls\": %lld}}\n",
        static_cast<long long>(result.coalesce_hits),
        static_cast<long long>(result.coalesce_attaches),
        static_cast<long long>(result.coalesce_bytes_saved),
        static_cast<long long>(result.coalesce_refused),
        static_cast<long long>(result.coalesce_header_bytes),
        static_cast<long long>(result.encode_calls));
    for (const auto& s : result.hot_shards) {
      std::printf(
          "{\"hot_shard\": %d, \"hits\": %lld, \"misses\": %lld, "
          "\"evictions\": %lld, \"entries\": %lld, \"bytes\": %lld}\n",
          s.shard, static_cast<long long>(s.hits),
          static_cast<long long>(s.misses),
          static_cast<long long>(s.evictions),
          static_cast<long long>(s.entries),
          static_cast<long long>(s.bytes));
    }
  }
  if (flags.abr == "on") {
    // ABR telemetry rides extra JSON lines so the off-mode block above
    // stays byte-identical to the pre-ladder era. Per-client ladder state
    // first (the nightly chaos sweep watches degradation trends), then
    // the fleet totals.
    for (const fleet::ClientResult& client : result.clients) {
      std::printf(
          "{\"abr_client\": %d, \"ladder_step\": %d, "
          "\"goodput_ewma_bps\": %.17g, \"step_ups\": %lld, "
          "\"top_ups\": %lld}\n",
          client.spec.id, client.abr.ladder_step,
          client.abr.goodput_ewma_bps,
          static_cast<long long>(client.abr.step_ups),
          static_cast<long long>(client.abr.top_ups));
    }
    std::printf(
        "{\"abr\": {\"step_ups\": %lld, \"top_ups\": %lld, "
        "\"max_ladder_step\": %d, \"ladder_steps\": %d}}\n",
        static_cast<long long>(result.abr_step_ups),
        static_cast<long long>(result.abr_top_ups),
        result.abr_max_ladder_step, flags.ladder_steps);
  }
  if (flags.cells > 1) {
    // Multi-cell telemetry rides extra JSON lines so the single-cell
    // block above stays byte-identical to the pre-topology era. The
    // chaos line carries the engine's handover invariants (all zero, or
    // the run would have FATALed) so the chaos harness can assert the
    // checks actually ran.
    for (size_t k = 0; k < result.cell_stats.size(); ++k) {
      const fleet::FleetResult::CellStats& cs = result.cell_stats[k];
      std::printf(
          "{\"cell\": %zu, \"bytes\": %lld, \"retries\": %lld, "
          "\"timeouts\": %lld, \"outage_seconds\": %.17g, "
          "\"peak_backlog_bytes\": %lld, \"handovers_in\": %lld}\n",
          k, static_cast<long long>(cs.bytes),
          static_cast<long long>(cs.retries),
          static_cast<long long>(cs.timeouts), cs.outage_seconds,
          static_cast<long long>(cs.peak_backlog_bytes),
          static_cast<long long>(cs.handovers_in));
    }
    for (const fleet::ClientResult& client : result.clients) {
      std::printf(
          "{\"client_cells\": %d, \"home\": %d, \"final\": %d, "
          "\"handovers\": %lld, \"failovers\": %lld}\n",
          client.spec.id, client.home_cell, client.final_cell,
          static_cast<long long>(client.handovers),
          static_cast<long long>(client.failovers));
    }
    std::printf(
        "{\"handover\": {\"handovers\": %lld, \"failovers\": %lld, "
        "\"reissued_transfers\": %lld, \"reissued_bytes\": %lld}}\n",
        static_cast<long long>(result.handovers),
        static_cast<long long>(result.failovers),
        static_cast<long long>(result.reissued_transfers),
        static_cast<long long>(result.reissued_bytes));
    std::printf(
        "{\"chaos\": {\"session_desyncs\": %lld, "
        "\"duplicate_deliveries\": %lld, \"stranded_waiters\": %lld, "
        "\"unresolved_exchanges\": %lld}}\n",
        static_cast<long long>(result.chaos_session_desyncs),
        static_cast<long long>(result.chaos_duplicate_deliveries),
        static_cast<long long>(result.chaos_stranded_waiters),
        static_cast<long long>(result.chaos_unresolved_exchanges));
  }
  return 0;
}

int Run(const Flags& flags) {
  // Assemble the system: from a persisted DB or a fresh scene.
  core::System::Config config;
  config.scene = SceneFromFlags(flags);
  config.index_kind = flags.index == "naive-point"
                          ? server::Server::IndexKind::kNaivePoint
                          : server::Server::IndexKind::kSupportRegion;
  if (flags.loss < 0.0 || flags.loss >= 0.5) {
    std::fprintf(stderr, "--loss must be in [0, 0.5)\n");
    return 2;
  }
  if (flags.outage_rate < 0.0) {
    std::fprintf(stderr, "--outage-rate must be >= 0\n");
    return 2;
  }
  if (flags.outage_rate > 0.0 && flags.outage_secs <= 0.0) {
    std::fprintf(stderr, "--outage-secs must be > 0\n");
    return 2;
  }
  if (flags.shards < 1 || flags.fanout_workers < 1) {
    std::fprintf(stderr, "--shards and --fanout-workers must be >= 1\n");
    return 2;
  }
  if (flags.coalesce != "on" && flags.coalesce != "off") {
    std::fprintf(stderr, "--coalesce wants on|off\n");
    return 2;
  }
  if (flags.coalesce == "on" && flags.fairness == "equal") {
    std::fprintf(stderr,
                 "--coalesce on requires --fairness wfq (shared-delivery "
                 "resolution relies on per-client FIFO completions)\n");
    return 2;
  }
  if (flags.cells < 1) {
    std::fprintf(stderr, "--cells must be >= 1\n");
    return 2;
  }
  if (flags.cells > 1 && flags.clients <= 1) {
    std::fprintf(stderr, "--cells K > 1 requires fleet mode (--clients > 1)\n");
    return 2;
  }
  if (flags.cell_outage_rate < 0.0 || flags.handover_blackout < 0.0) {
    std::fprintf(stderr,
                 "--cell-outage-rate and --handover-blackout must be >= 0\n");
    return 2;
  }
  if (flags.store != "memory" && flags.store != "disk") {
    std::fprintf(stderr, "--store wants memory|disk\n");
    return 2;
  }
  if (flags.evict != "lru" && flags.evict != "motion") {
    std::fprintf(stderr, "--evict wants lru|motion\n");
    return 2;
  }
  if (flags.store == "disk" && flags.pages_path.empty()) {
    std::fprintf(stderr, "--store disk requires --pages FILE\n");
    return 2;
  }
  if (flags.page_size < 128 || flags.pool_pages < 1) {
    std::fprintf(stderr,
                 "--page-size must be >= 128 and --pool-pages >= 1\n");
    return 2;
  }
  if (flags.warm != "on" && flags.warm != "off") {
    std::fprintf(stderr, "--warm wants on|off\n");
    return 2;
  }
  if (flags.warm == "on" &&
      (flags.store != "disk" || flags.evict != "motion")) {
    std::fprintf(stderr, "--warm on requires --store disk --evict motion\n");
    return 2;
  }
  if (flags.warm_budget < 1 || flags.warm_workers < 1) {
    std::fprintf(stderr,
                 "--warm-budget and --warm-workers must be >= 1\n");
    return 2;
  }
  if (flags.rebalance != "on" && flags.rebalance != "off") {
    std::fprintf(stderr, "--rebalance wants on|off\n");
    return 2;
  }
  if (flags.rebalance_interval < 1 || flags.max_shards < 1) {
    std::fprintf(stderr,
                 "--rebalance-interval and --max-shards must be >= 1\n");
    return 2;
  }
  if (flags.split_factor <= 1.0 || flags.merge_factor < 0.0 ||
      flags.merge_factor >= 1.0) {
    std::fprintf(stderr,
                 "--split-factor must be > 1 and --merge-factor in [0, 1)\n");
    return 2;
  }
  if (flags.abr != "on" && flags.abr != "off") {
    std::fprintf(stderr, "--abr wants on|off\n");
    return 2;
  }
  if (flags.abr == "on" && flags.clients <= 1) {
    std::fprintf(stderr, "--abr on requires fleet mode (--clients > 1)\n");
    return 2;
  }
  if (flags.ladder_steps < 1 || flags.abr_target <= 0.0) {
    std::fprintf(stderr,
                 "--ladder-steps must be >= 1 and --abr-target > 0\n");
    return 2;
  }
  if (flags.handover_dwell < 1) {
    std::fprintf(stderr, "--handover-dwell must be >= 1\n");
    return 2;
  }
  config.shards = flags.shards;
  config.fanout_workers = flags.fanout_workers;
  config.storage.store = flags.store == "disk" ? storage::StoreKind::kDisk
                                               : storage::StoreKind::kMemory;
  config.storage.path = flags.pages_path;
  config.storage.page_size = flags.page_size;
  config.storage.pool_pages = flags.pool_pages;
  config.storage.evict = flags.evict == "motion" ? storage::EvictPolicy::kMotion
                                                 : storage::EvictPolicy::kLru;
  config.storage.warm = flags.warm == "on";
  config.storage.warm_budget = flags.warm_budget;
  config.storage.warm_workers = flags.warm_workers;
  config.rebalance.enabled = flags.rebalance == "on";
  config.rebalance.interval = flags.rebalance_interval;
  config.rebalance.split_factor = flags.split_factor;
  config.rebalance.merge_factor = flags.merge_factor;
  config.rebalance.max_shards = flags.max_shards;
  config.link.loss_probability = flags.loss;
  config.fault.outage_rate_per_hour = flags.outage_rate;
  config.fault.outage_mean_seconds = flags.outage_secs;
  config.fault.seed = flags.seed + 2;

  std::unique_ptr<core::System> system;
  if (!flags.db_path.empty()) {
    auto db = server::LoadDatabase(flags.db_path);
    if (!db.ok()) {
      std::fprintf(stderr, "%s\n", db.status().ToString().c_str());
      return 1;
    }
    auto sys = core::System::FromDatabase(config, std::move(*db));
    system = std::move(sys);
  } else {
    auto sys = core::System::Create(config);
    if (!sys.ok()) {
      std::fprintf(stderr, "%s\n", sys.status().ToString().c_str());
      return 1;
    }
    system = std::move(sys).value();
  }
  std::printf("dataset: %s, %d objects\n",
              common::FormatBytes(system->db().total_bytes()).c_str(),
              system->db().object_count());
  if (system->server().disk_store()) {
    std::printf("store: disk (%s), %s eviction, restored shards %d/%d\n",
                flags.pages_path.c_str(), flags.evict.c_str(),
                system->server().restored_shards(), flags.shards);
  }
  if (system->server().pool_warming_enabled()) {
    std::printf("warm: on (budget %d, workers %d)\n", flags.warm_budget,
                flags.warm_workers);
  }

  if (flags.clients > 1) return RunFleet(*system, flags);

  workload::TourOptions tour_options;
  tour_options.kind = flags.tour == "walk" ? workload::TourKind::kPedestrian
                                           : workload::TourKind::kTram;
  tour_options.space = system->space();
  tour_options.target_speed = flags.speed;
  tour_options.frames = flags.frames;
  tour_options.distance = flags.distance;
  tour_options.seed = flags.seed + 1;
  const auto tour = workload::GenerateTour(tour_options);
  std::printf("tour: %s, %zu frames, %.0f m at speed %.3f\n",
              flags.tour.c_str(), tour.size(),
              workload::TourDistance(tour), flags.speed);

  core::RunMetrics metrics;
  if (flags.client == "streaming") {
    client::StreamingClient::Options options;
    options.query_fraction = flags.query_frac;
    metrics = system->RunStreaming(tour, options);
  } else if (flags.client == "naive") {
    client::NaiveObjectClient::Options options;
    options.query_fraction = flags.query_frac;
    options.cache_bytes = static_cast<int64_t>(flags.buffer_kb) * 1024;
    metrics = system->RunNaiveObject(tour, options);
  } else {
    client::BufferedClient::Options options;
    options.query_fraction = flags.query_frac;
    options.buffer_bytes = static_cast<int64_t>(flags.buffer_kb) * 1024;
    options.enable_prefetch = !flags.no_prefetch;
    options.motion_aware = !flags.naive_prefetch;
    if (flags.kalman) {
      options.predictor = client::BufferedClient::Options::Predictor::kKalman;
    }
    metrics = system->RunBuffered(tour, options);
  }

  std::printf("\n-- metrics --\n");
  std::printf("frames                  : %lld\n",
              static_cast<long long>(metrics.frames));
  std::printf("demand bytes            : %s\n",
              common::FormatBytes(metrics.demand_bytes).c_str());
  std::printf("prefetch bytes          : %s\n",
              common::FormatBytes(metrics.prefetch_bytes).c_str());
  std::printf("mean response / frame   : %.3f s\n",
              metrics.MeanResponseSeconds());
  std::printf("mean response / query   : %.3f s\n",
              metrics.MeanResponsePerExchange());
  std::printf("cache hit rate          : %.1f %%\n",
              100.0 * metrics.cache_hit_rate);
  std::printf("prefetch utilization    : %.1f %%\n",
              100.0 * metrics.data_utilization);
  std::printf("index I/O per frame     : %.1f\n",
              metrics.MeanNodeAccesses());
  if (flags.loss > 0.0 || flags.outage_rate > 0.0) {
    std::printf("link retries            : %lld\n",
                static_cast<long long>(metrics.retries));
    std::printf("exchange timeouts       : %lld\n",
                static_cast<long long>(metrics.timeouts));
    std::printf("outage frames           : %lld\n",
                static_cast<long long>(metrics.outage_frames));
    std::printf("stale frames            : %lld\n",
                static_cast<long long>(metrics.stale_frames));
    std::printf("worst stale run         : %lld frames\n",
                static_cast<long long>(metrics.max_stale_run_frames));
  }
  if (flags.shards > 1) {
    std::printf("\n-- shards --\n");
    PrintShardStats(*system);
  }
  PrintStorageSummary(*system);
  PrintPoolStats(*system);
  PrintRebalanceSummary(*system);
  PrintRebalanceJson(*system);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) {
    Usage();
    return 2;
  }
  if (flags.command == "generate") return Generate(flags);
  if (flags.command == "info") return Info(flags);
  if (flags.command == "run") return Run(flags);
  Usage();
  return 2;
}
