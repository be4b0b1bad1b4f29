#ifndef MARS_INDEX_SHARDED_INDEX_H_
#define MARS_INDEX_SHARDED_INDEX_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/statusor.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "geometry/box.h"
#include "index/access.h"
#include "index/record.h"
#include "index/rtree.h"
#include "index/shard_map.h"
#include "storage/buffer_pool.h"
#include "storage/disk_storage.h"
#include "storage/pool_warmer.h"
#include "storage/storage_manager.h"

namespace mars::index {

// Configuration of a sharded coefficient index.
struct ShardedIndexOptions {
  // Ground-plane shard count K. With the default of 1 the index is a
  // strict passthrough around one inner tree: same build, same traversal,
  // same node accesses — bit-identical to the unsharded access methods.
  int32_t shards = 1;

  // Access method each shard runs internally.
  enum class Kind {
    kSupportRegion,  // the paper's motion-aware index (Sec. VI-B)
    kNaivePoint,     // the straightforward point index (Sec. VI)
  };
  Kind kind = Kind::kSupportRegion;

  RTreeOptions rtree;

  // Worker count for parallel query fan-out (counting the caller, like
  // common::ThreadPool). 1 = sequential fan-out. Values > 1 spin up an
  // internal pool shared by all queries; a query that finds the pool
  // busy (another query is fanning out) falls back to sequential, which
  // returns the exact same records and node accesses — parallelism only
  // changes wall clock, never results.
  int32_t fanout_workers = 1;

  // Where index nodes live. The default (kMemory with no page file) keeps
  // the in-memory access methods untouched — a bit-identical passthrough.
  // kDisk pages each shard's tree into `storage.path` (shard k of K > 1
  // uses `path + ".shard<k>"`) behind a per-shard BufferPool, and Build
  // restores a slot's persisted tree instead of rebuilding it when the
  // index's manifest entry for the slot matches its routed record table.
  storage::StorageConfig storage;
};

// The coefficient access method refactored for scale: a ground-plane
// ShardMap routes every record to one of K shards, each owning an
// independent inner index (support-region or naive-point) over its own
// record slice with its own GroundScale normalization. A window query
// fans out only to the shards whose coverage box (union of routed
// support MBBs — exact for any routing) intersects the window, merging
// results in ascending shard id so the output is deterministic for any
// fan-out execution order.
//
// Sharding is also what takes ingest online: records staged after Build
// (AddObject after FinalizeRecords) accumulate in per-shard staging
// buffers, and CommitStaged folds each buffer into its shard by an epoch
// rebuild — build the shard's new table + tree off to the side, then
// swap it in under a writer lock. The other K−1 shards are untouched
// (their trees, coverage and counters survive by identity), and
// in-flight queries are never invalidated: they either hold the reader
// lock (and the swap waits) or start after the swap (and see the new
// epoch).
//
// The same build-then-swap machinery also powers *load-adaptive
// rebalancing* (SplitShard/MergeShards): the shard map generalizes to a
// splittable ground-plane tree (shard_map.h), so a hot shard can be
// halved at the median of its record centers — the high half moving to a
// freshly allocated shard id — and a cold shard forwarded into a
// neighbour, each as one epoch-style swap with counters, page files and
// buffer-pool state following the records.
//
// Disk mode keeps one manifest per index (see Manifest): the root array of
// slot 0's page file. Build, CommitStaged, SplitShard and MergeShards each
// end in one CommitManifest, whose header root write is the operation's
// single commit point.
//
// Thread safety: Query/node_accesses/Stats are safe from many threads
// concurrently, including against a concurrent Stage. CommitStaged,
// SplitShard, MergeShards and ResetStats are single-writer operations:
// at most one at a time, but safe against concurrent queries.
class ShardedCoefficientIndex : public CoefficientIndex {
 public:
  explicit ShardedCoefficientIndex(ShardedIndexOptions options);
  ~ShardedCoefficientIndex() override;

  ShardedCoefficientIndex(const ShardedCoefficientIndex&) = delete;
  ShardedCoefficientIndex& operator=(const ShardedCoefficientIndex&) = delete;

  // Builds the shard map and every shard's inner index. Unlike the inner
  // access methods, the sharded index copies each record into its shard's
  // local table, so `records` does NOT need to outlive the index.
  void Build(const std::vector<CoeffRecord>& records) override;

  // Fans out Q(region, w_max, w_min) to the intersecting shards and
  // appends the merged required set (global record ids, ascending shard
  // id, inner traversal order within a shard). Returns the node accesses
  // summed over the shards touched.
  int64_t Query(const geometry::Box2& region, double w_min, double w_max,
                std::vector<RecordId>* out) const override;

  // Per-query fan-out breakdown. max_shard_accesses is the node-access
  // count of the most expensive shard the query touched — the critical
  // path of a parallel fan-out, and the deterministic latency proxy the
  // rebalancing bench gates (wall clock would flake on runner speed).
  struct FanoutProfile {
    int32_t shards_touched = 0;
    int64_t max_shard_accesses = 0;
  };
  // Query with an optional per-call profile (nullptr behaves exactly
  // like Query); results and node accesses are identical either way.
  int64_t QueryProfiled(const geometry::Box2& region, double w_min,
                        double w_max, std::vector<RecordId>* out,
                        FanoutProfile* profile) const;

  int64_t node_accesses() const override;
  void ResetStats() override;
  std::string name() const override;

  // --- Online ingest ------------------------------------------------------

  // Stages `count` records (global ids first_id, first_id + 1, ...) into
  // their shards' staging buffers. Staged records are invisible to
  // queries until CommitStaged. Thread-safe against concurrent queries.
  void Stage(const CoeffRecord* records, size_t count, RecordId first_id);

  // Epoch rebuild: folds every non-empty staging buffer into its shard
  // (build-then-swap; only the affected shards are rebuilt). Returns the
  // number of records folded. Single-writer; safe against concurrent
  // queries.
  int64_t CommitStaged();

  // Records staged but not yet committed.
  int64_t staged_records() const;

  // Epochs committed so far (CommitStaged calls that folded records).
  int64_t epoch() const;

  // --- Load-adaptive rebalancing (single-writer, serial phase only) -------

  // Splits `shard` at the median of its records' support centers along
  // the axis with the wider center spread: the high half re-routes to a
  // freshly allocated shard id (returned). Build-then-swap like
  // CommitStaged — the split shard's traversal counters stay with the
  // surviving low half, the new shard starts fresh, and in disk mode the
  // new shard gets its own page file + buffer pool and the old epoch's
  // pages are freed once the manifest commits. Fails (no state change)
  // when the shard is retired, holds fewer than two records, or every
  // center is identical on both axes.
  common::StatusOr<int32_t> SplitShard(int32_t shard);

  // Forwards everything routed to `src` into `dst` and retires `src`:
  // dst is rebuilt over both record tables (dst's first), inherits the
  // sum of both shards' counters, and src becomes a permanently empty
  // slot (its id is never reused, and its retired flag persists in the
  // manifest). In disk mode both old trees' pages are freed once the
  // manifest commits. Fails when either shard is retired or src == dst.
  common::Status MergeShards(int32_t src, int32_t dst);

  // Rebalance ops applied so far (splits + merges).
  int64_t rebalances() const;

  // Shards that can still receive records (total slots minus retired).
  int32_t live_shard_count() const;

  // --- Observability ------------------------------------------------------

  struct ShardStats {
    int32_t shard = 0;
    int64_t records = 0;
    // Cumulative node accesses, carried across epoch rebuilds.
    int64_t node_accesses = 0;
    // Queries the fan-out routed to this shard.
    int64_t fanout_queries = 0;
    // Epoch rebuilds this shard absorbed.
    int64_t rebuilds = 0;
    // Merged away: the id no longer receives records or queries.
    bool retired = false;
    geometry::Box2 coverage;
  };
  std::vector<ShardStats> Stats() const;

  // Per-shard buffer-pool counters (empty vector in memory mode).
  struct ShardPoolStats {
    int32_t shard = 0;
    storage::PoolStats pool;
    // Page-file occupancy of the shard's store: total page slots in the
    // file, slots on the freelist, and the free slots stranded mid-file
    // (disk_storage.h fragmented_pages — the fragmentation measure
    // rebalance/epoch churn leaves behind).
    int64_t file_pages = 0;
    int64_t free_pages = 0;
    int64_t fragmented_pages = 0;
  };
  std::vector<ShardPoolStats> PoolStats() const;

  // Installs a fresh motion-interest field on every shard's buffer pool
  // (no-op in memory mode). Const because the serving path only ever sees
  // a const index; the pools are internally locked.
  void UpdateInterest(const storage::InterestGrid& interest) const;

  // --- Background pool warming (storage::PoolWarmer) ----------------------
  //
  // Active only when the storage config asks for it (disk store + warm).
  // Both calls are serial-phase only and come as a pair per tick: WarmJoin
  // installs the previous tick's speculative reads (call it FIRST, before
  // any serial-phase work that touches the raw storage managers — interest
  // refresh, rebalancing, ingest — so in-flight reads never overlap page
  // frees or manifest commits), and WarmDispatch issues the next batch
  // (call it LAST, after the tick's interest refresh and rebalance, so the
  // ranking sees the fresh grid and the settled shard layout). Const like
  // UpdateInterest: the serving path holds a const index.
  bool warming_enabled() const { return warmer_ != nullptr; }
  void WarmJoin() const;
  void WarmDispatch() const;

  bool disk_store() const {
    return options_.storage.store == storage::StoreKind::kDisk;
  }
  // Shards Build attached from a persisted page file instead of rebuilding.
  int32_t restored_shards() const { return restored_shards_; }

  // Current slot count: the configured K plus every shard a split has
  // allocated since (including retired merge sources).
  int32_t shard_count() const;
  const ShardMap& shard_map() const { return map_; }

 private:
  // One shard. Immutable after the swap that installs it, except the
  // statistics counters (relaxed atomics, like the inner trees').
  struct Shard {
    int32_t id = 0;
    // Shard-local record table the inner index is built over (the inner
    // access methods require the table to outlive the tree, so each
    // epoch owns its copy) and the local → global id map.
    std::vector<CoeffRecord> records;
    std::vector<RecordId> ids;
    // Null for an empty shard. In disk mode its node store is the
    // shard's buffer pool.
    std::unique_ptr<TreeCoefficientIndex> index;
    // Union of the ground-plane support MBBs routed here — the exact
    // fan-out filter.
    geometry::Box2 coverage;
    // Merged away: the slot stays (ids are stable) but never receives
    // records or queries again.
    bool retired = false;
    // Disk mode: FingerprintTable(records, ids), the manifest's proof on
    // restart that the persisted tree indexes the routed table.
    uint64_t fingerprint = 0;
    // Stats carried over from the epochs this shard replaced.
    int64_t retired_accesses = 0;
    int64_t rebuilds = 0;
    mutable RelaxedCounter fanout_queries;
  };

  // The index's disk metadata, one per index, stored as the root array of
  // slot 0's page file through slot 0's pool (the bare --pages path at
  // K = 1). Holds everything a restart needs to route records exactly as
  // the persisted index did and to re-attach each slot's tree.
  struct Manifest {
    struct Slot {
      bool retired = false;
      int64_t record_count = 0;
      uint64_t fingerprint = 0;
      // Root invalid for an empty slot.
      PagedTree3::Info tree;
    };
    uint8_t kind = 0;
    int32_t base_shards = 0;
    // Base grid bounds: a restart whose freshly computed grid differs bit
    // for bit ignores the manifest and rebuilds.
    geometry::Box2 bounds;
    int32_t total_shards = 0;
    std::vector<ShardMap::Refinement> refinements;
    std::vector<Slot> slots;  // total_shards entries
  };
  static std::vector<uint8_t> EncodeManifest(const Manifest& manifest);
  // Fails on any malformed, truncated or checksum-failing blob.
  static common::Status DecodeManifest(const std::vector<uint8_t>& bytes,
                                       Manifest* manifest);

  // The configured strategy over shard `shard_id`'s buffer pool in disk
  // mode, in RAM otherwise.
  std::unique_ptr<TreeCoefficientIndex> MakeInner(int32_t shard_id) const;
  // Builds a shard over `records`/`ids` (no locks held), or re-attaches
  // the tree `persisted` describes in the shard's page file.
  std::unique_ptr<Shard> BuildShard(
      int32_t id, std::vector<CoeffRecord> records, std::vector<RecordId> ids,
      const PagedTree3::Info* persisted = nullptr) const;
  // Disk mode (Build only): opens slot 0's store and decodes the manifest
  // at its root. When the manifest was written for this index (same kind,
  // base K and base grid bounds), installs its refinement list on map_
  // and returns its slot entries; otherwise (no file, no root, corrupt or
  // foreign manifest) returns none and leaves map_ as built.
  std::vector<Manifest::Slot> LoadManifest();
  // Ends every mutating operation (mu_ held exclusively). In disk mode:
  // flushes the slot stores in `written`, stores the current manifest as
  // a fresh array in slot 0, sets it as the root (the single commit
  // point) and erases the previous manifest. Then frees the pages of the
  // `replaced` shards, which no committed manifest references any more.
  void CommitManifest(const std::vector<int32_t>& written,
                      std::vector<std::unique_ptr<Shard>> replaced)
      MARS_REQUIRES(mu_);
  // Queries one shard, appending global ids; returns node accesses.
  static int64_t QueryShard(const Shard& shard, const geometry::Box2& region,
                            double w_min, double w_max,
                            std::vector<RecordId>* out);
  // Shard k's page file path (keyed to the configured K, so rebalance-
  // allocated shards always get their own ".shard<k>" suffix).
  std::string ShardFilePath(int32_t shard) const;
  // Disk mode: opens slot `shard`'s page file (recreated empty when
  // `truncate`) and installs its buffer pool with the per-slot budget,
  // closing whatever store the slot held first. On failure the slot is
  // left without a store.
  common::Status OpenShardStore(int32_t shard, bool truncate);
  // Disk mode: appends a fresh page store + buffer pool for a new slot.
  // Caller holds mu_ exclusively (PoolStats/UpdateInterest read under
  // the reader lock).
  void AddShardStore(int32_t shard);
  // Re-buckets every staged record under the current map (shard ids
  // change across a split/merge, and the staging buffers grow with the
  // slot table).
  void RebucketStaged(int32_t new_shard_count)
      MARS_REQUIRES(stage_mu_);
  // Installs `next` into its slot (mu_ held exclusively) and returns the
  // shard it replaced, for CommitManifest to free. The replaced shard's
  // cumulative counters move into `heir` (`next` itself when null).
  std::unique_ptr<Shard> SwapSlot(std::unique_ptr<Shard> next,
                                  Shard* heir = nullptr) MARS_REQUIRES(mu_);

  ShardedIndexOptions options_;
  ShardMap map_;

  // Shard array. Slots are only appended (by Build and SplitShard) and
  // the pointed-to shards are swapped whole by CommitStaged and the
  // rebalance ops — always under the writer lock, so readers iterate a
  // stable snapshot.
  mutable common::SharedMutex mu_;
  std::vector<std::unique_ptr<Shard>> shards_ MARS_GUARDED_BY(mu_);
  int64_t epoch_ MARS_GUARDED_BY(mu_) = 0;
  int64_t rebalances_ MARS_GUARDED_BY(mu_) = 0;

  // Per-shard staging buffers for online ingest.
  mutable common::Mutex stage_mu_;
  std::vector<std::vector<std::pair<RecordId, CoeffRecord>>> staged_
      MARS_GUARDED_BY(stage_mu_);
  int64_t staged_count_ MARS_GUARDED_BY(stage_mu_) = 0;

  // Fan-out pool (fanout_workers > 1). pool_mu_ admits one fanning-out
  // query at a time; contenders fall back to sequential execution.
  mutable common::Mutex pool_mu_;
  mutable std::unique_ptr<common::ThreadPool> pool_;

  // Disk mode only: per-shard page stores and buffer pools. Created by
  // Build (one per configured slot) and appended by SplitShard for each
  // slot it allocates; every epoch of a shard shares its pool (an
  // operation writes the new epoch's pages through it, and frees the old
  // epoch's after the manifest commits). Queries reach a pool through the
  // pointer its tree captured at build time, so only the vectors need
  // mu_: appends hold it exclusively, PoolStats/UpdateInterest scan under
  // the reader lock.
  std::vector<std::unique_ptr<storage::DiskStorageManager>> managers_;
  std::vector<std::unique_ptr<storage::BufferPool>> pools_;
  int32_t restored_shards_ = 0;

  // Background pool warming (storage.warm). Declared after the pools so
  // it is destroyed first — the destructor joins any in-flight reads
  // while the pools are still alive. Mutable for the same reason the
  // rebalancer is: the serving path holds a const index, and the warm
  // hooks run in serial phases only.
  mutable std::unique_ptr<storage::PoolWarmer> warmer_;
};

}  // namespace mars::index

#endif  // MARS_INDEX_SHARDED_INDEX_H_
