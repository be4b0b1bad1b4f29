#ifndef MARS_STORAGE_BUFFER_POOL_H_
#define MARS_STORAGE_BUFFER_POOL_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "buffer/lru_cache.h"
#include "common/mutex.h"
#include "common/status.h"
#include "geometry/box.h"
#include "storage/storage_manager.h"

namespace mars::storage {

// Server-side visit-probability field over the ground plane, produced from
// the fleet's motion predictors (see server::MotionInterestTracker). Kept
// dependency-free of src/motion so the storage layer stays a leaf library:
// producers translate predictor output into this grid.
struct InterestGrid {
  geometry::Box2 space;
  int32_t nx = 0;
  int32_t ny = 0;
  std::vector<double> score;  // row-major nx*ny block scores

  bool empty() const { return nx <= 0 || ny <= 0 || score.empty(); }

  friend bool operator==(const InterestGrid&, const InterestGrid&) = default;

  // Mean block score over the blocks a world-space region overlaps (zero
  // when the grid is empty or the region misses the space entirely).
  double ScoreRegion(const geometry::Box2& region) const;
};

// Cumulative buffer-pool counters, exported per shard in the fleet JSON.
struct PoolStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t evictions = 0;
  int64_t disk_reads = 0;   // pages read from the backing store on misses
  int64_t disk_writes = 0;  // pages written through to the backing store
  int64_t resident = 0;     // logical arrays currently cached
  int64_t resident_pages = 0;
  // Pool-warming counters (units are logical arrays, like hits/misses).
  int64_t prefetch_issued = 0;   // speculative reads dispatched
  int64_t prefetch_hits = 0;     // speculative entries a query later hit
  int64_t prefetch_wasted = 0;   // speculative entries evicted unused
  int64_t prefetch_dropped = 0;  // installs refused (resident / too cold)

  friend bool operator==(const PoolStats&, const PoolStats&) = default;
};

// Thread-safe cache of logical node arrays in front of an IStorageManager.
// Capacity is counted in pages (an array costs its overflow-chain length)
// and eviction is pluggable: LRU via buffer::LruCache — the same policy the
// paper's client buffer baseline uses — or motion-aware, which scores each
// resident array by the fleet's predicted visit probability for the
// world-space region its node covers and evicts the coldest future region
// first (ties broken by recency, then page id, so runs are deterministic).
class BufferPool {
 public:
  // `manager` must outlive the pool. `capacity_pages` below 1 is clamped.
  BufferPool(IStorageManager* manager, int64_t capacity_pages,
             EvictPolicy policy);

  // Loads the array with head page `id`, from cache on a hit or from the
  // backing store (then cached) on a miss.
  common::Status Fetch(PageId id, std::vector<uint8_t>* out);

  // Write-through store: persists via the manager and caches the bytes.
  common::Status Store(PageId* id, const std::vector<uint8_t>& data);

  // Drops the array from cache and frees it in the backing store.
  common::Status Erase(PageId id);

  // Forwards to the manager (root bookkeeping and durability).
  common::Status Flush();
  common::Status SetRoot(PageId id);
  PageId root() const;

  // Registers the world-space ground region covered by an array's node, so
  // the motion policy can score it against the interest grid. Safe to call
  // for ids that are not resident.
  void SetPageRegion(PageId id, const geometry::Box2& region);

  // Installs a fresh interest field and rescores every resident array. A
  // field equal to the installed one is a no-op: every resident's score
  // already equals its region's score under it.
  void UpdateInterest(const InterestGrid& interest);

  // --- Pool-warming surface (storage::PoolWarmer) -------------------------
  //
  // The warmer speculatively reads not-resident arrays off-thread and
  // installs them at the next serial commit point. Reads coexist with
  // concurrent Fetch calls (everything serialises on the pool mutex);
  // installs and candidate scans run in serial phases only.

  // One not-resident array and its interest score under the current grid.
  struct PrefetchCandidate {
    PageId id = kInvalidPage;
    double score = 0.0;
  };
  // Every registered array that is not resident and scores above zero
  // under the current interest field, in ascending id order (the warmer
  // re-sorts globally by score, so the order here only fixes ties). The
  // scored list is cached and rebuilt only after the field or the
  // registered regions change; other calls just drop resident arrays.
  std::vector<PrefetchCandidate> PrefetchCandidates();

  // Loads the array's bytes from the backing store without touching the
  // hit/miss counters or the resident set — the speculative read half of
  // a prefetch. Safe against concurrent Fetch calls.
  common::Status ReadForPrefetch(PageId id, std::vector<uint8_t>* out);

  // Counts `count` dispatched speculative reads (prefetch_issued).
  void NotePrefetchIssued(int64_t count);

  // Installs a speculatively read array under the never-evict-hotter
  // rule: the entry is admitted only if any eviction it forces hits
  // strictly colder residents; otherwise — or when the array is already
  // resident (a query beat the prefetch) or no longer registered — the
  // install is refused and counted as prefetch_dropped.
  void InstallPrefetched(PageId id, const std::vector<uint8_t>& bytes);

  // Counts a speculative read that failed before install (dropped).
  void NotePrefetchFailed();

  PoolStats stats() const;
  EvictPolicy policy() const { return policy_; }
  int64_t capacity_pages() const { return capacity_pages_; }

  // Access to the backing manager for single-threaded control-plane work.
  // Do not mix with concurrent Fetch calls. (The sharded index's manifest
  // goes through the pool itself: Store, SetRoot, Flush, Erase.)
  IStorageManager* manager() { return manager_; }

 private:
  struct Resident {
    std::vector<uint8_t> bytes;
    int64_t cost_pages = 1;
    double score = 0.0;     // motion policy: predicted visit probability
    int64_t last_use = 0;   // pool-local logical clock
    // Installed by the warmer and not yet touched by a query: the first
    // Fetch hit clears it (prefetch_hits); eviction before that counts
    // prefetch_wasted.
    bool speculative = false;
  };

  int64_t PageCost(size_t bytes) const;
  void InsertLocked(PageId id, const std::vector<uint8_t>& bytes)
      MARS_REQUIRES(mu_);
  void EvictForLocked(PageId just_inserted) MARS_REQUIRES(mu_);
  double ScoreLocked(PageId id) const MARS_REQUIRES(mu_);
  // Removes `victim` from the resident set (never-touched speculative
  // victims count prefetch_wasted on top of the eviction).
  void RemoveResidentLocked(PageId victim) MARS_REQUIRES(mu_);
  // Evicts the coldest resident strictly colder than `score` (same
  // motion-policy tie-breaks as EvictForLocked). Returns false — no
  // state change — when every resident is at least as hot.
  bool EvictColderLocked(double score) MARS_REQUIRES(mu_);

  IStorageManager* const manager_;
  const int64_t capacity_pages_;
  const EvictPolicy policy_;

  mutable common::Mutex mu_;
  buffer::LruCache<PageId> lru_ MARS_GUARDED_BY(mu_);
  std::unordered_map<PageId, Resident> resident_ MARS_GUARDED_BY(mu_);
  std::unordered_map<PageId, geometry::Box2> regions_ MARS_GUARDED_BY(mu_);
  InterestGrid interest_ MARS_GUARDED_BY(mu_);
  // Every registered array scoring above zero under interest_, ascending
  // id; rebuilt by PrefetchCandidates when `scored_stale_` is set.
  std::vector<PrefetchCandidate> scored_ MARS_GUARDED_BY(mu_);
  bool scored_stale_ MARS_GUARDED_BY(mu_) = true;
  int64_t clock_ MARS_GUARDED_BY(mu_) = 0;
  int64_t used_pages_ MARS_GUARDED_BY(mu_) = 0;
  PoolStats stats_ MARS_GUARDED_BY(mu_);
};

}  // namespace mars::storage

#endif  // MARS_STORAGE_BUFFER_POOL_H_
