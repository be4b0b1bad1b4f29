#ifndef MARS_INDEX_PAGED_INDEX_H_
#define MARS_INDEX_PAGED_INDEX_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/status.h"
#include "geometry/box.h"
#include "index/rtree.h"
#include "storage/buffer_pool.h"
#include "storage/storage_manager.h"

namespace mars::index {

struct GroundScale;  // index/access.h

// R*-tree node storage on pages: the tree is STR-bulk-loaded in RAM exactly
// as the in-memory store keeps it, then flattened and written one node per
// logical page array (children referenced by page id instead of pointer).
// Queries traverse by page id through a BufferPool, so the paper's
// query_node_accesses metric becomes real page fetches with a hit/miss
// split — while visiting exactly the nodes the pointer-chasing traversal
// would, keeping node-access counts bit-identical to `--store memory`.
class PagedTree3 {
 public:
  // Where a written tree lives: persisted by the caller so a restart can
  // Attach instead of rebuilding.
  struct Info {
    storage::PageId root = storage::kInvalidPage;
    int32_t height = 0;
    int64_t size = 0;
  };

  // `pool` must outlive this object.
  explicit PagedTree3(storage::BufferPool* pool) : pool_(pool) {}

  // Serializes `tree` into pages. `scale` un-normalizes node MBRs back to
  // world coordinates so each page's ground region can be registered with
  // the pool for motion-aware eviction.
  common::Status Write(const RTree3& tree, const GroundScale& scale);

  // Re-attaches to a tree previously written to the same store (restart
  // path).
  void Attach(const Info& info) { info_ = info; }

  // Appends values of entries intersecting `window`, visiting exactly the
  // pages the in-memory traversal would visit nodes. Returns this call's
  // page fetches (== node accesses). Thread-safe on a const tree: the pool
  // serializes page access and the counter is relaxed.
  int64_t Query(const geometry::Box3& window, std::vector<int64_t>* out) const;

  // Returns every page of the tree to the store's freelist (epoch retire).
  common::Status FreePages();

  const Info& info() const { return info_; }
  int64_t node_accesses() const { return accesses_; }
  void ResetStats() { accesses_ = 0; }

 private:
  common::Status QueryPage(storage::PageId id, const geometry::Box3& window,
                           std::vector<int64_t>* out,
                           int64_t* accesses) const;

  storage::BufferPool* pool_;
  Info info_;
  mutable RelaxedCounter accesses_;
};

// Node storage of one coefficient access method. Load bulk-loads the
// method's keys into an RTree3, then either keeps that tree in RAM and
// queries it by pointer (no pool), or writes it through the pool as pages
// and queries those (PagedTree3). Both traversals visit the same nodes, so
// results and node accesses are identical in the two stores. Passing a
// pool at construction is the whole choice.
class TreeStore3 {
 public:
  // `pool` may be null (memory store); otherwise it must outlive this
  // object.
  TreeStore3(RTreeOptions options, storage::BufferPool* pool);

  // Replaces the stored tree with one STR-bulk-loaded over `entries`,
  // whose keys `scale` normalized (the page store registers each page's
  // world-coordinate ground region with the pool).
  void Load(std::vector<RTree3::Entry> entries, const GroundScale& scale);

  int64_t Query(const geometry::Box3& window, std::vector<int64_t>* out) const {
    return pages_ ? pages_->Query(window, out) : tree_.Query(window, out);
  }

  // Node accesses accumulated by queries since the last ResetStats().
  int64_t node_accesses() const;
  void ResetStats();

  // --- Persist surface (page store; the memory store has nothing on disk)

  // Where the paged tree lives; default Info in the memory store.
  PagedTree3::Info tree_info() const;
  // Attaches to a tree an earlier Load wrote through the same pool's store.
  void Attach(const PagedTree3::Info& info);
  // Returns the paged tree's pages to the freelist; a no-op in memory. The
  // destructor intentionally frees nothing: pages must survive shutdown
  // for restart-from-disk.
  common::Status FreePages();

 private:
  // Memory store; in the page store it stays empty and only carries the
  // options Load bulk-loads with.
  RTree3 tree_;
  std::optional<PagedTree3> pages_;  // page store: engaged iff a pool
};

}  // namespace mars::index

#endif  // MARS_INDEX_PAGED_INDEX_H_
