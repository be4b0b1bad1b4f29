#ifndef MARS_INDEX_ACCESS_H_
#define MARS_INDEX_ACCESS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "geometry/box.h"
#include "index/paged_index.h"
#include "index/record.h"
#include "index/rtree.h"
#include "storage/buffer_pool.h"

namespace mars::index {

// Access method over the server's coefficient records for the window query
// Q(R, w_max, w_min) of paper Sec. VI. The *required set* of a query is the
// set of records whose support-region MBB intersects R (in the ground
// plane) with w in [w_min, w_max]; both strategies return exactly that set,
// at different I/O cost.
//
// Thread safety: after Build, Query on a const index is safe from many
// threads concurrently — the cumulative counters are relaxed atomics and
// each call returns its own node-access count, so per-exchange accounting
// never reads order-dependent counter deltas.
class CoefficientIndex {
 public:
  virtual ~CoefficientIndex() = default;

  // Builds the index over `records`; the table must outlive the index.
  virtual void Build(const std::vector<CoeffRecord>& records) = 0;

  // Appends the ids of the required set for Q(region, w_max, w_min);
  // returns the node accesses this call spent.
  virtual int64_t Query(const geometry::Box2& region, double w_min,
                        double w_max, std::vector<RecordId>* out) const = 0;

  // Node accesses accumulated by queries since the last ResetStats() — the
  // paper's I/O cost metric.
  virtual int64_t node_accesses() const = 0;
  virtual void ResetStats() = 0;

  virtual std::string name() const = 0;
};

// Affine per-axis normalization of the ground plane into [0, 1], so that
// x, y (meters) and w (already unit-scaled) are commensurate inside the
// R*-tree — its margin/overlap split criteria mix axis units and degrade
// badly when one axis spans kilometers and another spans 1.0 (see the
// index ablation bench).
struct GroundScale {
  double off_x = 0.0, off_y = 0.0;
  double scale_x = 1.0, scale_y = 1.0;

  static GroundScale FromRecords(const std::vector<CoeffRecord>& records);

  double X(double x) const { return (x - off_x) * scale_x; }
  double Y(double y) const { return (y - off_y) * scale_y; }
};

// The two strategies of paper Sec. VI, each over one (x, y, w) R*-tree.
// They differ only in the key a record gets and in how a window is
// answered. What they share lives here once: the ground normalization,
// the window lift, and the node store (TreeStore3) — the STR-loaded tree
// kept in RAM, or written through a buffer pool as pages when the
// constructor is given one. The persist surface serves the sharded index's
// disk mode; in memory it has nothing to persist.
class TreeCoefficientIndex : public CoefficientIndex {
 public:
  void Build(const std::vector<CoeffRecord>& records) final;
  int64_t node_accesses() const final { return store_.node_accesses(); }
  void ResetStats() final { store_.ResetStats(); }

  // Where the tree's pages live (page store).
  PagedTree3::Info tree_info() const { return store_.tree_info(); }

  // Attaches to the tree an earlier Build over the same `records` wrote
  // to the pool, instead of rebuilding; the derived state (normalization,
  // extents) is recomputed by the function Build uses.
  void Restore(const std::vector<CoeffRecord>& records,
               const PagedTree3::Info& info);

  // Returns the tree's pages to the store's freelist (epoch retire); a
  // no-op in memory.
  common::Status FreePages() { return store_.FreePages(); }

 protected:
  TreeCoefficientIndex(RTreeOptions options, storage::BufferPool* pool);

  // Recomputes the state derived from the record table: the ground
  // normalization here, plus whatever a strategy adds.
  virtual void Derive(const std::vector<CoeffRecord>& records);

  // The strategy's R*-tree key for `record`, in normalized coordinates.
  virtual geometry::Box3 Key(const CoeffRecord& record) const = 0;

  // Lifts a ground-plane window and a w-range into the normalized
  // (x, y, w) key space.
  geometry::Box3 LiftWindow(const geometry::Box2& region, double w_min,
                            double w_max) const;

  GroundScale scale_;
  TreeStore3 store_;
};

// The paper's proposed index (Sec. VI-B): a 3D (x, y, w) R*-tree over the
// support-region MBBs of the coefficients, exactly as in the experimental
// study (Sec. VII-D). One traversal returns the minimal required set.
class SupportRegionIndex : public TreeCoefficientIndex {
 public:
  // `pool` (optional) selects the page store; it must outlive the index.
  explicit SupportRegionIndex(RTreeOptions options = RTreeOptions(),
                              storage::BufferPool* pool = nullptr);

  int64_t Query(const geometry::Box2& region, double w_min, double w_max,
                std::vector<RecordId>* out) const override;
  std::string name() const override { return "support-region"; }

 private:
  geometry::Box3 Key(const CoeffRecord& record) const override;
};

// The straightforward access method the paper argues against (Sec. VI): a
// 3D (x, y, w) R*-tree over coefficient *positions*. Answering a query
// takes two passes — the initial window query plus a re-execution over the
// extended region covering the neighbouring vertices — and the second pass
// re-fetches data the first already saw.
//
// For the extended region we use the correctness-preserving variant: the
// window grown by the dataset's maximum support-region extent. It subsumes
// the paper's per-result bounding region (any record whose support box
// intersects R has its vertex within that distance of R), so both
// strategies provably return the same required set.
class NaivePointIndex : public TreeCoefficientIndex {
 public:
  // `pool` (optional) selects the page store; it must outlive the index.
  explicit NaivePointIndex(RTreeOptions options = RTreeOptions(),
                           storage::BufferPool* pool = nullptr);

  int64_t Query(const geometry::Box2& region, double w_min, double w_max,
                std::vector<RecordId>* out) const override;
  std::string name() const override { return "naive-point"; }

 private:
  void Derive(const std::vector<CoeffRecord>& records) override;
  geometry::Box3 Key(const CoeffRecord& record) const override;

  const std::vector<CoeffRecord>* records_ = nullptr;
  // Maximum support extents in normalized coordinates.
  double max_extent_x_ = 0.0;
  double max_extent_y_ = 0.0;
};

// The full four-dimensional variant of the paper's index (Sec. VI-B): a
// 4D (x, y, z, w) R*-tree over the support-region MBBs, for clients whose
// region of interest is a 3D box (e.g. a view frustum bound) rather than
// a ground-plane window. The experimental study of Sec. VII-D uses the 3D
// x-y-w projection (SupportRegionIndex); this variant covers the general
// formulation. Spatial axes are normalized like the 3D index.
class SupportRegionIndex4D {
 public:
  explicit SupportRegionIndex4D(RTreeOptions options = RTreeOptions());

  void Build(const std::vector<CoeffRecord>& records);

  // Q(R, w_max, w_min) with a 3D region of interest; returns this call's
  // node accesses.
  int64_t Query(const geometry::Box3& region, double w_min, double w_max,
                std::vector<RecordId>* out) const;

  int64_t node_accesses() const { return tree_.stats().query_node_accesses; }
  void ResetStats() { tree_.ResetStats(); }

 private:
  RTreeOptions options_;
  RTree4 tree_;
  GroundScale scale_;
  double off_z_ = 0.0;
  double scale_z_ = 1.0;
};

// Object-granularity R*-tree used by the fully naive end-to-end system
// (Sec. VII-E): ground-plane MBRs of whole objects, no resolutions.
class ObjectIndex {
 public:
  explicit ObjectIndex(RTreeOptions options = RTreeOptions());

  // object_bounds[i] = world bounds of object i.
  void Build(const std::vector<geometry::Box3>& object_bounds);

  // Adds one object after Build (online ingest). Not safe against
  // concurrent queries — callers serialize it with the query path.
  void Insert(int32_t object_id, const geometry::Box3& bounds);

  // Appends the ids of objects whose ground-plane MBR intersects `region`;
  // returns this call's node accesses.
  int64_t Query(const geometry::Box2& region,
                std::vector<int32_t>* out) const;

  int64_t node_accesses() const { return tree_.stats().query_node_accesses; }
  void ResetStats() { tree_.ResetStats(); }

 private:
  RTree2 tree_;
};

}  // namespace mars::index

#endif  // MARS_INDEX_ACCESS_H_
