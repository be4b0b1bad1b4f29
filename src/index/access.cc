#include "index/access.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/logging.h"

namespace mars::index {

GroundScale GroundScale::FromRecords(
    const std::vector<CoeffRecord>& records) {
  geometry::Box2 bounds;
  for (const CoeffRecord& r : records) {
    bounds.ExtendPoint({r.support_bounds.lo(0), r.support_bounds.lo(1)});
    bounds.ExtendPoint({r.support_bounds.hi(0), r.support_bounds.hi(1)});
  }
  GroundScale s;
  if (!bounds.IsEmpty()) {
    s.off_x = bounds.lo(0);
    s.off_y = bounds.lo(1);
    if (bounds.Extent(0) > 0) s.scale_x = 1.0 / bounds.Extent(0);
    if (bounds.Extent(1) > 0) s.scale_y = 1.0 / bounds.Extent(1);
  }
  return s;
}

// --- TreeCoefficientIndex --------------------------------------------------

TreeCoefficientIndex::TreeCoefficientIndex(RTreeOptions options,
                                           storage::BufferPool* pool)
    : store_(options, pool) {}

void TreeCoefficientIndex::Build(const std::vector<CoeffRecord>& records) {
  Derive(records);
  std::vector<RTree3::Entry> entries;
  entries.reserve(records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    entries.push_back({Key(records[i]), static_cast<int64_t>(i)});
  }
  store_.Load(std::move(entries), scale_);
}

void TreeCoefficientIndex::Restore(const std::vector<CoeffRecord>& records,
                                   const PagedTree3::Info& info) {
  Derive(records);
  store_.Attach(info);
}

void TreeCoefficientIndex::Derive(const std::vector<CoeffRecord>& records) {
  scale_ = GroundScale::FromRecords(records);
}

geometry::Box3 TreeCoefficientIndex::LiftWindow(const geometry::Box2& region,
                                                double w_min,
                                                double w_max) const {
  return geometry::Box3(
      {scale_.X(region.lo(0)), scale_.Y(region.lo(1)), w_min},
      {scale_.X(region.hi(0)), scale_.Y(region.hi(1)), w_max});
}

// --- SupportRegionIndex --------------------------------------------------

SupportRegionIndex::SupportRegionIndex(RTreeOptions options,
                                       storage::BufferPool* pool)
    : TreeCoefficientIndex(options, pool) {}

geometry::Box3 SupportRegionIndex::Key(const CoeffRecord& r) const {
  return geometry::Box3({scale_.X(r.support_bounds.lo(0)),
                         scale_.Y(r.support_bounds.lo(1)), r.w},
                        {scale_.X(r.support_bounds.hi(0)),
                         scale_.Y(r.support_bounds.hi(1)), r.w});
}

int64_t SupportRegionIndex::Query(const geometry::Box2& region, double w_min,
                                  double w_max,
                                  std::vector<RecordId>* out) const {
  return store_.Query(LiftWindow(region, w_min, w_max), out);
}

// --- NaivePointIndex ------------------------------------------------------

NaivePointIndex::NaivePointIndex(RTreeOptions options,
                                 storage::BufferPool* pool)
    : TreeCoefficientIndex(options, pool) {}

void NaivePointIndex::Derive(const std::vector<CoeffRecord>& records) {
  TreeCoefficientIndex::Derive(records);
  records_ = &records;
  max_extent_x_ = 0.0;
  max_extent_y_ = 0.0;
  for (const CoeffRecord& r : records) {
    max_extent_x_ = std::max(max_extent_x_,
                             r.support_bounds.Extent(0) * scale_.scale_x);
    max_extent_y_ = std::max(max_extent_y_,
                             r.support_bounds.Extent(1) * scale_.scale_y);
  }
}

geometry::Box3 NaivePointIndex::Key(const CoeffRecord& r) const {
  return geometry::Box3(
      {scale_.X(r.position.x), scale_.Y(r.position.y), r.w},
      {scale_.X(r.position.x), scale_.Y(r.position.y), r.w});
}

int64_t NaivePointIndex::Query(const geometry::Box2& region, double w_min,
                               double w_max,
                               std::vector<RecordId>* out) const {
  MARS_CHECK(records_ != nullptr) << "Query before Build";

  // Pass 1 (paper Sec. VI): coefficients whose vertex falls inside the
  // window. These results alone are insufficient for rendering; they only
  // reveal which neighbourhoods must be fetched, so the work is repeated
  // below over the extended region.
  const geometry::Box3 window = LiftWindow(region, w_min, w_max);
  std::vector<int64_t> first_pass;
  int64_t accesses = store_.Query(window, &first_pass);

  // Pass 2: re-execute over the extended region that covers every possible
  // neighbouring vertex, then keep the records whose support region
  // actually touches the original window.
  geometry::Box3 extended = window;
  extended.set_lo(0, extended.lo(0) - max_extent_x_);
  extended.set_hi(0, extended.hi(0) + max_extent_x_);
  extended.set_lo(1, extended.lo(1) - max_extent_y_);
  extended.set_hi(1, extended.hi(1) + max_extent_y_);

  std::vector<int64_t> second_pass;
  accesses += store_.Query(extended, &second_pass);

  for (int64_t id : second_pass) {
    const CoeffRecord& rec = (*records_)[id];
    const geometry::Box2 support2(
        {rec.support_bounds.lo(0), rec.support_bounds.lo(1)},
        {rec.support_bounds.hi(0), rec.support_bounds.hi(1)});
    if (support2.Intersects(region)) {
      out->push_back(id);
    }
  }
  return accesses;
}

// --- SupportRegionIndex4D ---------------------------------------------------

SupportRegionIndex4D::SupportRegionIndex4D(RTreeOptions options)
    : options_(options), tree_(options) {}

void SupportRegionIndex4D::Build(const std::vector<CoeffRecord>& records) {
  scale_ = GroundScale::FromRecords(records);
  double z_lo = std::numeric_limits<double>::max();
  double z_hi = std::numeric_limits<double>::lowest();
  for (const CoeffRecord& r : records) {
    z_lo = std::min(z_lo, r.support_bounds.lo(2));
    z_hi = std::max(z_hi, r.support_bounds.hi(2));
  }
  if (z_lo <= z_hi) {
    off_z_ = z_lo;
    if (z_hi > z_lo) scale_z_ = 1.0 / (z_hi - z_lo);
  }
  std::vector<RTree4::Entry> entries;
  entries.reserve(records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    const CoeffRecord& r = records[i];
    const geometry::Box4 key(
        {scale_.X(r.support_bounds.lo(0)), scale_.Y(r.support_bounds.lo(1)),
         (r.support_bounds.lo(2) - off_z_) * scale_z_, r.w},
        {scale_.X(r.support_bounds.hi(0)), scale_.Y(r.support_bounds.hi(1)),
         (r.support_bounds.hi(2) - off_z_) * scale_z_, r.w});
    entries.push_back({key, static_cast<int64_t>(i)});
  }
  tree_ = RTree4::BulkLoad(std::move(entries), options_);
}

int64_t SupportRegionIndex4D::Query(const geometry::Box3& region,
                                    double w_min, double w_max,
                                    std::vector<RecordId>* out) const {
  const geometry::Box4 window(
      {scale_.X(region.lo(0)), scale_.Y(region.lo(1)),
       (region.lo(2) - off_z_) * scale_z_, w_min},
      {scale_.X(region.hi(0)), scale_.Y(region.hi(1)),
       (region.hi(2) - off_z_) * scale_z_, w_max});
  return tree_.Query(window, out);
}

// --- ObjectIndex ----------------------------------------------------------

ObjectIndex::ObjectIndex(RTreeOptions options) : tree_(options) {}

void ObjectIndex::Build(const std::vector<geometry::Box3>& object_bounds) {
  for (size_t i = 0; i < object_bounds.size(); ++i) {
    const geometry::Box3& b = object_bounds[i];
    tree_.Insert(geometry::Box2({b.lo(0), b.lo(1)}, {b.hi(0), b.hi(1)}),
                 static_cast<int64_t>(i));
  }
}

void ObjectIndex::Insert(int32_t object_id, const geometry::Box3& bounds) {
  tree_.Insert(geometry::Box2({bounds.lo(0), bounds.lo(1)},
                              {bounds.hi(0), bounds.hi(1)}),
               static_cast<int64_t>(object_id));
}

int64_t ObjectIndex::Query(const geometry::Box2& region,
                           std::vector<int32_t>* out) const {
  std::vector<int64_t> hits;
  const int64_t accesses = tree_.Query(region, &hits);
  out->reserve(out->size() + hits.size());
  for (int64_t h : hits) {
    out->push_back(static_cast<int32_t>(h));
  }
  return accesses;
}

}  // namespace mars::index
