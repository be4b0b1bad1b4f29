#include "index/paged_index.h"

#include <utility>

#include "common/logging.h"
#include "common/serialize.h"
#include "index/access.h"

namespace mars::index {
namespace {

// Node page payload:
//   u8  is_leaf
//   u32 count
//   then `count` of either
//     leaf:     Box3 (6 doubles) + i64 record id
//     internal: child MBR Box3 (6 doubles) + i64 child head page id
void WriteBox3(common::ByteWriter* w, const geometry::Box3& box) {
  for (size_t k = 0; k < 3; ++k) w->WriteDouble(box.lo(k));
  for (size_t k = 0; k < 3; ++k) w->WriteDouble(box.hi(k));
}

common::Status ReadBox3(common::ByteReader* r, geometry::Box3* box) {
  double lo[3];
  double hi[3];
  for (double& v : lo) MARS_RETURN_IF_ERROR(r->ReadDouble(&v));
  for (double& v : hi) MARS_RETURN_IF_ERROR(r->ReadDouble(&v));
  *box = geometry::Box3({lo[0], lo[1], lo[2]}, {hi[0], hi[1], hi[2]});
  return common::OkStatus();
}

// Un-normalizes a node MBR's ground footprint back to world coordinates
// for motion-aware page scoring.
geometry::Box2 GroundRegion(const GroundScale& scale,
                            const geometry::Box3& mbr) {
  if (mbr.IsEmpty()) return geometry::Box2();
  return geometry::Box2({mbr.lo(0) / scale.scale_x + scale.off_x,
                         mbr.lo(1) / scale.scale_y + scale.off_y},
                        {mbr.hi(0) / scale.scale_x + scale.off_x,
                         mbr.hi(1) / scale.scale_y + scale.off_y});
}

}  // namespace

// --- PagedTree3 ----------------------------------------------------------

common::Status PagedTree3::Write(const RTree3& tree,
                                 const GroundScale& scale) {
  const std::vector<RTree3::FlatNode> flat = tree.Flatten();
  std::vector<storage::PageId> page_of(flat.size(), storage::kInvalidPage);
  // Children follow their parent in preorder, so writing back-to-front
  // guarantees every child already has a page id when its parent
  // serializes.
  for (int64_t i = static_cast<int64_t>(flat.size()) - 1; i >= 0; --i) {
    const RTree3::FlatNode& node = flat[i];
    common::ByteWriter w;
    w.WriteU8(node.is_leaf ? 1 : 0);
    if (node.is_leaf) {
      w.WriteU32(static_cast<uint32_t>(node.entries.size()));
      for (const RTree3::Entry& e : node.entries) {
        WriteBox3(&w, e.box);
        w.WriteI64(e.value);
      }
    } else {
      w.WriteU32(static_cast<uint32_t>(node.children.size()));
      for (size_t k = 0; k < node.children.size(); ++k) {
        WriteBox3(&w, node.child_mbrs[k]);
        w.WriteI64(page_of[node.children[k]]);
      }
    }
    storage::PageId id = storage::kInvalidPage;
    MARS_RETURN_IF_ERROR(pool_->Store(&id, w.buffer()));
    pool_->SetPageRegion(id, GroundRegion(scale, node.mbr));
    page_of[i] = id;
  }
  info_.root = page_of.empty() ? storage::kInvalidPage : page_of[0];
  info_.height = tree.height();
  info_.size = tree.size();
  return common::OkStatus();
}

common::Status PagedTree3::QueryPage(storage::PageId id,
                                     const geometry::Box3& window,
                                     std::vector<int64_t>* out,
                                     int64_t* accesses) const {
  ++*accesses;
  std::vector<uint8_t> bytes;
  MARS_RETURN_IF_ERROR(pool_->Fetch(id, &bytes));
  common::ByteReader r(bytes.data(), bytes.size());
  uint8_t is_leaf = 0;
  uint32_t count = 0;
  MARS_RETURN_IF_ERROR(r.ReadU8(&is_leaf));
  MARS_RETURN_IF_ERROR(r.ReadU32(&count));
  for (uint32_t k = 0; k < count; ++k) {
    geometry::Box3 box;
    int64_t value = 0;
    MARS_RETURN_IF_ERROR(ReadBox3(&r, &box));
    MARS_RETURN_IF_ERROR(r.ReadI64(&value));
    if (!box.Intersects(window)) continue;
    if (is_leaf != 0) {
      out->push_back(value);
    } else {
      MARS_RETURN_IF_ERROR(QueryPage(value, window, out, accesses));
    }
  }
  return common::OkStatus();
}

int64_t PagedTree3::Query(const geometry::Box3& window,
                          std::vector<int64_t>* out) const {
  if (info_.root == storage::kInvalidPage) return 0;
  int64_t accesses = 0;
  const common::Status status = QueryPage(info_.root, window, out, &accesses);
  // Pages were validated (checksummed) when the tree was written or
  // restored; a failure here means the store broke underneath a live
  // index, which has no recovery short of a rebuild.
  MARS_CHECK(status.ok()) << "paged query failed: " << status.ToString();
  accesses_ += accesses;
  return accesses;
}

common::Status PagedTree3::FreePages() {
  if (info_.root == storage::kInvalidPage) return common::OkStatus();
  std::vector<storage::PageId> stack = {info_.root};
  while (!stack.empty()) {
    const storage::PageId id = stack.back();
    stack.pop_back();
    std::vector<uint8_t> bytes;
    MARS_RETURN_IF_ERROR(pool_->Fetch(id, &bytes));
    common::ByteReader r(bytes.data(), bytes.size());
    uint8_t is_leaf = 0;
    uint32_t count = 0;
    MARS_RETURN_IF_ERROR(r.ReadU8(&is_leaf));
    MARS_RETURN_IF_ERROR(r.ReadU32(&count));
    if (is_leaf == 0) {
      for (uint32_t k = 0; k < count; ++k) {
        geometry::Box3 box;
        int64_t child = 0;
        MARS_RETURN_IF_ERROR(ReadBox3(&r, &box));
        MARS_RETURN_IF_ERROR(r.ReadI64(&child));
        stack.push_back(child);
      }
    }
    MARS_RETURN_IF_ERROR(pool_->Erase(id));
  }
  info_ = Info();
  return common::OkStatus();
}

// --- TreeStore3 ------------------------------------------------------------

TreeStore3::TreeStore3(RTreeOptions options, storage::BufferPool* pool)
    : tree_(options) {
  if (pool != nullptr) pages_.emplace(pool);
}

void TreeStore3::Load(std::vector<RTree3::Entry> entries,
                      const GroundScale& scale) {
  RTree3 tree = RTree3::BulkLoad(std::move(entries), tree_.options());
  if (!pages_) {
    tree_ = std::move(tree);
    return;
  }
  const common::Status status = pages_->Write(tree, scale);
  MARS_CHECK(status.ok()) << "paged build failed: " << status.ToString();
}

int64_t TreeStore3::node_accesses() const {
  return pages_ ? pages_->node_accesses()
                : tree_.stats().query_node_accesses.load();
}

void TreeStore3::ResetStats() {
  tree_.ResetStats();
  if (pages_) pages_->ResetStats();
}

PagedTree3::Info TreeStore3::tree_info() const {
  return pages_ ? pages_->info() : PagedTree3::Info();
}

void TreeStore3::Attach(const PagedTree3::Info& info) {
  MARS_CHECK(pages_.has_value()) << "Attach needs the page store";
  pages_->Attach(info);
}

common::Status TreeStore3::FreePages() {
  return pages_ ? pages_->FreePages() : common::OkStatus();
}

}  // namespace mars::index
