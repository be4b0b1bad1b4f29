#include "index/sharded_index.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <utility>

#include "common/logging.h"
#include "common/serialize.h"

namespace mars::index {

namespace {

// Ground-plane (x, y) projection of a record's support MBB.
geometry::Box2 GroundSupport(const CoeffRecord& r) {
  return geometry::Box2({r.support_bounds.lo(0), r.support_bounds.lo(1)},
                        {r.support_bounds.hi(0), r.support_bounds.hi(1)});
}

uint64_t HashDouble(double v, uint64_t h) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return storage::Fnv1a64Mix(bits, h);
}

// Fingerprint of a shard's routed table: record identity, geometry, and
// global ids, order-sensitive. Any change to the dataset or the routing
// (shard count, shard map) changes the fingerprint and forces a rebuild.
uint64_t FingerprintTable(const std::vector<CoeffRecord>& records,
                          const std::vector<RecordId>& ids) {
  uint64_t h = storage::kFnvOffset;
  for (size_t i = 0; i < records.size(); ++i) {
    const CoeffRecord& r = records[i];
    h = storage::Fnv1a64Mix(static_cast<uint64_t>(r.object_id), h);
    h = storage::Fnv1a64Mix(static_cast<uint64_t>(r.coeff_id), h);
    h = HashDouble(r.w, h);
    h = HashDouble(r.position.x, h);
    h = HashDouble(r.position.y, h);
    h = HashDouble(r.support_bounds.lo(0), h);
    h = HashDouble(r.support_bounds.lo(1), h);
    h = HashDouble(r.support_bounds.hi(0), h);
    h = HashDouble(r.support_bounds.hi(1), h);
    h = storage::Fnv1a64Mix(static_cast<uint64_t>(ids[i]), h);
  }
  return h;
}

constexpr uint64_t kManifestMagic = 0x5453464e414d3144ull;  // "D1MANFST" LE
constexpr uint32_t kManifestVersion = 1;

std::string KindName(ShardedIndexOptions::Kind kind) {
  switch (kind) {
    case ShardedIndexOptions::Kind::kSupportRegion:
      return "support-region";
    case ShardedIndexOptions::Kind::kNaivePoint:
      return "naive-point";
  }
  MARS_CHECK(false);
  return "";
}

}  // namespace

// Layout: magic, version, kind, base K, total_shards, base grid bounds
// (empty flag, then lo/hi), the refinement list, one entry per slot, and
// an FNV-1a checksum over everything before it.
std::vector<uint8_t> ShardedCoefficientIndex::EncodeManifest(
    const Manifest& m) {
  common::ByteWriter w;
  w.WriteU64(kManifestMagic);
  w.WriteU32(kManifestVersion);
  w.WriteU8(m.kind);
  w.WriteI32(m.base_shards);
  w.WriteI32(m.total_shards);
  w.WriteU8(m.bounds.IsEmpty() ? 1 : 0);
  if (!m.bounds.IsEmpty()) {
    w.WriteDouble(m.bounds.lo(0));
    w.WriteDouble(m.bounds.lo(1));
    w.WriteDouble(m.bounds.hi(0));
    w.WriteDouble(m.bounds.hi(1));
  }
  w.WriteI64(static_cast<int64_t>(m.refinements.size()));
  for (const ShardMap::Refinement& op : m.refinements) {
    w.WriteU8(static_cast<uint8_t>(op.kind));
    w.WriteI32(op.shard);
    w.WriteI32(op.target);
    w.WriteI32(op.axis);
    w.WriteDouble(op.threshold);
  }
  for (const Manifest::Slot& slot : m.slots) {
    w.WriteU8(slot.retired ? 1 : 0);
    w.WriteI64(slot.record_count);
    w.WriteU64(slot.fingerprint);
    w.WriteI64(slot.tree.root);
    w.WriteI32(slot.tree.height);
    w.WriteI64(slot.tree.size);
  }
  w.WriteU64(storage::Fnv1a64(w.buffer().data(), w.buffer().size()));
  return w.Take();
}

common::Status ShardedCoefficientIndex::DecodeManifest(
    const std::vector<uint8_t>& bytes, Manifest* m) {
  if (bytes.size() < sizeof(uint64_t)) {
    return common::InternalError("shard manifest: truncated");
  }
  const size_t body = bytes.size() - sizeof(uint64_t);
  common::ByteReader tail(bytes.data() + body, sizeof(uint64_t));
  uint64_t checksum = 0;
  MARS_RETURN_IF_ERROR(tail.ReadU64(&checksum));
  if (storage::Fnv1a64(bytes.data(), body) != checksum) {
    return common::InternalError("shard manifest: checksum mismatch");
  }
  common::ByteReader r(bytes.data(), body);
  uint64_t magic = 0;
  uint32_t version = 0;
  MARS_RETURN_IF_ERROR(r.ReadU64(&magic));
  MARS_RETURN_IF_ERROR(r.ReadU32(&version));
  if (magic != kManifestMagic || version != kManifestVersion) {
    return common::InternalError("shard manifest: bad magic or version");
  }
  MARS_RETURN_IF_ERROR(r.ReadU8(&m->kind));
  MARS_RETURN_IF_ERROR(r.ReadI32(&m->base_shards));
  MARS_RETURN_IF_ERROR(r.ReadI32(&m->total_shards));
  if (m->base_shards < 1 || m->total_shards < m->base_shards ||
      m->total_shards > 1'000'000) {
    return common::InternalError("shard manifest: bad shard counts");
  }
  uint8_t empty = 0;
  MARS_RETURN_IF_ERROR(r.ReadU8(&empty));
  m->bounds = geometry::Box2();
  if (empty == 0) {
    std::array<double, 4> v = {0, 0, 0, 0};
    for (double& x : v) MARS_RETURN_IF_ERROR(r.ReadDouble(&x));
    m->bounds = geometry::Box2({v[0], v[1]}, {v[2], v[3]});
  }
  int64_t count = 0;
  MARS_RETURN_IF_ERROR(r.ReadI64(&count));
  if (count < 0 || count > 1'000'000) {
    return common::InternalError("shard manifest: bad refinement count");
  }
  m->refinements.assign(static_cast<size_t>(count), {});
  for (ShardMap::Refinement& op : m->refinements) {
    uint8_t kind = 0;
    MARS_RETURN_IF_ERROR(r.ReadU8(&kind));
    MARS_RETURN_IF_ERROR(r.ReadI32(&op.shard));
    MARS_RETURN_IF_ERROR(r.ReadI32(&op.target));
    MARS_RETURN_IF_ERROR(r.ReadI32(&op.axis));
    MARS_RETURN_IF_ERROR(r.ReadDouble(&op.threshold));
    // A compacted list does not replay through ApplySplit/ApplyMerge
    // (split targets may be out of allocation order), so each op is
    // bounds-checked against total_shards and the list installs
    // verbatim: Route only ever follows in-bounds targets.
    if (kind > static_cast<uint8_t>(ShardMap::Refinement::Kind::kMerge) ||
        op.shard < 0 || op.shard >= m->total_shards || op.target < 0 ||
        op.target >= m->total_shards || op.shard == op.target ||
        (op.axis != 0 && op.axis != 1)) {
      return common::InternalError("shard manifest: bad refinement");
    }
    op.kind = static_cast<ShardMap::Refinement::Kind>(kind);
  }
  m->slots.assign(static_cast<size_t>(m->total_shards), {});
  for (Manifest::Slot& slot : m->slots) {
    uint8_t retired = 0;
    MARS_RETURN_IF_ERROR(r.ReadU8(&retired));
    MARS_RETURN_IF_ERROR(r.ReadI64(&slot.record_count));
    MARS_RETURN_IF_ERROR(r.ReadU64(&slot.fingerprint));
    MARS_RETURN_IF_ERROR(r.ReadI64(&slot.tree.root));
    MARS_RETURN_IF_ERROR(r.ReadI32(&slot.tree.height));
    MARS_RETURN_IF_ERROR(r.ReadI64(&slot.tree.size));
    slot.retired = retired != 0;
    // A slot holds a tree exactly when it holds records.
    if (slot.record_count < 0 ||
        (slot.record_count > 0) != (slot.tree.root != storage::kInvalidPage)) {
      return common::InternalError("shard manifest: bad slot");
    }
  }
  if (!r.AtEnd()) {
    return common::InternalError("shard manifest: trailing bytes");
  }
  return common::OkStatus();
}

ShardedCoefficientIndex::ShardedCoefficientIndex(ShardedIndexOptions options)
    : options_(options) {
  MARS_CHECK_GE(options_.shards, 1);
  MARS_CHECK_GE(options_.fanout_workers, 1);
}

ShardedCoefficientIndex::~ShardedCoefficientIndex() {
  // Flush buffered pages so a restart can restore; pages are deliberately
  // NOT freed — they are the on-disk index.
  for (const auto& pool : pools_) {
    if (pool != nullptr) pool->Flush();
  }
}

std::unique_ptr<TreeCoefficientIndex> ShardedCoefficientIndex::MakeInner(
    int32_t shard_id) const {
  storage::BufferPool* pool = disk_store() ? pools_[shard_id].get() : nullptr;
  switch (options_.kind) {
    case ShardedIndexOptions::Kind::kSupportRegion:
      return std::make_unique<SupportRegionIndex>(options_.rtree, pool);
    case ShardedIndexOptions::Kind::kNaivePoint:
      return std::make_unique<NaivePointIndex>(options_.rtree, pool);
  }
  MARS_CHECK(false);
  return nullptr;
}

std::unique_ptr<ShardedCoefficientIndex::Shard>
ShardedCoefficientIndex::BuildShard(int32_t id,
                                    std::vector<CoeffRecord> records,
                                    std::vector<RecordId> ids,
                                    const PagedTree3::Info* persisted) const {
  auto shard = std::make_unique<Shard>();
  shard->id = id;
  shard->records = std::move(records);
  shard->ids = std::move(ids);
  for (const CoeffRecord& r : shard->records) {
    shard->coverage.Extend(GroundSupport(r));
  }
  if (!shard->records.empty()) {
    shard->index = MakeInner(id);
    // Built over the shard's own table (the inner access methods keep a
    // pointer to it), so the records copied here must stay put — which
    // they do: a Shard is immutable once installed.
    if (persisted != nullptr) {
      shard->index->Restore(shard->records, *persisted);
    } else {
      shard->index->Build(shard->records);
    }
  }
  return shard;
}

std::vector<ShardedCoefficientIndex::Manifest::Slot>
ShardedCoefficientIndex::LoadManifest() {
  if (!OpenShardStore(0, /*truncate=*/false).ok() ||
      !managers_[0]->opened_existing()) {
    return {};
  }
  storage::BufferPool* pool = pools_[0].get();
  const storage::PageId root = pool->root();
  std::vector<uint8_t> blob;
  Manifest m;
  if (root == storage::kInvalidPage || !pool->Fetch(root, &blob).ok() ||
      !DecodeManifest(blob, &m).ok()) {
    return {};
  }
  const geometry::Box2& bounds = map_.bounds();
  const bool same_bounds =
      m.bounds.IsEmpty()
          ? bounds.IsEmpty()
          : !bounds.IsEmpty() && bounds.lo(0) == m.bounds.lo(0) &&
                bounds.lo(1) == m.bounds.lo(1) &&
                bounds.hi(0) == m.bounds.hi(0) &&
                bounds.hi(1) == m.bounds.hi(1);
  if (m.kind != static_cast<uint8_t>(options_.kind) ||
      m.base_shards != options_.shards || !same_bounds) {
    return {};
  }
  map_.RestoreRefinements(m.total_shards, std::move(m.refinements));
  return std::move(m.slots);
}

void ShardedCoefficientIndex::CommitManifest(
    const std::vector<int32_t>& written,
    std::vector<std::unique_ptr<Shard>> replaced) {
  const auto check = [](const common::Status& status) {
    MARS_CHECK(status.ok())
        << "cannot commit shard manifest: " << status.ToString();
  };
  if (disk_store()) {
    for (const int32_t s : written) {
      Shard& shard = *shards_[s];
      shard.fingerprint = FingerprintTable(shard.records, shard.ids);
      check(pools_[s]->Flush());
    }
    Manifest m;
    m.kind = static_cast<uint8_t>(options_.kind);
    m.base_shards = options_.shards;
    m.bounds = map_.bounds();
    m.total_shards = map_.total_shards();
    m.refinements = map_.refinements();
    for (const auto& shard : shards_) {
      Manifest::Slot& slot = m.slots.emplace_back();
      slot.retired = shard->retired;
      slot.record_count = static_cast<int64_t>(shard->records.size());
      slot.fingerprint = shard->fingerprint;
      if (shard->index != nullptr) slot.tree = shard->index->tree_info();
    }
    storage::BufferPool* pool = pools_[0].get();
    const storage::PageId old = pool->root();
    storage::PageId fresh = storage::kInvalidPage;
    check(pool->Store(&fresh, EncodeManifest(m)));
    check(pool->SetRoot(fresh));
    check(pool->Flush());
    if (old != storage::kInvalidPage) check(pool->Erase(old));
  }
  // Only now that no committed manifest references them may the replaced
  // trees' pages return to the freelist for later stores to reuse.
  for (const auto& shard : replaced) {
    if (shard->index != nullptr) check(shard->index->FreePages());
  }
}

void ShardedCoefficientIndex::Build(const std::vector<CoeffRecord>& records) {
  const int32_t k = options_.shards;
  map_ = k == 1 ? ShardMap()
                : ShardMap::Build(ShardMap::GroundBounds(records), k);
  std::vector<Manifest::Slot> persisted;
  if (disk_store()) {
    MARS_CHECK(!options_.storage.path.empty())
        << "disk store requires a page file path";
    // A rebuild invalidates every pool pointer the warmer holds: stop it
    // (joining any in-flight reads) before the pools go away.
    warmer_.reset();
    pools_.clear();
    managers_.clear();
    managers_.resize(1);
    pools_.resize(1);
    // Replay the persisted refinement list (if any) BEFORE partitioning,
    // so the routed per-slot tables match the manifest's entries and
    // every slot — including the ones splits allocated past the
    // configured K — re-attaches its page file instead of rebuilding.
    persisted = LoadManifest();
  }
  const int32_t total = map_.total_shards();

  // Partition the table over every slot the map has ever allocated
  // (total == k unless a restored refinement list grew it).
  std::vector<std::vector<CoeffRecord>> tables(total);
  std::vector<std::vector<RecordId>> ids(total);
  for (size_t i = 0; i < records.size(); ++i) {
    const int32_t s = map_.Route(records[i]);
    tables[s].push_back(records[i]);
    ids[s].push_back(static_cast<RecordId>(i));
  }

  if (options_.fanout_workers > 1 && pool_ == nullptr) {
    pool_ = std::make_unique<common::ThreadPool>(options_.fanout_workers);
  }
  if (disk_store()) {
    managers_.resize(total);
    pools_.resize(total);
  }

  // One task per slot; slots share no state, so they run on the fan-out
  // pool when there is one. In disk mode a slot whose manifest entry
  // matches its routed table re-attaches the persisted tree —
  // partitioning is deterministic, so an unchanged dataset restores every
  // slot and a restart skips the whole rebuild. Any mismatch or
  // corruption recreates the slot's page file and rebuilds: always a
  // clean recovery, never undefined behavior.
  std::vector<std::unique_ptr<Shard>> shards(total);
  std::vector<char> restored(total, 0);
  std::vector<std::function<void()>> tasks;
  tasks.reserve(total);
  for (int32_t s = 0; s < total; ++s) {
    tasks.push_back([this, s, &persisted, &shards, &restored, &tables, &ids] {
      const Manifest::Slot* entry =
          persisted.empty() ? nullptr : &persisted[s];
      uint64_t fingerprint = 0;
      if (entry != nullptr) {
        if (s != 0) (void)OpenShardStore(s, /*truncate=*/false);
        fingerprint = FingerprintTable(tables[s], ids[s]);
        restored[s] = managers_[s] != nullptr &&
                      managers_[s]->opened_existing() &&
                      entry->record_count ==
                          static_cast<int64_t>(tables[s].size()) &&
                      entry->fingerprint == fingerprint;
      }
      if (disk_store() && !restored[s] &&
          (managers_[s] == nullptr || managers_[s]->opened_existing())) {
        const common::Status created = OpenShardStore(s, /*truncate=*/true);
        MARS_CHECK(created.ok())
            << "cannot create page file: " << created.ToString();
      }
      shards[s] = BuildShard(s, std::move(tables[s]), std::move(ids[s]),
                             restored[s] ? &entry->tree : nullptr);
      if (restored[s]) shards[s]->fingerprint = fingerprint;
      // Retirement is routing state, persisted whether or not the slot's
      // tree survived.
      if (entry != nullptr) shards[s]->retired = entry->retired;
    });
  }
  if (pool_ != nullptr) {
    common::MutexLock pool_lock(&pool_mu_);
    pool_->RunBatch(tasks);
  } else {
    for (const auto& task : tasks) task();
  }

  std::vector<int32_t> written;
  restored_shards_ = 0;
  for (int32_t s = 0; s < total; ++s) {
    if (restored[s]) {
      ++restored_shards_;
    } else {
      written.push_back(s);
    }
  }
  if (disk_store() && options_.storage.warm) {
    storage::PoolWarmer::Options warm;
    warm.budget = options_.storage.warm_budget;
    warm.workers = options_.storage.warm_workers;
    warmer_ = std::make_unique<storage::PoolWarmer>(warm);
    for (const auto& pool : pools_) {
      warmer_->AddPool(pool.get());
    }
  }

  {
    common::WriterLock lock(&mu_);
    shards_ = std::move(shards);
    epoch_ = 0;
    // A restart that re-attached every slot wrote nothing to commit.
    if (!written.empty()) CommitManifest(written, {});
  }
  common::MutexLock stage_lock(&stage_mu_);
  staged_.assign(total, {});
  staged_count_ = 0;
}

int64_t ShardedCoefficientIndex::QueryShard(const Shard& shard,
                                            const geometry::Box2& region,
                                            double w_min, double w_max,
                                            std::vector<RecordId>* out) {
  ++shard.fanout_queries;
  if (shard.index == nullptr) return 0;
  std::vector<RecordId> local;
  const int64_t accesses = shard.index->Query(region, w_min, w_max, &local);
  out->reserve(out->size() + local.size());
  for (RecordId id : local) {
    out->push_back(shard.ids[static_cast<size_t>(id)]);
  }
  return accesses;
}

int64_t ShardedCoefficientIndex::Query(const geometry::Box2& region,
                                       double w_min, double w_max,
                                       std::vector<RecordId>* out) const {
  return QueryProfiled(region, w_min, w_max, out, nullptr);
}

int64_t ShardedCoefficientIndex::QueryProfiled(const geometry::Box2& region,
                                               double w_min, double w_max,
                                               std::vector<RecordId>* out,
                                               FanoutProfile* profile) const {
  common::ReaderLock lock(&mu_);
  MARS_CHECK(!shards_.empty());

  // A single slot is a strict passthrough: one shard, queried
  // unconditionally, so traversal and node accesses match the unsharded
  // index exactly (the single tree always pays at least the root visit).
  if (shards_.size() == 1) {
    const int64_t accesses =
        QueryShard(*shards_[0], region, w_min, w_max, out);
    if (profile != nullptr) {
      profile->shards_touched = 1;
      profile->max_shard_accesses = accesses;
    }
    return accesses;
  }

  // Fan out to the shards whose coverage intersects the window. The
  // coverage boxes are exact (union of the support MBBs routed there),
  // so a skipped shard provably contributes nothing to the required set
  // — and a retired shard's coverage is the empty box, which intersects
  // nothing, so merged-away slots cost no traversal.
  std::vector<const Shard*> hit;
  hit.reserve(shards_.size());
  for (const auto& shard : shards_) {
    if (shard->coverage.Intersects(region)) hit.push_back(shard.get());
  }
  if (profile != nullptr) {
    profile->shards_touched = static_cast<int32_t>(hit.size());
    profile->max_shard_accesses = 0;
  }
  if (hit.empty()) return 0;

  // Parallel fan-out when the pool is free; sequential otherwise (pool
  // busy means another query — or a fleet tick that owns the pool's
  // worker budget elsewhere — is mid-batch, and ThreadPool batches are
  // not reentrant). Both paths produce identical output: results merge
  // in ascending shard id and node accesses sum order-independently.
  if (pool_ != nullptr && hit.size() > 1 && pool_mu_.TryLock()) {
    std::vector<std::vector<RecordId>> results(hit.size());
    std::vector<int64_t> accesses(hit.size(), 0);
    std::vector<std::function<void()>> tasks;
    tasks.reserve(hit.size());
    for (size_t i = 0; i < hit.size(); ++i) {
      tasks.push_back([&, i] {
        accesses[i] =
            QueryShard(*hit[i], region, w_min, w_max, &results[i]);
      });
    }
    pool_->RunBatch(tasks);
    pool_mu_.Unlock();
    int64_t total = 0;
    for (size_t i = 0; i < hit.size(); ++i) {
      total += accesses[i];
      if (profile != nullptr) {
        profile->max_shard_accesses =
            std::max(profile->max_shard_accesses, accesses[i]);
      }
      out->insert(out->end(), results[i].begin(), results[i].end());
    }
    return total;
  }

  int64_t total = 0;
  for (const Shard* shard : hit) {
    const int64_t accesses = QueryShard(*shard, region, w_min, w_max, out);
    total += accesses;
    if (profile != nullptr) {
      profile->max_shard_accesses =
          std::max(profile->max_shard_accesses, accesses);
    }
  }
  return total;
}

int64_t ShardedCoefficientIndex::node_accesses() const {
  common::ReaderLock lock(&mu_);
  int64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->retired_accesses;
    if (shard->index != nullptr) total += shard->index->node_accesses();
  }
  return total;
}

void ShardedCoefficientIndex::ResetStats() {
  common::WriterLock lock(&mu_);
  for (const auto& shard : shards_) {
    shard->retired_accesses = 0;
    shard->fanout_queries = 0;
    if (shard->index != nullptr) shard->index->ResetStats();
  }
}

std::string ShardedCoefficientIndex::name() const {
  // K = 1 reports the inner method's name so every existing log line,
  // JSON field and test expectation is untouched at the default.
  if (options_.shards == 1) return KindName(options_.kind);
  return "sharded-" + std::to_string(options_.shards) + "(" +
         KindName(options_.kind) + ")";
}

void ShardedCoefficientIndex::Stage(const CoeffRecord* records, size_t count,
                                    RecordId first_id) {
  common::MutexLock lock(&stage_mu_);
  MARS_CHECK(!staged_.empty());  // Build must run before ingest starts.
  for (size_t i = 0; i < count; ++i) {
    const int32_t s = map_.Route(records[i]);
    staged_[s].emplace_back(first_id + static_cast<RecordId>(i), records[i]);
  }
  staged_count_ += static_cast<int64_t>(count);
}

int64_t ShardedCoefficientIndex::CommitStaged() {
  // Claim the staged buffers.
  std::vector<std::vector<std::pair<RecordId, CoeffRecord>>> pending;
  {
    common::MutexLock lock(&stage_mu_);
    if (staged_count_ == 0) return 0;
    pending = std::move(staged_);
    staged_.assign(pending.size(), {});
    staged_count_ = 0;
  }

  // Snapshot the affected shards' tables (queries keep running on the
  // old shards meanwhile).
  struct Rebuild {
    int32_t shard;
    std::vector<CoeffRecord> records;
    std::vector<RecordId> ids;
  };
  std::vector<Rebuild> rebuilds;
  int64_t folded = 0;
  {
    common::ReaderLock lock(&mu_);
    MARS_CHECK_EQ(pending.size(), shards_.size());
    for (size_t s = 0; s < pending.size(); ++s) {
      if (pending[s].empty()) continue;
      Rebuild rb;
      rb.shard = static_cast<int32_t>(s);
      rb.records = shards_[s]->records;
      rb.ids = shards_[s]->ids;
      for (auto& [id, record] : pending[s]) {
        rb.records.push_back(std::move(record));
        rb.ids.push_back(id);
      }
      folded += static_cast<int64_t>(pending[s].size());
      rebuilds.push_back(std::move(rb));
    }
  }

  // Build the replacement shards with no lock held — the expensive part
  // of the epoch happens while readers proceed untouched.
  std::vector<std::unique_ptr<Shard>> built;
  built.reserve(rebuilds.size());
  for (Rebuild& rb : rebuilds) {
    built.push_back(
        BuildShard(rb.shard, std::move(rb.records), std::move(rb.ids)));
  }

  common::WriterLock lock(&mu_);
  std::vector<int32_t> written;
  std::vector<std::unique_ptr<Shard>> replaced;
  for (auto& shard : built) {
    written.push_back(shard->id);
    replaced.push_back(SwapSlot(std::move(shard)));
  }
  ++epoch_;
  CommitManifest(written, std::move(replaced));
  return folded;
}

std::unique_ptr<ShardedCoefficientIndex::Shard>
ShardedCoefficientIndex::SwapSlot(std::unique_ptr<Shard> next, Shard* heir) {
  std::unique_ptr<Shard>& slot = shards_[next->id];
  // Counters transfer at swap time so queries that ran during the
  // off-side build are not lost: the old tree's accesses retire into the
  // heir's carried total, on top of anything it already carries.
  Shard& to = heir != nullptr ? *heir : *next;
  to.retired_accesses += slot->retired_accesses;
  if (slot->index != nullptr) {
    to.retired_accesses += slot->index->node_accesses();
  }
  to.fanout_queries += slot->fanout_queries.load();
  next->rebuilds += slot->rebuilds + 1;
  std::swap(slot, next);
  return next;
}

std::string ShardedCoefficientIndex::ShardFilePath(int32_t shard) const {
  // Shard 0 of a configured K == 1 keeps the bare path (bit-identical
  // with the pre-sharding store); every other slot — including the ones
  // splits allocate past the configured K — gets its own suffix.
  if (options_.shards == 1 && shard == 0) return options_.storage.path;
  return options_.storage.path + ".shard" + std::to_string(shard);
}

common::Status ShardedCoefficientIndex::OpenShardStore(int32_t shard,
                                                      bool truncate) {
  MARS_CHECK(disk_store());
  pools_[shard].reset();
  managers_[shard].reset();
  auto opened = storage::DiskStorageManager::Open(
      ShardFilePath(shard), options_.storage.page_size, truncate);
  MARS_RETURN_IF_ERROR(opened.status());
  managers_[shard] = std::move(opened).value();
  // Per-slot budget keyed to the configured K: split-allocated slots
  // (live or restored) grow the pool footprint with the slot count
  // instead of shrinking every other shard's share.
  const int64_t pool_pages =
      std::max<int64_t>(1, options_.storage.pool_pages / options_.shards);
  pools_[shard] = std::make_unique<storage::BufferPool>(
      managers_[shard].get(), pool_pages, options_.storage.evict);
  return common::OkStatus();
}

void ShardedCoefficientIndex::AddShardStore(int32_t shard) {
  MARS_CHECK_EQ(static_cast<size_t>(shard), managers_.size());
  managers_.emplace_back();
  pools_.emplace_back();
  const common::Status created = OpenShardStore(shard, /*truncate=*/true);
  MARS_CHECK(created.ok()) << "cannot create page file: " << created.ToString();
  // SplitShard runs in the serial window between WarmJoin and
  // WarmDispatch, so registering with the warmer here cannot race a
  // candidate scan or an install.
  if (warmer_ != nullptr) {
    warmer_->AddPool(pools_.back().get());
  }
}

void ShardedCoefficientIndex::RebucketStaged(int32_t new_shard_count) {
  std::vector<std::vector<std::pair<RecordId, CoeffRecord>>> old =
      std::move(staged_);
  staged_.assign(static_cast<size_t>(new_shard_count), {});
  for (auto& bucket : old) {
    for (auto& [id, record] : bucket) {
      staged_[map_.Route(record)].emplace_back(id, std::move(record));
    }
  }
}

common::StatusOr<int32_t> ShardedCoefficientIndex::SplitShard(int32_t shard) {
  // Snapshot the shard's table under the reader lock; queries keep
  // running against the old shards while the halves build off-side.
  std::vector<CoeffRecord> records;
  std::vector<RecordId> ids;
  int32_t new_id = 0;
  {
    common::ReaderLock lock(&mu_);
    if (shard < 0 || shard >= static_cast<int32_t>(shards_.size())) {
      return common::InvalidArgumentError("split: no such shard");
    }
    const Shard& s = *shards_[shard];
    if (s.retired) {
      return common::FailedPreconditionError("split: shard is retired");
    }
    if (s.records.size() < 2) {
      return common::FailedPreconditionError("split: fewer than two records");
    }
    records = s.records;
    ids = s.ids;
    new_id = static_cast<int32_t>(shards_.size());
  }

  // Median split along the axis with the wider spread of support
  // centers; fall back to the other axis when duplicate centers collapse
  // one side of the first.
  const size_t n = records.size();
  std::array<std::vector<double>, 2> centers;
  centers[0].reserve(n);
  centers[1].reserve(n);
  for (const CoeffRecord& r : records) {
    centers[0].push_back(
        0.5 * (r.support_bounds.lo(0) + r.support_bounds.hi(0)));
    centers[1].push_back(
        0.5 * (r.support_bounds.lo(1) + r.support_bounds.hi(1)));
  }
  const auto spread = [&centers](int axis) {
    const auto [lo, hi] =
        std::minmax_element(centers[axis].begin(), centers[axis].end());
    return *hi - *lo;
  };
  const int first = spread(0) >= spread(1) ? 0 : 1;
  int axis = -1;
  double threshold = 0.0;
  for (const int candidate : {first, 1 - first}) {
    std::vector<double> sorted = centers[candidate];
    std::nth_element(sorted.begin(),
                     sorted.begin() + static_cast<ptrdiff_t>(n / 2),
                     sorted.end());
    const double t = sorted[n / 2];
    size_t high = 0;
    for (const double c : centers[candidate]) {
      if (c >= t) ++high;
    }
    if (high > 0 && high < n) {
      axis = candidate;
      threshold = t;
      break;
    }
  }
  if (axis < 0) {
    return common::FailedPreconditionError(
        "split: all record centers coincide");
  }

  // Partition exactly as the refined map will route.
  std::vector<CoeffRecord> low_records;
  std::vector<CoeffRecord> high_records;
  std::vector<RecordId> low_ids;
  std::vector<RecordId> high_ids;
  for (size_t i = 0; i < n; ++i) {
    if (centers[axis][i] >= threshold) {
      high_records.push_back(records[i]);
      high_ids.push_back(ids[i]);
    } else {
      low_records.push_back(records[i]);
      low_ids.push_back(ids[i]);
    }
  }

  if (disk_store()) {
    // The new slot needs its page file + buffer pool before its tree can
    // build (appending races PoolStats/UpdateInterest, hence the lock).
    common::WriterLock lock(&mu_);
    AddShardStore(new_id);
  }

  // Build both halves off to the side, no lock held.
  std::unique_ptr<Shard> low =
      BuildShard(shard, std::move(low_records), std::move(low_ids));
  std::unique_ptr<Shard> high =
      BuildShard(new_id, std::move(high_records), std::move(high_ids));

  common::WriterLock lock(&mu_);
  MARS_CHECK_EQ(new_id, static_cast<int32_t>(shards_.size()));
  shards_.push_back(std::move(high));
  // The surviving low half keeps the split shard's counter history; the
  // high half starts fresh.
  std::vector<std::unique_ptr<Shard>> replaced;
  replaced.push_back(SwapSlot(std::move(low)));
  ++rebalances_;
  {
    // Route future records — and the already-staged ones — under the
    // refined map.
    common::MutexLock stage_lock(&stage_mu_);
    map_.ApplySplit(shard, axis, threshold, new_id);
    RebucketStaged(new_id + 1);
  }
  CommitManifest({shard, new_id}, std::move(replaced));
  return new_id;
}

common::Status ShardedCoefficientIndex::MergeShards(int32_t src, int32_t dst) {
  if (src == dst) {
    return common::InvalidArgumentError("merge: src == dst");
  }
  std::vector<CoeffRecord> records;
  std::vector<RecordId> ids;
  {
    common::ReaderLock lock(&mu_);
    const int32_t count = static_cast<int32_t>(shards_.size());
    if (src < 0 || src >= count || dst < 0 || dst >= count) {
      return common::InvalidArgumentError("merge: no such shard");
    }
    if (shards_[src]->retired || shards_[dst]->retired) {
      return common::FailedPreconditionError("merge: shard is retired");
    }
    records = shards_[dst]->records;
    ids = shards_[dst]->ids;
    records.insert(records.end(), shards_[src]->records.begin(),
                   shards_[src]->records.end());
    ids.insert(ids.end(), shards_[src]->ids.begin(), shards_[src]->ids.end());
  }
  // Union in ascending global id — exactly the order a fresh Build
  // partition produces when it routes the table under the merged map, so
  // the rebuilt shard fingerprints identically and a restart re-attaches
  // its page file instead of rebuilding.
  {
    std::vector<size_t> order(ids.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(),
              [&ids](size_t a, size_t b) { return ids[a] < ids[b]; });
    std::vector<CoeffRecord> sorted_records;
    std::vector<RecordId> sorted_ids;
    sorted_records.reserve(records.size());
    sorted_ids.reserve(ids.size());
    for (const size_t i : order) {
      sorted_records.push_back(std::move(records[i]));
      sorted_ids.push_back(ids[i]);
    }
    records = std::move(sorted_records);
    ids = std::move(sorted_ids);
  }

  // Build the union shard and src's empty tombstone off to the side.
  std::unique_ptr<Shard> merged =
      BuildShard(dst, std::move(records), std::move(ids));
  std::unique_ptr<Shard> tombstone = BuildShard(src, {}, {});
  tombstone->retired = true;

  common::WriterLock lock(&mu_);
  // src's cumulative counters move into the union before the swap adds
  // dst's own — the destination inherits the sum of both histories and
  // the retired slot restarts at zero, permanently.
  std::vector<std::unique_ptr<Shard>> replaced;
  replaced.push_back(SwapSlot(std::move(tombstone), merged.get()));
  replaced.push_back(SwapSlot(std::move(merged)));
  ++rebalances_;
  {
    common::MutexLock stage_lock(&stage_mu_);
    map_.ApplyMerge(src, dst);
    // Merges are what create compactable patterns (cancelled or forwarded
    // splits, unreachable sources), so this is the one place the list can
    // grow dead weight: compact it before it persists. Routing is
    // preserved exactly, so the already-swapped shard slots stay valid.
    map_.Compact();
    RebucketStaged(static_cast<int32_t>(shards_.size()));
  }
  CommitManifest({src, dst}, std::move(replaced));
  return common::OkStatus();
}

int64_t ShardedCoefficientIndex::rebalances() const {
  common::ReaderLock lock(&mu_);
  return rebalances_;
}

int32_t ShardedCoefficientIndex::shard_count() const {
  common::ReaderLock lock(&mu_);
  // Before Build the answer is the configured K — nothing has split yet.
  if (shards_.empty()) return options_.shards;
  return static_cast<int32_t>(shards_.size());
}

int32_t ShardedCoefficientIndex::live_shard_count() const {
  common::ReaderLock lock(&mu_);
  if (shards_.empty()) return options_.shards;
  int32_t live = 0;
  for (const auto& shard : shards_) {
    if (!shard->retired) ++live;
  }
  return live;
}

int64_t ShardedCoefficientIndex::staged_records() const {
  common::MutexLock lock(&stage_mu_);
  return staged_count_;
}

int64_t ShardedCoefficientIndex::epoch() const {
  common::ReaderLock lock(&mu_);
  return epoch_;
}

std::vector<ShardedCoefficientIndex::ShardStats>
ShardedCoefficientIndex::Stats() const {
  common::ReaderLock lock(&mu_);
  std::vector<ShardStats> stats;
  stats.reserve(shards_.size());
  for (const auto& shard : shards_) {
    ShardStats s;
    s.shard = shard->id;
    s.records = static_cast<int64_t>(shard->records.size());
    s.node_accesses = shard->retired_accesses;
    if (shard->index != nullptr) {
      s.node_accesses += shard->index->node_accesses();
    }
    s.fanout_queries = shard->fanout_queries.load();
    s.rebuilds = shard->rebuilds;
    s.retired = shard->retired;
    s.coverage = shard->coverage;
    stats.push_back(s);
  }
  return stats;
}

std::vector<ShardedCoefficientIndex::ShardPoolStats>
ShardedCoefficientIndex::PoolStats() const {
  // The reader lock orders the vector scan against SplitShard's append.
  common::ReaderLock lock(&mu_);
  std::vector<ShardPoolStats> stats;
  stats.reserve(pools_.size());
  for (size_t s = 0; s < pools_.size(); ++s) {
    if (pools_[s] == nullptr) continue;
    ShardPoolStats entry;
    entry.shard = static_cast<int32_t>(s);
    entry.pool = pools_[s]->stats();
    entry.file_pages = managers_[s]->page_count();
    entry.free_pages = managers_[s]->free_pages();
    entry.fragmented_pages = managers_[s]->fragmented_pages();
    stats.push_back(entry);
  }
  return stats;
}

void ShardedCoefficientIndex::UpdateInterest(
    const storage::InterestGrid& interest) const {
  // The reader lock orders the vector scan against SplitShard's append.
  common::ReaderLock lock(&mu_);
  for (const auto& pool : pools_) {
    if (pool != nullptr) pool->UpdateInterest(interest);
  }
}

void ShardedCoefficientIndex::WarmJoin() const {
  if (warmer_ != nullptr) warmer_->Join();
}

void ShardedCoefficientIndex::WarmDispatch() const {
  if (warmer_ != nullptr) warmer_->Dispatch();
}

}  // namespace mars::index
