#include "store/versioned_store.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <set>
#include <utility>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "obs/introspect.h"
#include "serve/query_body.h"

namespace kg::store {

Result<std::unique_ptr<VersionedKgStore>> VersionedKgStore::Open(
    graph::KnowledgeGraph base, StoreOptions options) {
  std::unique_ptr<VersionedKgStore> store(new VersionedKgStore());
  store->options_ = options;
  if (obs::MetricsRegistry* reg = options.registry) {
    store->metrics_.applied_mutations =
        &reg->GetCounter("store.applied_mutations");
    store->metrics_.wal_appended =
        &reg->GetCounter("store.wal.appended_records");
    store->metrics_.compactions = &reg->GetCounter("store.compactions");
    store->metrics_.folded = &reg->GetCounter("store.compaction.folded");
    store->metrics_.epoch_version = &reg->GetGauge("store.epoch.version");
    store->metrics_.delta_size = &reg->GetGauge("store.delta.size");
    store->metrics_.wal_replayed =
        &reg->GetGauge("store.wal.replayed_records");
    store->metrics_.compaction_last_us =
        &reg->GetGauge("store.compaction.last_us");
    store->metrics_.stage_wal_append =
        &obs::StageHistogram(*reg, obs::Stage::kWalAppend);
    store->metrics_.stage_overlay_merge =
        &obs::StageHistogram(*reg, obs::Stage::kOverlayMerge);
    if (options.time_stages) {
      for (size_t k = 0; k < serve::kNumQueryKinds; ++k) {
        const auto kind = static_cast<serve::QueryKind>(k);
        if (!IsCachedClass(kind)) continue;
        store->metrics_.stage_cache_probe[k] = &obs::StageHistogram(
            *reg, obs::Stage::kCacheProbe, serve::QueryKindName(kind));
      }
    }
  }
  auto snapshot = std::make_shared<const serve::KgSnapshot>(
      serve::KgSnapshot::Compile(base));
  // Nothing reads the source graph after the compile. Its per-triple
  // allocations take ~0.16 s to free on a 150k-triple graph, so the free
  // runs on a helper thread instead of on the open path.
  store->base_release_ = std::thread([dead = std::move(base)]() mutable {
    dead = graph::KnowledgeGraph();
#ifdef __GLIBC__
    // The freed pages stay in the arena of the thread that built the
    // graph, which the serving threads do not allocate from; return them
    // to the OS instead of carrying them as resident memory.
    malloc_trim(0);
#endif
  });
  if (!options.wal_path.empty()) {
    WalReplay replay;
    KG_ASSIGN_OR_RETURN(Wal wal, Wal::Open(options.wal_path, &replay));
    store->wal_.emplace(std::move(wal));
    // Recovered mutations consume sequence numbers exactly as the live
    // appends that wrote them did, and are folded into the first base, so
    // a reopened store is bit-identical to one that never crashed.
    MemDelta replayed(*snapshot);
    replayed.Apply(*snapshot, replay.mutations, store->next_seq_);
    store->next_seq_ += replay.mutations.size();
    if (!replayed.empty()) {
      snapshot = std::make_shared<const serve::KgSnapshot>(
          FoldOverlay(OverlayView{*snapshot, replayed}));
    }
    if (store->metrics_.wal_replayed != nullptr) {
      store->metrics_.wal_replayed->Set(
          static_cast<int64_t>(replay.mutations.size()));
    }
  }
  if (options.cache_capacity > 0) {
    store->cache_ = std::make_unique<serve::ShardedLruCache>(
        options.cache_capacity, options.cache_shards);
  }
  auto epoch = std::make_shared<StoreEpoch>();
  epoch->version = 0;
  epoch->delta = std::make_shared<const MemDelta>(*snapshot);
  epoch->base = std::move(snapshot);
  store->current_ = std::move(epoch);
  return store;
}

VersionedKgStore::~VersionedKgStore() {
  if (base_release_.joinable()) base_release_.join();
}

void VersionedKgStore::PublishEpoch(std::shared_ptr<const StoreEpoch> epoch) {
  std::unique_lock<std::shared_mutex> lock(epoch_mu_);
  current_ = std::move(epoch);
}

Status VersionedKgStore::Apply(const Mutation& mutation) {
  return ApplyBatch(std::span<const Mutation>(&mutation, 1));
}

Status VersionedKgStore::ApplyBatch(std::span<const Mutation> mutations) {
  if (mutations.empty()) return Status::OK();
  std::lock_guard<std::mutex> writer(writer_mu_);
  const auto t_wal = std::chrono::steady_clock::now();
  if (wal_) {
    // Log before apply: if the append fails, no state changed and the
    // caller may retry; if we crash after it, replay redoes the batch.
    KG_RETURN_IF_ERROR(wal_->AppendBatch(mutations));
  }
  const auto t_merge = std::chrono::steady_clock::now();
  if (metrics_.stage_wal_append != nullptr && wal_) {
    metrics_.stage_wal_append->Observe(
        std::chrono::duration<double, std::micro>(t_merge - t_wal).count());
  }
  // Holding writer_mu_ makes the unlocked read of current_ safe: only
  // writers store to it, and they all serialize here.
  auto next_delta = std::make_shared<MemDelta>(*current_->delta);
  next_delta->Apply(*current_->base, mutations, next_seq_);
  next_seq_ += mutations.size();
  auto epoch = std::make_shared<StoreEpoch>();
  epoch->version = current_->version + 1;
  epoch->base = current_->base;
  epoch->delta = std::move(next_delta);
  const uint64_t published_version = epoch->version;
  const size_t published_delta = epoch->delta->size();
  PublishEpoch(std::move(epoch));
  if (cache_) BumpGenerations(mutations);
  if (metrics_.stage_overlay_merge != nullptr) {
    metrics_.stage_overlay_merge->Observe(
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - t_merge)
            .count());
  }
  if (metrics_.applied_mutations != nullptr) {
    metrics_.applied_mutations->Inc(mutations.size());
    if (wal_) metrics_.wal_appended->Inc(mutations.size());
    metrics_.epoch_version->Set(static_cast<int64_t>(published_version));
    metrics_.delta_size->Set(static_cast<int64_t>(published_delta));
  }
  return Status::OK();
}

std::string VersionedKgStore::GenTag(const serve::Query& q) const {
  const auto gen = [](const std::unordered_map<std::string, uint64_t>& map,
                      const std::string& key) -> uint64_t {
    const auto it = map.find(key);
    return it == map.end() ? 0 : it->second;
  };
  std::shared_lock<std::shared_mutex> lock(gen_mu_);
  switch (q.kind) {
    case serve::QueryKind::kAttributeByType:
      // The answer is members(type_predicate) x objects(predicate): only
      // triples carrying one of those two predicates can change it.
      return "#g" + std::to_string(gen(predicate_gen_, q.predicate)) + '.' +
             std::to_string(gen(predicate_gen_, q.type_predicate));
    default:
      // Top-k related, the other cached class.
      return "#g" + std::to_string(gen(
                        node_gen_, serve::RenderNodeName(q.node, q.node_kind)));
  }
}

void VersionedKgStore::BumpGenerations(std::span<const Mutation> mutations) {
  // Top-k(x) depends on edges incident to x (first hop) and to x's
  // neighbors (second hop). A mutation of edge (s, o) therefore affects
  // {s, o}, plus N(s) — but only when o is an entity (for x in N(s) the
  // edge contributes the candidate o via the path x–s–o, and candidates
  // are entity-filtered) — and symmetrically N(o) only when s is an
  // entity. Adjacency is read from the just-published epoch; within a
  // batch that post-state union still covers every intermediate state,
  // because a neighbor another batch entry disconnected appears in that
  // entry's own {s, o} set.
  const OverlayView view{*current_->base, *current_->delta};
  std::set<std::string> preds;
  std::set<std::string> nodes;
  const auto insert_neighbors = [&](const std::string& name,
                                    graph::NodeKind kind) {
    const auto id = view.FindNode(name, kind);
    if (!id.ok()) return;
    for (serve::NodeId n : serve::AdjacentNodes(view, *id)) {
      nodes.insert(serve::RenderNode(view, n));
    }
  };
  for (const Mutation& m : mutations) {
    preds.insert(m.predicate);
    nodes.insert(serve::RenderNodeName(m.subject, m.subject_kind));
    nodes.insert(serve::RenderNodeName(m.object, m.object_kind));
    if (m.object_kind == graph::NodeKind::kEntity) {
      insert_neighbors(m.subject, m.subject_kind);
    }
    if (m.subject_kind == graph::NodeKind::kEntity) {
      insert_neighbors(m.object, m.object_kind);
    }
  }
  std::unique_lock<std::shared_mutex> lock(gen_mu_);
  for (const std::string& p : preds) ++predicate_gen_[p];
  for (const std::string& n : nodes) ++node_gen_[n];
}

std::shared_ptr<const StoreEpoch> VersionedKgStore::PinEpoch() const {
  std::shared_lock<std::shared_mutex> lock(epoch_mu_);
  return current_;
}

serve::QueryResult VersionedKgStore::ExecuteAt(
    const StoreEpoch& epoch, const serve::Query& query) const {
  return serve::ExecuteQuery(OverlayView{*epoch.base, *epoch.delta}, query);
}

Result<serve::QueryResult> VersionedKgStore::TryExecute(
    const serve::Query& query) const {
  const auto epoch = PinEpoch();
  if (epoch->base->schema_version() > serve::kSnapshotSchemaVersion) {
    return Status::Unavailable(
        "snapshot schema version " +
        std::to_string(epoch->base->schema_version()) +
        " is newer than this store supports (" +
        std::to_string(serve::kSnapshotSchemaVersion) + ")");
  }
  return Execute(query);
}

Result<serve::EpochTaggedResult> VersionedKgStore::TryExecuteTagged(
    const serve::Query& query) const {
  serve::EpochTaggedResult tagged;
  // Watermark before rows: the content the rows are computed from can
  // only be at or past the tag, never behind it.
  tagged.epoch = applied_watermark();
  KG_ASSIGN_OR_RETURN(tagged.rows, TryExecute(query));
  return tagged;
}

serve::QueryResult VersionedKgStore::Execute(const serve::Query& query) const {
  if (cache_ == nullptr || !IsCachedClass(query.kind)) {
    return ExecuteAt(*PinEpoch(), query);
  }
  // Read the tag BEFORE pinning: the pinned state is then always
  // at-or-after the tag, so a fill can never park an older answer under
  // a current tag. (The converse — a newer answer under an old tag —
  // only happens when a concurrent write already retired that tag, so
  // nothing stale survives it.) The tag lives in row 0 of the cached
  // value — not in the key — so every query owns exactly one entry: a
  // retired generation is overwritten in place by the next read instead
  // of lingering as unreachable garbage that would crowd live entries
  // out of the LRU.
  obs::Histogram* probe_hist =
      metrics_.stage_cache_probe[static_cast<size_t>(query.kind)];
  const auto t_probe = probe_hist != nullptr
                           ? std::chrono::steady_clock::now()
                           : std::chrono::steady_clock::time_point{};
  const std::string key = query.CacheKey();
  const std::string tag = GenTag(query);
  serve::QueryResult cached;
  bool hit = false;
  if (cache_->Get(key, &cached) && !cached.empty() && cached.front() == tag) {
    cached.erase(cached.begin());
    hit = true;
  }
  // Otherwise: a miss or a retired generation, recomputed and
  // overwritten below.
  if (probe_hist != nullptr) {
    probe_hist->Observe(std::chrono::duration<double, std::micro>(
                            std::chrono::steady_clock::now() - t_probe)
                            .count());
  }
  if (hit) return cached;
  serve::QueryResult result = ExecuteAt(*PinEpoch(), query);
  serve::QueryResult stored;
  stored.reserve(result.size() + 1);
  stored.push_back(tag);
  stored.insert(stored.end(), result.begin(), result.end());
  cache_->Put(key, std::move(stored));
  return result;
}

std::vector<serve::QueryResult> VersionedKgStore::BatchExecute(
    const std::vector<serve::Query>& queries, const ExecPolicy& exec) const {
  const std::shared_ptr<const StoreEpoch> epoch = PinEpoch();
  std::vector<serve::QueryResult> results(queries.size());
  // One pinned epoch + index-addressed slots: the output is a pure
  // function of (epoch, queries), identical at any thread count.
  ParallelForChunked(exec, queries.size(), [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      results[i] = ExecuteAt(*epoch, queries[i]);
    }
  });
  return results;
}

VersionedKgStore::CompactionStats VersionedKgStore::Compact() {
  if (compaction_in_flight_.exchange(true, std::memory_order_acq_rel)) {
    return {};  // another fold is queued or running; ran stays false
  }
  return RunCompaction();
}

bool VersionedKgStore::CompactInBackground(ThreadPool& pool) {
  // Claim the fold at schedule time, so a second call made while the
  // first is still queued is refused instead of queueing another fold.
  if (compaction_in_flight_.exchange(true, std::memory_order_acq_rel)) {
    return false;
  }
  pool.Submit([this] { RunCompaction(); });
  return true;
}

VersionedKgStore::CompactionStats VersionedKgStore::RunCompaction() {
  CompactionStats stats;
  const auto started = std::chrono::steady_clock::now();
  std::shared_ptr<const StoreEpoch> pinned;
  uint64_t fold_seq = 0;
  {
    // The epoch published under the writer lock holds every op through
    // the fold line; Apply resumes as soon as we unlock.
    std::lock_guard<std::mutex> writer(writer_mu_);
    pinned = current_;
    fold_seq = next_seq_ - 1;
  }
  // The slow part — streaming base ⊕ delta into a fresh CSR snapshot —
  // runs without any lock, so writers and readers proceed at full speed
  // underneath it.
  auto base = std::make_shared<const serve::KgSnapshot>(
      FoldOverlay(OverlayView{*pinned->base, *pinned->delta}));
  {
    std::lock_guard<std::mutex> writer(writer_mu_);
    // Only compaction replaces the base and folds are serialized, so the
    // current delta is still keyed to the pinned base.
    const std::shared_ptr<const StoreEpoch> old = current_;
    const serve::KgSnapshot& old_base = *old->base;
    const MemDelta& old_delta = *old->delta;
    // Entries at or before the fold line are the new base's; newer ones
    // keep shadowing it (their state already accounts for any base) and
    // move into the new base's id space.
    MemDelta surviving = old_delta;
    surviving.TrimThrough(fold_seq);
    stats.folded = old_delta.size() - surviving.size();
    // The cached classes are tagged by name-keyed generations that the
    // fold does not change, so their entries stay valid across the swap.
    auto epoch = std::make_shared<StoreEpoch>();
    epoch->version = old->version + 1;
    epoch->delta =
        std::make_shared<const MemDelta>(surviving.Rekey(old_base, *base));
    epoch->base = std::move(base);
    stats.version = epoch->version;
    stats.base_fingerprint = epoch->base->Fingerprint();
    const size_t remaining_delta = epoch->delta->size();
    PublishEpoch(std::move(epoch));
    if (metrics_.delta_size != nullptr) {
      metrics_.epoch_version->Set(static_cast<int64_t>(stats.version));
      metrics_.delta_size->Set(static_cast<int64_t>(remaining_delta));
    }
  }
  stats.seconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - started)
                      .count();
  stats.ran = true;
  if (metrics_.compactions != nullptr) {
    metrics_.compactions->Inc();
    metrics_.folded->Inc(stats.folded);
    metrics_.compaction_last_us->Set(
        static_cast<int64_t>(stats.seconds * 1e6));
  }
  compaction_in_flight_.store(false, std::memory_order_release);
  return stats;
}

uint64_t VersionedKgStore::version() const {
  std::shared_lock<std::shared_mutex> lock(epoch_mu_);
  return current_->version;
}

uint64_t VersionedKgStore::applied_mutations() const {
  std::lock_guard<std::mutex> writer(writer_mu_);
  return next_seq_ - 1;
}

size_t VersionedKgStore::delta_size() const { return PinEpoch()->delta->size(); }

uint64_t VersionedKgStore::AuthoritativeFingerprint() const {
  const std::shared_ptr<const StoreEpoch> epoch = PinEpoch();
  const OverlayView view{*epoch->base, *epoch->delta};
  uint64_t fingerprint = 0;
  for (serve::NodeId s = 0; s < view.num_nodes(); ++s) {
    for (const serve::KgSnapshot::Edge& e : view.OutEdges(s)) {
      fingerprint += graph::TripleFingerprint(
          view.NodeName(s), view.NodeKindOf(s), view.PredicateName(e.first),
          view.NodeName(e.second), view.NodeKindOf(e.second));
    }
  }
  return fingerprint;
}

}  // namespace kg::store
