#include "serve/query_engine.h"

#include <algorithm>
#include <utility>

#include "common/timer.h"
#include "obs/introspect.h"
#include "serve/query_body.h"

namespace kg::serve {

namespace {

void AppendField(std::string* key, const std::string& field) {
  key->append(std::to_string(field.size()));
  key->push_back(':');
  key->append(field);
  key->push_back('|');
}

}  // namespace

const char* QueryKindName(QueryKind kind) {
  switch (kind) {
    case QueryKind::kPointLookup:
      return "point_lookup";
    case QueryKind::kNeighborhood:
      return "neighborhood";
    case QueryKind::kAttributeByType:
      return "attribute_by_type";
    case QueryKind::kTopKRelated:
      return "topk_related";
  }
  return "unknown";
}

std::string RenderNodeName(std::string_view name, graph::NodeKind kind) {
  char tag = 'E';
  switch (kind) {
    case graph::NodeKind::kEntity:
      tag = 'E';
      break;
    case graph::NodeKind::kText:
      tag = 'T';
      break;
    case graph::NodeKind::kClass:
      tag = 'C';
      break;
  }
  std::string out;
  out.reserve(name.size() + 2);
  out.push_back(tag);
  out.push_back(':');
  out.append(name);
  return out;
}

QueryResult MergeShardResults(std::vector<QueryResult> parts) {
  QueryResult merged;
  for (QueryResult& part : parts) {
    if (part.empty()) continue;
    if (merged.empty()) {
      merged = std::move(part);
      continue;
    }
    QueryResult next;
    next.reserve(merged.size() + part.size());
    // std::merge is stable: equal rows come from the lower-indexed
    // shard first, so the fold order *is* the tie-break rule.
    std::merge(std::make_move_iterator(merged.begin()),
               std::make_move_iterator(merged.end()),
               std::make_move_iterator(part.begin()),
               std::make_move_iterator(part.end()),
               std::back_inserter(next));
    merged = std::move(next);
  }
  return merged;
}

Query Query::PointLookup(std::string node, std::string predicate,
                         graph::NodeKind kind) {
  Query q;
  q.kind = QueryKind::kPointLookup;
  q.node = std::move(node);
  q.node_kind = kind;
  q.predicate = std::move(predicate);
  return q;
}

Query Query::Neighborhood(std::string node, graph::NodeKind kind) {
  Query q;
  q.kind = QueryKind::kNeighborhood;
  q.node = std::move(node);
  q.node_kind = kind;
  return q;
}

Query Query::AttributeByType(std::string type_name, std::string predicate,
                             std::string type_predicate) {
  Query q;
  q.kind = QueryKind::kAttributeByType;
  q.type_name = std::move(type_name);
  q.predicate = std::move(predicate);
  q.type_predicate = std::move(type_predicate);
  return q;
}

Query Query::TopKRelated(std::string node, size_t k,
                         graph::NodeKind kind) {
  Query q;
  q.kind = QueryKind::kTopKRelated;
  q.node = std::move(node);
  q.node_kind = kind;
  q.k = k;
  return q;
}

std::string Query::CacheKey() const {
  std::string key;
  key.append(std::to_string(static_cast<int>(kind)));
  key.push_back('|');
  key.append(std::to_string(static_cast<int>(node_kind)));
  key.push_back('|');
  key.append(std::to_string(k));
  key.push_back('|');
  AppendField(&key, node);
  AppendField(&key, predicate);
  AppendField(&key, type_name);
  AppendField(&key, type_predicate);
  return key;
}

QueryEngine::QueryEngine(const KgSnapshot& snapshot, ServeOptions options)
    : snapshot_(snapshot), options_(std::move(options)) {
  if (options_.cache_capacity > 0) {
    cache_ = std::make_unique<ShardedLruCache>(options_.cache_capacity,
                                               options_.cache_shards);
  }
  if (options_.registry != nullptr) {
    for (size_t i = 0; i < kNumQueryKinds; ++i) {
      const char* name = QueryKindName(static_cast<QueryKind>(i));
      query_counters_[i] = &options_.registry->GetCounter(
          std::string("serve.queries.") + name);
      if (options_.time_queries) {
        latency_us_[i] = &options_.registry->GetHistogram(
            std::string("serve.latency_us.") + name,
            obs::LatencyBucketsUs());
      }
      if (options_.time_stages && options_.cache_capacity > 0) {
        stage_cache_probe_[i] = &obs::StageHistogram(
            *options_.registry, obs::Stage::kCacheProbe, name);
      }
    }
  }
}

QueryResult QueryEngine::Execute(const Query& query) const {
  const size_t k = static_cast<size_t>(query.kind);
  if (query_counters_[k] != nullptr) query_counters_[k]->Inc();
  if (options_.metrics == nullptr && latency_us_[k] == nullptr) {
    // Hot path: no timing requested, so no clock reads and no string
    // for a StageTimer scope.
    return ExecuteCacheAware(query);
  }
  WallTimer timer;
  QueryResult result = ExecuteCacheAware(query);
  const double seconds = timer.ElapsedSeconds();
  if (latency_us_[k] != nullptr) latency_us_[k]->Observe(seconds * 1e6);
  if (options_.metrics != nullptr) {
    options_.metrics->Record(QueryKindName(query.kind), seconds, 1);
  }
  return result;
}

Result<QueryResult> QueryEngine::TryExecute(const Query& query) const {
  if (snapshot_.schema_version() > kSnapshotSchemaVersion) {
    return Status::Unavailable(
        "snapshot schema version " +
        std::to_string(snapshot_.schema_version()) +
        " is newer than this engine supports (" +
        std::to_string(kSnapshotSchemaVersion) + ")");
  }
  return Execute(query);
}

QueryResult QueryEngine::ExecuteCacheAware(const Query& query) const {
  if (cache_ == nullptr) return ExecuteUncached(query);
  obs::Histogram* probe_hist =
      stage_cache_probe_[static_cast<size_t>(query.kind)];
  if (probe_hist == nullptr) {
    const std::string key = query.CacheKey();
    QueryResult cached;
    if (cache_->Get(key, &cached)) return cached;
    QueryResult result = ExecuteUncached(query);
    cache_->Put(key, result);
    return result;
  }
  WallTimer timer;
  const std::string key = query.CacheKey();
  QueryResult cached;
  const bool hit = cache_->Get(key, &cached);
  probe_hist->Observe(timer.ElapsedSeconds() * 1e6);
  if (hit) return cached;
  QueryResult result = ExecuteUncached(query);
  cache_->Put(key, result);
  return result;
}

void QueryEngine::PublishCacheMetrics() const {
  if (options_.registry == nullptr || cache_ == nullptr) return;
  const ShardedLruCache::Counters counters = cache_->counters();
  options_.registry->GetGauge("serve.cache.hits")
      .Set(static_cast<int64_t>(counters.hits));
  options_.registry->GetGauge("serve.cache.misses")
      .Set(static_cast<int64_t>(counters.misses));
  options_.registry->GetGauge("serve.cache.evictions")
      .Set(static_cast<int64_t>(counters.evictions));
}

QueryResult QueryEngine::ExecuteUncached(const Query& query) const {
  return ExecuteQuery(snapshot_, query);
}

std::vector<QueryResult> QueryEngine::BatchExecute(
    const std::vector<Query>& queries) const {
  std::vector<QueryResult> results(queries.size());
  // Index-addressed slots: shard i writes only results[b, e), so the
  // assembled vector is identical for any thread count or schedule.
  ParallelForChunked(options_.exec, queries.size(),
                     [&](size_t begin, size_t end) {
                       for (size_t i = begin; i < end; ++i) {
                         results[i] = Execute(queries[i]);
                       }
                     });
  return results;
}

}  // namespace kg::serve
