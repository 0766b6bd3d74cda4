#ifndef KGRAPH_CLUSTER_CLUSTER_H_
#define KGRAPH_CLUSTER_CLUSTER_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cluster/member.h"
#include "cluster/router.h"
#include "cluster/supervisor.h"
#include "common/fault.h"
#include "common/status.h"
#include "graph/knowledge_graph.h"
#include "obs/metrics.h"

namespace kg::cluster {

struct ClusterOptions {
  size_t num_shards = 1;
  size_t replicas_per_shard = 0;
  /// Router staleness bound; 0 = every answer provably matches the
  /// committed state (see RouterOptions).
  uint64_t max_staleness_bytes = 0;
  /// "cluster.*" (and member "store.*"/"rpc.*") metrics land here when
  /// non-null (not owned).
  obs::MetricsRegistry* registry = nullptr;
  /// Distributed tracing (not owned). Wired into the router and every
  /// member, so each routed query renders as one connected span tree
  /// (route -> shard -> member -> store.execute), and into each
  /// primary's RPC endpoint for kIntrospect(kTrace) scrapes. NOT wired
  /// into WAL receivers — shipping spans depend on batch timing; opt in
  /// per-receiver via `receiver.tracer` when forensics beat determinism.
  obs::Tracer* tracer = nullptr;
  /// Worst-N routed-query retention (not owned); also exposed on every
  /// primary endpoint via kIntrospect(kSlowQueries).
  obs::SlowQueryRing* slow_ring = nullptr;
  /// With `registry`, time request-path stages (fanout at the router,
  /// cache probe / WAL append / overlay merge in member stores) into
  /// "stage_us.<stage>[.<class>]" histograms.
  bool time_stages = false;
  /// Worker threads of each primary's in-process RPC endpoint.
  size_t server_worker_threads = 1;
  /// When set, replica r of shard s persists its applied log to
  /// `<wal_dir>/s<s>r<r>.wal`, making its resume offset durable across
  /// member re-creation. Empty keeps everything in memory.
  std::string wal_dir;
  /// Chaos on the WAL shipping links: dials go through
  /// ChaosConnectFactory and every shipped byte stream through a
  /// ChaosTransport, channels "ship-s<s>r<r>[-<session>]". Must outlive
  /// the cluster. Query routing is in-process and unaffected.
  const FaultInjector* injector = nullptr;

  int heartbeat_interval_ms = 5;
  SupervisorOptions supervisor;
  WalReceiverOptions receiver;
  size_t breaker_failure_threshold = 3;
  size_t breaker_probe_interval = 4;
  size_t wal_batch_max_bytes = 256 * 1024;
};

/// Splits `base` into per-shard KnowledgeGraphs by subject hash
/// (ShardOf over the kind-tagged subject name). Triple order and each
/// triple's provenance list survive verbatim, so a shard's sub-graph
/// answers every subject-owned query exactly as the full graph does.
std::vector<graph::KnowledgeGraph> PartitionBySubject(
    const graph::KnowledgeGraph& base, size_t num_shards);

/// An in-process sharded + replicated serving cluster over the
/// VersionedKgStore: N shard groups, each a writable primary plus R
/// read replicas kept in sync by WAL shipping over the rpc framing,
/// fronted by the scatter-gather QueryRouter and watched by the
/// ClusterSupervisor. Kill/Revive model member crashes for failover
/// drills; the cluster property suite proves sharded answers are
/// byte-identical to a single store through all of it.
class Cluster {
 public:
  static Result<std::unique_ptr<Cluster>> Create(
      const graph::KnowledgeGraph& base, ClusterOptions options = {});
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// One logical commit through the router (the cluster's sole writer).
  Status Apply(std::span<const store::Mutation> mutations);

  Result<serve::QueryResult> Execute(const serve::Query& query);

  // --- Failure drills -----------------------------------------------------

  void KillReplica(size_t shard, size_t replica);
  void ReviveReplica(size_t shard, size_t replica);
  void KillPrimary(size_t shard);
  Status RevivePrimary(size_t shard);

  // --- Introspection ------------------------------------------------------

  /// Blocks until every *live* replica has applied its primary's full
  /// log (lag 0); false on timeout. The deterministic barrier the tests
  /// and the bench quiesce on. Re-checks when a replica applies a batch
  /// or a member is killed or revived through this facade, never on a
  /// timer.
  bool WaitForCatchUp(int timeout_ms);

  /// Cluster-wide observability scrape over the wire: every shard
  /// primary's endpoint answers kIntrospectRequest(`what`), merged
  /// deterministically by member label (ClusterSupervisor::ScrapeCluster).
  Result<std::string> ScrapeCluster(rpc::IntrospectWhat what) const {
    return supervisor_->ScrapeCluster(what);
  }

  uint64_t MaxReplicaLagBytes() const;

  size_t num_shards() const { return primaries_.size(); }
  size_t replicas_per_shard() const { return options_.replicas_per_shard; }
  PrimaryMember& primary(size_t shard) { return *primaries_[shard]; }
  ReplicaMember& replica(size_t shard, size_t index) {
    return *replicas_[shard * options_.replicas_per_shard + index];
  }
  QueryRouter& router() { return *router_; }
  ClusterSupervisor& supervisor() { return *supervisor_; }

 private:
  explicit Cluster(ClusterOptions options);

  /// Every live replica has applied its primary's whole log.
  bool CaughtUp() const;
  /// Wakes WaitForCatchUp to re-check.
  void NotifyProgress();

  ClusterOptions options_;
  /// Declared before the members so it outlives every receiver thread
  /// that signals it.
  mutable std::mutex progress_mu_;
  std::condition_variable progress_cv_;
  /// Destruction order matters: supervisor first (it pokes replicas),
  /// then router, then replicas (receivers dial primaries), then
  /// primaries — i.e. members are declared before their watchers.
  std::vector<std::unique_ptr<PrimaryMember>> primaries_;
  std::vector<std::unique_ptr<ReplicaMember>> replicas_;  ///< shard-major.
  std::unique_ptr<QueryRouter> router_;
  std::unique_ptr<ClusterSupervisor> supervisor_;
};

}  // namespace kg::cluster

#endif  // KGRAPH_CLUSTER_CLUSTER_H_
