#ifndef KGRAPH_CLUSTER_SUPERVISOR_H_
#define KGRAPH_CLUSTER_SUPERVISOR_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cluster/member.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "rpc/client.h"
#include "rpc/frame.h"

namespace kg::cluster {

struct SupervisorOptions {
  /// Sweep cadence of the background thread.
  int interval_ms = 20;
  /// A running link silent this long (no batch, no heartbeat) is
  /// presumed wedged and torn down for a fresh dial. Keep comfortably
  /// above the shipping heartbeat interval.
  int stall_timeout_ms = 2000;
  obs::MetricsRegistry* registry = nullptr;
};

/// Cluster health loop: watches every replica's WAL link and (a) restarts
/// receiver threads that gave up while their primary was dead — the
/// re-subscribe resumes from the replica's persisted offset, so a revived
/// primary ships only the missing suffix — and (b) kicks links that are
/// nominally running but silent past the stall timeout. Also exports
/// per-sweep lag gauges ("cluster.replica.lag_bytes.max",
/// "cluster.replicas.down"). Sweeps run on a background thread; tests
/// can call Tick() directly for deterministic single-steps.
class ClusterSupervisor {
 public:
  explicit ClusterSupervisor(std::vector<ReplicaMember*> replicas,
                             SupervisorOptions options = {});
  ~ClusterSupervisor();

  ClusterSupervisor(const ClusterSupervisor&) = delete;
  ClusterSupervisor& operator=(const ClusterSupervisor&) = delete;

  void Start();
  void Stop();

  /// One sweep: restart dead links, kick stalled ones, refresh gauges.
  void Tick();

  uint64_t restarts() const {
    return restarts_.load(std::memory_order_relaxed);
  }

  /// One scrapeable member endpoint: a stable label plus a dial to its
  /// RPC listener (e.g. PrimaryMember::DialFactory).
  struct ScrapeTarget {
    std::string label;
    rpc::TransportFactory dial;
  };

  /// Registers the endpoints ScrapeCluster visits. Call before Start()
  /// (the Cluster facade registers every shard primary at build time).
  void SetScrapeTargets(std::vector<ScrapeTarget> targets);

  /// Cluster-wide introspection scrape: dials every registered target
  /// over its own wire, handshakes, issues kIntrospectRequest(`what`),
  /// and merges the per-member payloads into one deterministic JSON
  /// document — members keyed and ordered by label, a member that
  /// cannot be scraped contributing {"error": ...} instead of failing
  /// the whole scrape:
  ///
  ///   {"schema_version":1,"what":"<selector>",
  ///    "members":{"s0.primary":<payload>,...}}
  ///
  /// JSON payloads (metrics JSON, slow queries, trace) embed raw; the
  /// Prometheus exposition embeds as a JSON string.
  Result<std::string> ScrapeCluster(rpc::IntrospectWhat what) const;

 private:
  std::vector<ReplicaMember*> replicas_;
  SupervisorOptions options_;
  std::vector<ScrapeTarget> scrape_targets_;

  std::mutex lifecycle_mu_;
  std::atomic<bool> stop_{true};
  /// The sweep thread waits out each interval on wake_cv_, so Stop()
  /// ends the wait at once.
  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  std::thread thread_;
  std::atomic<uint64_t> restarts_{0};

  obs::Counter* restarts_metric_ = nullptr;
  obs::Gauge* max_lag_gauge_ = nullptr;
  obs::Gauge* down_gauge_ = nullptr;
};

}  // namespace kg::cluster

#endif  // KGRAPH_CLUSTER_SUPERVISOR_H_
