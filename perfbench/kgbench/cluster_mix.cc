// cluster_mix: a Cluster of 2 shards x 1 replica; its QueryRouter serves
// reads through the same TCP front door as remote_read, and one
// closed-loop client sends 99% reads over it and applies 1% writes
// through the router in-process, shipped to the replicas over the
// in-memory rpc. Every 25th write, once the replicas have caught up,
// also compacts every member's store, timed as part of that write, so
// the overlays stay bounded and the load stays the same through the run.
// Scans and top-k fan out to both shards. Every routed answer is compared
// with a single-store reference that applied the same writes, and the
// replicas must catch up after every write.

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "kgbench/workloads.h"
#include "obs/introspect.h"
#include "obs/metrics.h"
#include "store/versioned_store.h"

namespace kgbench {

namespace {

constexpr uint64_t kWriteEvery = 100;  // 1% writes
// One compaction round per segment of the closed-loop rate.
constexpr uint64_t kCompactEveryWrites = kSegmentOps / kWriteEvery;
static_assert(kCompactEveryWrites * kWriteEvery == kSegmentOps);
constexpr size_t kShards = 2;
constexpr size_t kReplicas = 1;
constexpr int kCatchUpTimeoutMs = 10000;
constexpr size_t kWorkers = 2;

struct Rig {
  // Declared first, destroyed last: the cluster's members hold its
  // handles.
  std::unique_ptr<kg::obs::MetricsRegistry> registry;
  std::unique_ptr<kg::store::VersionedKgStore> reference;
  std::unique_ptr<kg::cluster::Cluster> cluster;
  std::unique_ptr<FrontDoor> door;  // last: its handler uses the cluster
};

std::unique_ptr<Rig> BuildRig(const RunOptions& options,
                              HandlerTrace* trace) {
  auto rig = std::make_unique<Rig>();
  const kg::graph::KnowledgeGraph kg = BuildWorldKg(options.seed);
  kg::cluster::ClusterOptions cluster_options;
  cluster_options.num_shards = kShards;
  cluster_options.replicas_per_shard = kReplicas;
  if (options.trace) {
    // Stage timing (the fanout histograms) only in the traced run.
    rig->registry = std::make_unique<kg::obs::MetricsRegistry>();
    cluster_options.registry = rig->registry.get();
    cluster_options.time_stages = true;
  }
  cluster_options.heartbeat_interval_ms = 2;
  cluster_options.receiver.dial_retry_ms = 1;
  cluster_options.receiver.max_dial_attempts = 100;
  auto cluster = kg::cluster::Cluster::Create(kg, cluster_options);
  if (!cluster.ok()) return nullptr;
  rig->cluster = std::move(*cluster);
  if (!rig->cluster->WaitForCatchUp(kCatchUpTimeoutMs)) return nullptr;
  auto reference = kg::store::VersionedKgStore::Open(kg, {});
  if (!reference.ok()) return nullptr;
  rig->reference = std::move(*reference);
  kg::cluster::Cluster* cluster_ptr = rig->cluster.get();
  kg::rpc::QueryHandler handler = [cluster_ptr](const kg::serve::Query& q) {
    return cluster_ptr->Execute(q);
  };
  if (options.trace) handler = trace->Wrap(std::move(handler), "cluster.route");
  rig->door = OpenFrontDoor(std::move(handler), kWorkers, 1);
  return rig->door == nullptr ? nullptr : std::move(rig);
}

}  // namespace

Outcome RunClusterMix(const RunOptions& options) {
  Outcome out;
  HandlerTrace trace;
  RunTotals totals;
  std::unique_ptr<Rig> rig = SetUpRepeatedly(
      [&] { return BuildRig(options, &trace); }, &totals);
  if (rig == nullptr) return out;
  kg::cluster::Cluster& cluster = *rig->cluster;
  kg::rpc::RpcClient& client = *rig->door->clients[0];
  kg::store::VersionedKgStore& reference = *rig->reference;

  Checker checker(options.inject_wrong_answer);
  UntimedCpu untimed;
  std::vector<ThreadResult> threads(1);
  std::vector<double> catchup_ms;
  std::vector<double> compact_ms;  // one round over every member
  uint64_t writes = 0;
  uint64_t max_lag = 0;
  uint64_t catchup_failures = 0;

  // Routed answers awaiting their reference check. The reference only
  // changes with a write, so the checks run as one batch before the next
  // write and at the end: consecutive routed reads then run back to
  // back, without reference work evicting the cluster's data in between.
  std::vector<std::pair<kg::serve::Query, uint64_t>> pending;
  auto check_pending = [&] {
    UntimedCpu::Scope scope(&untimed);
    const auto epoch = reference.PinEpoch();
    for (const auto& [query, hash] : pending) {
      checker.Check(hash, AnswerHash(reference.ExecuteAt(*epoch, query)),
                    "cluster_mix " + query.CacheKey());
    }
    pending.clear();
  };

  const Phases phases = MakePhases(options);
  trace.Arm(&phases);
  const OpRunner run = [&](const Op& op, Spans* spans) {
    OpOutcome o;
    if (!op.is_write) {
      kg::serve::QueryResult answer;
      o = RemoteRead(client, op.query, spans, &answer);
      if (!o.ok) return o;
      UntimedCpu::Scope scope(&untimed);
      pending.emplace_back(op.query, AnswerHash(answer));
      return o;
    }
    check_pending();
    const std::span<const kg::store::Mutation> batch(&op.mutation, 1);
    const double t0 = NowSeconds();
    const kg::Status st = cluster.Apply(batch);
    o.ok = st.ok();
    o.us = (NowSeconds() - t0) * 1e6;
    if (!o.ok) return o;
    {
      UntimedCpu::Scope scope(&untimed);
      max_lag = std::max(max_lag, cluster.MaxReplicaLagBytes());
      const double c0 = NowSeconds();
      if (!cluster.WaitForCatchUp(kCatchUpTimeoutMs)) ++catchup_failures;
      catchup_ms.push_back((NowSeconds() - c0) * 1e3);
      if (!reference.ApplyBatch(batch).ok()) ++catchup_failures;
    }
    if (++writes % kCompactEveryWrites == 0) {
      const double c0 = NowSeconds();
      for (size_t s = 0; s < kShards; ++s) {
        cluster.primary(s).store().Compact();
        for (size_t i = 0; i < kReplicas; ++i) {
          cluster.replica(s, i).store().Compact();
        }
      }
      const double c1 = NowSeconds();
      compact_ms.push_back((c1 - c0) * 1e3);
      o.us += (c1 - c0) * 1e6;
    }
    return o;
  };
  const std::vector<std::function<void()>> bodies = {[&] {
    OpStream stream(kWriteEvery, options.seed, 0);
    DriveClient(phases, stream, untimed, run,
                [&client] { return !client.healthy(); }, &threads[0]);
  }};
  totals.cpu = RunClients(phases, untimed, bodies, [&] {
    if (rig->registry == nullptr) return;
    for (size_t c = 0; c < kClasses; ++c) {
      kg::obs::StageHistogram(*rig->registry, kg::obs::Stage::kFanout,
                              ClassName(c))
          .Reset();
    }
  });
  check_pending();
  if (options.trace) totals.idle_cpu_pct = MeasureIdleCpuPct(1.0);
  trace.Arm(nullptr);

  totals.phases = phases;
  totals.threads = &threads;
  totals.wrong_answers = checker.mismatches() + catchup_failures;
  ReportCommon(totals, &out);

  // Per-layer: client -> rpc (round trip) -> cluster.route (the handler)
  // -> fanout (scatter-gather).
  Report& r = out.report;
  Spans spans;
  spans.Merge(threads[0].spans);
  spans.Merge(trace.spans());
  ReportRpc(spans, "cluster.route", *rig->door->server, &r);
  for (size_t c = 0; c < kClasses; ++c) {
    const std::string cls = ClassName(c);
    const double route = spans.P50("cluster.route", c);
    double fanout = 0.0;
    if (rig->registry != nullptr) {
      const kg::obs::Histogram& h = kg::obs::StageHistogram(
          *rig->registry, kg::obs::Stage::kFanout, cls);
      fanout = h.Quantile(0.5);
    }
    r.Set("cluster.route_us." + cls, route, "us");
    if (c != static_cast<size_t>(kg::serve::QueryKind::kPointLookup)) {
      r.Set("cluster.fanout_us." + cls, fanout, "us");
    }
    r.Set("cluster.route_self_us." + cls, route - fanout, "us");
  }
  const kg::cluster::QueryRouter::Stats stats = cluster.router().stats();
  r.Set("cluster.failovers", static_cast<double>(stats.failovers), "count");
  r.Set("cluster.stale_rejects", static_cast<double>(stats.stale_rejects),
        "count");
  r.Set("cluster.shed", static_cast<double>(stats.shed), "count");
  r.Set("store.compact_ms", Median(compact_ms), "ms");
  r.Set("store.compactions", static_cast<double>(compact_ms.size()), "count");
  r.Set("cluster.replica_catchup_ms", Median(catchup_ms), "ms");
  r.Set("cluster.replica_lag_bytes_max", static_cast<double>(max_lag), "B");
  r.Note("cluster_mix: " + std::to_string(kShards) + " shards x " +
         std::to_string(kReplicas) + " replica, " +
         std::to_string(catchup_ms.size()) + " writes shipped, " +
         std::to_string(compact_ms.size()) + " compaction rounds, " +
         std::to_string(checker.checks()) + " answers compared, " +
         std::to_string(catchup_failures) + " catch-up failures");
  return out;
}

}  // namespace kgbench
