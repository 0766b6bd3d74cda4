#include "cluster/supervisor.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <utility>

#include "obs/json.h"

namespace kg::cluster {

ClusterSupervisor::ClusterSupervisor(std::vector<ReplicaMember*> replicas,
                                     SupervisorOptions options)
    : replicas_(std::move(replicas)), options_(options) {
  if (options_.registry != nullptr) {
    restarts_metric_ =
        &options_.registry->GetCounter("cluster.supervisor.restarts");
    max_lag_gauge_ =
        &options_.registry->GetGauge("cluster.replica.lag_bytes.max");
    down_gauge_ = &options_.registry->GetGauge("cluster.replicas.down");
  }
}

ClusterSupervisor::~ClusterSupervisor() { Stop(); }

void ClusterSupervisor::Start() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (!stop_.load(std::memory_order_acquire)) return;
  stop_.store(false, std::memory_order_release);
  thread_ = std::thread([this] {
    const auto interval = std::chrono::milliseconds(options_.interval_ms);
    std::unique_lock<std::mutex> wake(wake_mu_);
    while (!stop_.load(std::memory_order_acquire)) {
      wake.unlock();
      Tick();
      wake.lock();
      wake_cv_.wait_for(wake, interval, [this] {
        return stop_.load(std::memory_order_acquire);
      });
    }
  });
}

void ClusterSupervisor::Stop() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  {
    // Under wake_mu_, so the sweep thread cannot miss it between its
    // predicate check and its wait.
    std::lock_guard<std::mutex> wake(wake_mu_);
    stop_.store(true, std::memory_order_release);
  }
  wake_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void ClusterSupervisor::Tick() {
  uint64_t max_lag = 0;
  int64_t down = 0;
  for (ReplicaMember* replica : replicas_) {
    if (!replica->alive()) {
      ++down;
      continue;
    }
    WalReceiver& receiver = replica->receiver();
    if (!receiver.running()) {
      // The receiver exhausted its dial budget while the primary was
      // unreachable and exited. Restart it; the subscribe resumes from
      // the replica's verified offset.
      restarts_.fetch_add(1, std::memory_order_relaxed);
      if (restarts_metric_ != nullptr) restarts_metric_->Inc();
      replica->EnsureLink();
    } else if (receiver.ms_since_progress() > options_.stall_timeout_ms) {
      // Nominally connected but silent well past the heartbeat cadence:
      // kick the session so it re-dials rather than hanging forever.
      restarts_.fetch_add(1, std::memory_order_relaxed);
      if (restarts_metric_ != nullptr) restarts_metric_->Inc();
      receiver.Stop();
      replica->EnsureLink();
    }
    max_lag = std::max(max_lag, replica->lag_bytes());
  }
  if (max_lag_gauge_ != nullptr) {
    max_lag_gauge_->Set(static_cast<int64_t>(max_lag));
  }
  if (down_gauge_ != nullptr) down_gauge_->Set(down);
}

void ClusterSupervisor::SetScrapeTargets(std::vector<ScrapeTarget> targets) {
  scrape_targets_ = std::move(targets);
}

Result<std::string> ClusterSupervisor::ScrapeCluster(
    rpc::IntrospectWhat what) const {
  // One dial + handshake + introspect round trip per target; results
  // keyed by label in a std::map, so the merged document is identical
  // no matter what order the targets were registered or answered in.
  std::map<std::string, std::pair<bool, std::string>> members;
  for (const ScrapeTarget& target : scrape_targets_) {
    auto scrape = [&target, what]() -> Result<std::string> {
      KG_ASSIGN_OR_RETURN(std::unique_ptr<rpc::ITransport> transport,
                          target.dial());
      rpc::RpcClient client(std::move(transport));
      auto handshake = client.Handshake();
      if (!handshake.ok()) return handshake.status();
      return client.Introspect(what);
    };
    auto result = scrape();
    if (result.ok()) {
      members[target.label] = {true, std::move(*result)};
    } else {
      members[target.label] = {false, result.status().message()};
    }
  }
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("schema_version").Int(1);
  w.Key("what").String(rpc::IntrospectWhatName(what));
  w.Key("members").BeginObject();
  for (const auto& [label, payload] : members) {
    w.Key(label);
    if (!payload.first) {
      w.BeginObject();
      w.Key("error").String(payload.second);
      w.EndObject();
    } else if (what == rpc::IntrospectWhat::kMetricsPrometheus) {
      // The Prometheus exposition is text, not JSON.
      w.String(payload.second);
    } else {
      w.Raw(payload.second);
    }
  }
  w.EndObject();
  w.EndObject();
  return w.Take();
}

}  // namespace kg::cluster
