#include "kgbench/workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>
#include <thread>
#include <utility>

#include "rpc/transport.h"

namespace kgbench {

namespace {

// Ops generated per refill; generation runs outside the timed region.
constexpr size_t kChunkOps = 2048;

}  // namespace

void Spans::Add(const std::string& layer, size_t cls, double us) {
  std::lock_guard<std::mutex> lock(mu_);
  us_[layer][cls].push_back(us);
}

void Spans::Merge(const Spans& other) {
  std::scoped_lock lock(mu_, other.mu_);
  for (const auto& [layer, per_class] : other.us_) {
    for (size_t c = 0; c < kClasses; ++c) {
      auto& dst = us_[layer][c];
      dst.insert(dst.end(), per_class[c].begin(), per_class[c].end());
    }
  }
}

std::vector<double> Spans::Samples(const std::string& layer,
                                   size_t cls) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = us_.find(layer);
  return it == us_.end() ? std::vector<double>{} : it->second[cls];
}

double Spans::P50(const std::string& layer, size_t cls) const {
  return Median(Samples(layer, cls));
}

size_t Phases::BlockAt(double now) const {
  return now < warm_end ? 0 : static_cast<size_t>((now - warm_end) / block_s);
}

std::unique_ptr<FrontDoor> OpenFrontDoor(kg::rpc::QueryHandler handler,
                                         size_t workers, size_t connections) {
  auto door = std::make_unique<FrontDoor>();
  auto listener = kg::rpc::TcpTransportServer::Listen(0);
  if (!listener.ok()) return nullptr;
  const uint16_t port = (*listener)->port();
  kg::rpc::RpcServerOptions server_options;
  server_options.worker_threads = workers;
  door->server = std::make_unique<kg::rpc::RpcServer>(
      std::move(handler), std::move(*listener), server_options);
  if (!door->server->Start().ok()) return nullptr;
  for (size_t c = 0; c < connections; ++c) {
    auto transport = kg::rpc::TcpConnect("127.0.0.1", port);
    if (!transport.ok()) return nullptr;
    auto client = std::make_unique<kg::rpc::RpcClient>(std::move(*transport));
    if (!client->Handshake().ok()) return nullptr;
    door->clients.push_back(std::move(client));
  }
  return door;
}

kg::rpc::QueryHandler HandlerTrace::Wrap(kg::rpc::QueryHandler inner,
                                         std::string layer) {
  return [this, inner = std::move(inner),
          layer = std::move(layer)](const kg::serve::Query& q) {
    const Phases* phases = phases_.load(std::memory_order_acquire);
    const double t0 = NowSeconds();
    auto result = inner(q);
    if (phases != nullptr && phases->TracedAt(t0)) {
      spans_.Add(layer, static_cast<size_t>(q.kind),
                 (NowSeconds() - t0) * 1e6);
    }
    return result;
  };
}

void HandlerTrace::Arm(const Phases* phases) {
  phases_.store(phases, std::memory_order_release);
}

OpOutcome RemoteRead(kg::rpc::RpcClient& client, const kg::serve::Query& query,
                     Spans* spans, kg::serve::QueryResult* answer) {
  OpOutcome o;
  const double t0 = NowSeconds();
  auto result = client.Execute(query);
  const double t1 = NowSeconds();
  o.ok = result.ok();
  if (o.ok) {
    o.rows = result->size();
    *answer = std::move(*result);
  }
  o.us = (NowSeconds() - t0) * 1e6;
  if (spans != nullptr) {
    spans->Add("rpc.rtt", static_cast<size_t>(query.kind), (t1 - t0) * 1e6);
  }
  return o;
}

void ReportRpc(const Spans& spans, const std::string& handler_layer,
               const kg::rpc::RpcServer& server, Report* report) {
  for (size_t c = 0; c < kClasses; ++c) {
    const std::string cls = ClassName(c);
    const double client = spans.P50("client", c);
    const double rtt = spans.P50("rpc.rtt", c);
    const double handler = spans.P50(handler_layer, c);
    report->Set("client.observed_us." + cls, client, "us");
    report->Set("client.residual_us." + cls, client - rtt, "us");
    report->Set("rpc.rtt_us." + cls, rtt, "us");
    report->Set("rpc.handler_us." + cls, handler, "us");
    report->Set("rpc.self_us." + cls, rtt - handler, "us");
  }
  const kg::rpc::RpcServer::Stats stats = server.stats();
  report->Set("rpc.requests_shed", static_cast<double>(stats.requests_shed),
              "count");
  report->Set("rpc.frame_errors", static_cast<double>(stats.frame_errors),
              "count");
}

bool Phases::TracedAt(double now) const {
  return trace && now >= warm_end && BlockAt(now) % 2 == 1;
}

Phases MakePhases(const RunOptions& options) {
  Phases phases;
  const double warm = std::min(1.0, 0.1 * options.seconds);
  phases.warm_end = NowSeconds() + warm;
  phases.measure_end = phases.warm_end + options.seconds;
  phases.trace = options.trace;
  return phases;
}

void DriveClient(const Phases& phases, OpStream& stream, UntimedCpu& untimed,
                 const OpRunner& run, const std::function<bool()>& stop,
                 ThreadResult* out) {
  std::vector<Op> chunk;
  size_t next = 0;
  uint64_t segment_attempted = 0;
  double segment_ops = 0.0;
  double segment_busy_s = 0.0;
  CpuTicks segment_ticks;
  auto close_segment = [&] {
    UntimedCpu::Scope scope(&untimed);
    const CpuTicks ticks = ReadCpuTicks();
    if (segment_busy_s > 0.0) {
      out->segment_rate.push_back(segment_ops / segment_busy_s);
      out->segment_steal_pct.push_back(StealPct(segment_ticks, ticks));
    }
    segment_ticks = ticks;
    segment_attempted = 0;
    segment_ops = 0.0;
    segment_busy_s = 0.0;
  };
  while (!stop()) {
    if (next == chunk.size()) {
      UntimedCpu::Scope scope(&untimed);
      chunk.clear();
      stream.Next(kChunkOps, &chunk);
      next = 0;
    }
    const double now = NowSeconds();
    if (now >= phases.measure_end) break;
    const bool measuring = now >= phases.warm_end;
    const bool traced = phases.TracedAt(now);
    const Op& op = chunk[next++];
    if (measuring && out->attempted == 0) {
      UntimedCpu::Scope scope(&untimed);
      segment_ticks = ReadCpuTicks();
    }
    const OpOutcome outcome = run(op, traced ? &out->spans : nullptr);
    if (!measuring) continue;
    ++out->attempted;
    const bool segment_full = ++segment_attempted == kSegmentOps;
    if (outcome.ok) {
      segment_ops += 1;
      segment_busy_s += outcome.us * 1e-6;
    }
    if (segment_full) close_segment();
    if (!outcome.ok) {
      ++out->errors;
      continue;
    }
    const size_t block = phases.BlockAt(now);
    if (block >= out->block_ops.size()) {
      out->block_ops.resize(block + 1);
      out->block_busy_s.resize(block + 1);
      out->blocks.resize(block + 1);
    }
    out->block_ops[block] += 1;
    out->block_busy_s[block] += outcome.us * 1e-6;
    const size_t cls = static_cast<size_t>(op.query.kind);
    if (!op.is_write) {
      out->rows[cls] += outcome.rows;
      ++out->answers[cls];
    }
    if (traced) {
      ++out->traced_ops;
      if (!op.is_write) out->spans.Add("client", cls, outcome.us);
      continue;
    }
    if (op.is_write) {
      out->blocks[block].write_us.push_back(outcome.us);
    } else {
      out->blocks[block].read_us[cls].push_back(outcome.us);
    }
  }
  if (out->segment_rate.empty()) close_segment();
}

WindowCpu RunClients(const Phases& phases, const UntimedCpu& untimed,
                     const std::vector<std::function<void()>>& bodies,
                     const std::function<void()>& at_warm_end) {
  auto sleep_until = [](double t) {
    const double left = t - NowSeconds();
    if (left > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(left));
    }
  };
  std::vector<std::thread> threads;
  for (const auto& body : bodies) threads.emplace_back(body);
  sleep_until(phases.warm_end);
  if (at_warm_end) at_warm_end();
  const double cpu0 = ProcessCpuSeconds();
  const double untimed0 = untimed.seconds();
  WindowCpu cpu;
  CpuTicks ticks = ReadCpuTicks();
  const size_t blocks = static_cast<size_t>(std::ceil(
      (phases.measure_end - phases.warm_end) / phases.block_s - 1e-9));
  for (size_t b = 1; b <= blocks; ++b) {
    sleep_until(std::min(phases.warm_end + static_cast<double>(b) *
                                               phases.block_s,
                         phases.measure_end));
    const CpuTicks next = ReadCpuTicks();
    cpu.block_steal_pct.push_back(StealPct(ticks, next));
    ticks = next;
  }
  cpu.process_s = ProcessCpuSeconds() - cpu0;
  cpu.untimed_s = untimed.seconds() - untimed0;
  for (std::thread& t : threads) t.join();
  return cpu;
}

namespace {

size_t Ops(const Latencies& lat) { return lat.reads() + lat.write_us.size(); }

// The items whose host steal is at most the first quartile of theirs,
// give or take one percentage point (a clock tick or two of /proc/stat):
// all of them in a quiet run, the least disturbed quarter in a disturbed
// one.
std::vector<size_t> LeastStolen(const std::vector<size_t>& items,
                                const std::vector<double>& steal_pct) {
  std::vector<double> steal;
  for (const size_t i : items) steal.push_back(steal_pct[i]);
  const double limit = Percentile(steal, 0.25) + 1.0;
  std::vector<size_t> kept;
  for (const size_t i : items) {
    if (steal_pct[i] <= limit) kept.push_back(i);
  }
  return kept;
}

double MeanOf(const std::vector<double>& values,
              const std::vector<size_t>& items) {
  double sum = 0.0;
  for (const size_t i : items) sum += values[i];
  return items.empty() ? 0.0 : sum / static_cast<double>(items.size());
}

// Closed-loop throughput: each client completes ops back to back, so the
// run's rate is the sum of each client's rate, here the median rate of
// its least disturbed segments. Counts the segments kept and all of them.
double OpsPerSecond(const std::vector<ThreadResult>& threads, size_t* kept,
                    size_t* total) {
  double rate = 0.0;
  for (const ThreadResult& t : threads) {
    std::vector<size_t> segments(t.segment_rate.size());
    std::iota(segments.begin(), segments.end(), size_t{0});
    std::vector<double> rates;
    for (const size_t i : LeastStolen(segments, t.segment_steal_pct)) {
      rates.push_back(t.segment_rate[i]);
    }
    rate += Median(rates);
    *kept += rates.size();
    *total += segments.size();
  }
  return rate;
}

// Tracing overhead: the median closed-loop rate of the traced blocks
// against that of the untraced blocks they alternate with, so host
// drift cancels and a stall in one block does not decide the figure.
double TraceOverheadPct(const std::vector<ThreadResult>& threads) {
  size_t blocks = 0;
  for (const ThreadResult& t : threads) {
    blocks = std::max(blocks, t.block_ops.size());
  }
  std::array<std::vector<double>, 2> rates;  // [untraced, traced]
  for (size_t b = 0; b < blocks; ++b) {
    double rate = 0.0;
    for (const ThreadResult& t : threads) {
      if (b < t.block_ops.size() && t.block_busy_s[b] > 0.0) {
        rate += t.block_ops[b] / t.block_busy_s[b];
      }
    }
    if (rate > 0.0) rates[b % 2].push_back(rate);
  }
  const double untraced = Median(rates[0]);
  const double traced = Median(rates[1]);
  return traced > 0.0 && untraced > 0.0
             ? (untraced - traced) / untraced * 100.0
             : 0.0;
}

}  // namespace

void ReportCommon(const RunTotals& totals, Outcome* out) {
  // Read before the merged copies of the latencies below, whose size
  // follows the op count and would otherwise set the peak.
  const double peak_rss_mb = PeakRssMb();
  const std::vector<ThreadResult>& threads = *totals.threads;
  Report* report = &out->report;
  const std::vector<double>& block_steal = totals.cpu.block_steal_pct;
  std::vector<size_t> untraced_blocks;
  for (size_t b = 0; b < block_steal.size(); ++b) {
    if (!totals.phases.trace || b % 2 == 0) untraced_blocks.push_back(b);
  }
  const std::vector<size_t> quiet = LeastStolen(untraced_blocks, block_steal);
  std::vector<size_t> setups(totals.setup_s.size());
  std::iota(setups.begin(), setups.end(), size_t{0});
  const std::vector<size_t> quiet_setups =
      LeastStolen(setups, totals.setup_steal_pct);
  Latencies lat;        // every untraced block: tails, client figures
  Latencies quiet_lat;  // the least disturbed blocks: end-to-end p50s
  uint64_t ops = 0;
  uint64_t errors = 0;
  out->attempted = 0;
  std::array<uint64_t, kClasses> rows{};
  std::array<uint64_t, kClasses> answers{};
  for (const ThreadResult& t : threads) {
    for (const Latencies& block : t.blocks) {
      lat.Append(block);
      ops += Ops(block);
    }
    for (const size_t b : quiet) {
      if (b < t.blocks.size()) quiet_lat.Append(t.blocks[b]);
    }
    ops += t.traced_ops;
    out->attempted += t.attempted;
    errors += t.errors;
    for (size_t c = 0; c < kClasses; ++c) {
      rows[c] += t.rows[c];
      answers[c] += t.answers[c];
    }
  }

  out->failed = errors + totals.wrong_answers;
  out->correct = out->failed == 0 && out->attempted > 0;

  std::vector<double> quiet_setup_s;
  std::string setup_note = "set-ups (s / host steal %):";
  for (size_t i = 0; i < totals.setup_s.size(); ++i) {
    setup_note += " " + std::to_string(totals.setup_s[i]) + "/" +
                  std::to_string(totals.setup_steal_pct[i]);
  }
  for (const size_t i : quiet_setups) {
    quiet_setup_s.push_back(totals.setup_s[i]);
  }
  report->Note(setup_note);
  report->Note("end-to-end blocks: the " + std::to_string(quiet.size()) +
               " of " + std::to_string(untraced_blocks.size()) +
               " untraced blocks with host steal at most its first quartile"
               " + 1 (mean " +
               std::to_string(MeanOf(block_steal, quiet)) + "% vs " +
               std::to_string(MeanOf(block_steal, untraced_blocks)) +
               "% over all)");
  report->Set("setup_s", Median(quiet_setup_s), "s");
  size_t kept_segments = 0;
  size_t segments = 0;
  report->Set("ops_per_s", OpsPerSecond(threads, &kept_segments, &segments),
              "1/s");
  report->Note("ops_per_s: median rate of the " +
               std::to_string(kept_segments) + " of " +
               std::to_string(segments) + " segments of " +
               std::to_string(kSegmentOps) +
               " ops with host steal at most its first quartile + 1");
  for (size_t c = 0; c < kClasses; ++c) {
    report->Set(std::string(ClassName(c)) + "_p50_us",
                Median(quiet_lat.read_us[c]), "us");
  }
  report->Set("peak_rss_mb", peak_rss_mb, "MB");

  // Per-layer numbers shared by every workload.
  report->Set("process.idle_cpu_pct", totals.idle_cpu_pct, "%");
  const double serving_cpu = totals.cpu.process_s - totals.cpu.untimed_s;
  report->Set("process.cpu_us_per_op",
              ops == 0 ? 0.0 : serving_cpu * 1e6 / static_cast<double>(ops),
              "us");
  report->Set("client.error_ratio",
              out->attempted == 0 ? 1.0
                                  : static_cast<double>(out->failed) /
                                        static_cast<double>(out->attempted),
              "ratio");
  report->Set("client.write_p50_us", Median(lat.write_us), "us");
  std::vector<double> all_reads;
  for (const auto& v : lat.read_us) {
    all_reads.insert(all_reads.end(), v.begin(), v.end());
  }
  report->Set("client.read_p99_us", Percentile(all_reads, 0.99), "us");
  report->Set("client.read_samples", static_cast<double>(all_reads.size()),
              "count");
  for (size_t c = 0; c < kClasses; ++c) {
    const std::string cls = ClassName(c);
    report->Set("tail." + cls + "_p99_us", Percentile(lat.read_us[c], 0.99),
                "us");
    report->Set("tail." + cls + "_samples",
                static_cast<double>(lat.read_us[c].size()), "count");
    report->Set("serve.rows_per_query." + cls,
                answers[c] == 0 ? 0.0
                                : static_cast<double>(rows[c]) /
                                      static_cast<double>(answers[c]),
                "count");
  }
  report->Set("tail.write_p99_us", Percentile(lat.write_us, 0.99), "us");
  report->Set("tail.write_samples", static_cast<double>(lat.write_us.size()),
              "count");
  report->Set("obs.trace_overhead_pct",
              totals.phases.trace ? TraceOverheadPct(threads) : 0.0, "%");
}

void ReportCache(const kg::serve::ShardedLruCache& cache, Report* report) {
  const kg::serve::ShardedLruCache::Counters counters = cache.counters();
  report->Set("serve.cache_hit_ratio", counters.HitRate(), "ratio");
  report->Set("serve.cache_evictions", static_cast<double>(counters.evictions),
              "count");
  report->Set("serve.cache_invalidations",
              static_cast<double>(counters.invalidations), "count");
}

double MeasureIdleCpuPct(double seconds) {
  const double cpu0 = ProcessCpuSeconds();
  const double t0 = NowSeconds();
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  const double wall = NowSeconds() - t0;
  return (ProcessCpuSeconds() - cpu0) / wall * 100.0;
}

std::vector<std::pair<std::string, std::string>> EndToEndCatalog() {
  std::vector<std::pair<std::string, std::string>> out = {
      {"setup_s", "s"}, {"ops_per_s", "1/s"}};
  for (size_t c = 0; c < kClasses; ++c) {
    out.push_back({std::string(ClassName(c)) + "_p50_us", "us"});
  }
  out.push_back({"peak_rss_mb", "MB"});
  return out;
}

std::vector<std::pair<std::string, std::string>> PerLayerCatalog() {
  std::vector<std::pair<std::string, std::string>> out;
  auto per_class = [&out](const std::string& prefix, const std::string& unit,
                          const std::string& suffix = "") {
    for (size_t c = 0; c < kClasses; ++c) {
      out.push_back({prefix + ClassName(c) + suffix, unit});
    }
  };
  out.push_back({"host.cpu_probe_ms", "ms"});
  out.push_back({"host.mem_probe_ms", "ms"});
  out.push_back({"host.steal_pct", "%"});
  out.push_back({"process.idle_cpu_pct", "%"});
  out.push_back({"process.cpu_us_per_op", "us"});
  out.push_back({"client.write_p50_us", "us"});
  out.push_back({"client.read_p99_us", "us"});
  out.push_back({"client.read_samples", "count"});
  out.push_back({"client.error_ratio", "ratio"});
  per_class("client.observed_us.", "us");
  per_class("client.residual_us.", "us");
  per_class("rpc.rtt_us.", "us");
  per_class("rpc.handler_us.", "us");
  per_class("rpc.self_us.", "us");
  out.push_back({"rpc.requests_shed", "count"});
  out.push_back({"rpc.frame_errors", "count"});
  per_class("store.execute_us.", "us");
  out.push_back({"store.merged_read_ratio", "ratio"});
  out.push_back({"store.delta_size_mean", "count"});
  out.push_back({"store.apply_us", "us"});
  out.push_back({"store.wal_bytes_per_user_byte", "ratio"});
  out.push_back({"store.compact_ms", "ms"});
  out.push_back({"store.compactions", "count"});
  out.push_back({"serve.cache_hit_ratio", "ratio"});
  out.push_back({"serve.cache_evictions", "count"});
  out.push_back({"serve.cache_invalidations", "count"});
  per_class("serve.rows_per_query.", "count");
  per_class("cluster.route_us.", "us");
  per_class("cluster.route_self_us.", "us");
  // A point lookup reaches one shard: it never fans out.
  for (size_t c = 0; c < kClasses; ++c) {
    if (c == static_cast<size_t>(kg::serve::QueryKind::kPointLookup)) continue;
    out.push_back({std::string("cluster.fanout_us.") + ClassName(c), "us"});
  }
  out.push_back({"cluster.failovers", "count"});
  out.push_back({"cluster.stale_rejects", "count"});
  out.push_back({"cluster.shed", "count"});
  out.push_back({"cluster.replica_catchup_ms", "ms"});
  out.push_back({"cluster.replica_lag_bytes_max", "B"});
  per_class("tail.", "us", "_p99_us");
  per_class("tail.", "count", "_samples");
  out.push_back({"tail.write_p99_us", "us"});
  out.push_back({"tail.write_samples", "count"});
  out.push_back({"obs.trace_overhead_pct", "%"});
  return out;
}

}  // namespace kgbench
