// store_churn: one closed-loop client against a VersionedKgStore with a
// WAL and a small result cache: 90% reads over the same TCP front door as
// remote_read, every tenth op a write (Zipf-head upserts and retractions)
// applied by the client in-process, and a compaction every 250 writes,
// run by the write that reaches the count and timed as part of it. The
// overlay, the WAL, compaction and cache invalidation do the work. Every
// received answer is compared with the store's own uncached answer; at
// checkpoints the store's answers are also compared with a freshly
// compiled snapshot of an oracle graph that applied the same mutations,
// and the final authoritative fingerprint must equal the oracle's.

#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "graph/knowledge_graph.h"
#include "kgbench/workloads.h"
#include "serve/snapshot.h"
#include "store/versioned_store.h"

namespace kgbench {

namespace {

constexpr uint64_t kWriteEvery = 10;  // 10% writes
constexpr size_t kCacheCapacity = 2048;
// One compaction per segment of the closed-loop rate.
constexpr uint64_t kCompactEveryWrites = kSegmentOps / kWriteEvery;
static_assert(kCompactEveryWrites * kWriteEvery == kSegmentOps);
constexpr uint64_t kCheckEveryWrites = 2500;
constexpr size_t kProbesPerCheckpoint = 64;
constexpr size_t kWorkers = 2;

struct Rig {
  kg::graph::KnowledgeGraph oracle;
  std::unique_ptr<kg::store::VersionedKgStore> store;
  std::unique_ptr<FrontDoor> door;  // last: its handler uses the store
};

std::unique_ptr<Rig> BuildRig(const RunOptions& options,
                              const std::string& wal_path,
                              HandlerTrace* trace) {
  auto rig = std::make_unique<Rig>();
  std::filesystem::remove(wal_path);
  rig->oracle = BuildWorldKg(options.seed);
  kg::store::StoreOptions store_options;
  store_options.wal_path = wal_path;
  store_options.cache_capacity = kCacheCapacity;
  auto store = kg::store::VersionedKgStore::Open(rig->oracle, store_options);
  if (!store.ok()) return nullptr;
  rig->store = std::move(*store);
  kg::rpc::QueryHandler handler = kg::rpc::StoreHandler(rig->store.get());
  if (options.trace) handler = trace->Wrap(std::move(handler), "store.execute");
  rig->door = OpenFrontDoor(std::move(handler), kWorkers, 1);
  return rig->door == nullptr ? nullptr : std::move(rig);
}

}  // namespace

Outcome RunStoreChurn(const RunOptions& options) {
  Outcome out;
  HandlerTrace trace;
  RunTotals totals;
  const std::string wal_path = options.work_dir + "/store_churn.wal";
  std::unique_ptr<Rig> rig = SetUpRepeatedly(
      [&] { return BuildRig(options, wal_path, &trace); }, &totals);
  if (rig == nullptr) return out;
  kg::store::VersionedKgStore& store = *rig->store;
  kg::rpc::RpcClient& client = *rig->door->clients[0];

  Checker checker(options.inject_wrong_answer);
  UntimedCpu untimed;
  std::vector<ThreadResult> threads(1);
  uint64_t writes = 0;
  uint64_t user_bytes = 0;  // measured window only, like wal_bytes
  uint64_t wal_bytes = 0;
  std::vector<double> compact_ms;
  std::vector<double> delta_sizes;  // sampled before traced reads
  uint64_t merged_reads = 0;
  std::vector<kg::serve::Query> recent;  // checkpoint probes
  size_t recent_next = 0;

  // Received answers awaiting their check against the store's uncached
  // answer. Only a write changes the answers, so the batch is checked
  // before the next write and at the end.
  std::vector<std::pair<kg::serve::Query, uint64_t>> pending;
  auto check_pending = [&] {
    UntimedCpu::Scope scope(&untimed);
    const auto epoch = store.PinEpoch();
    for (const auto& [query, hash] : pending) {
      checker.Check(hash, AnswerHash(store.ExecuteAt(*epoch, query)),
                    "store_churn " + query.CacheKey());
    }
    pending.clear();
  };

  // Overlay-vs-rebuild: the store must answer exactly as a fresh
  // compile of the oracle.
  auto checkpoint = [&] {
    const kg::serve::KgSnapshot rebuilt =
        kg::serve::KgSnapshot::Compile(rig->oracle);
    const kg::serve::QueryEngine engine(rebuilt);
    for (const kg::serve::Query& q : recent) {
      checker.Check(AnswerHash(store.Execute(q)),
                    AnswerHash(engine.ExecuteUncached(q)),
                    "store_churn rebuild " + q.CacheKey());
    }
  };

  const Phases phases = MakePhases(options);
  trace.Arm(&phases);
  const OpRunner run = [&](const Op& op, Spans* spans) {
    OpOutcome o;
    if (!op.is_write) {
      if (spans != nullptr) {
        const size_t delta = store.delta_size();
        delta_sizes.push_back(static_cast<double>(delta));
        if (delta > 0) ++merged_reads;
      }
      kg::serve::QueryResult answer;
      o = RemoteRead(client, op.query, spans, &answer);
      if (!o.ok) return o;
      UntimedCpu::Scope scope(&untimed);
      pending.emplace_back(op.query, AnswerHash(answer));
      if (recent.size() < kProbesPerCheckpoint) {
        recent.push_back(op.query);
      } else {
        recent[recent_next++ % kProbesPerCheckpoint] = op.query;
      }
      return o;
    }
    check_pending();
    const uint64_t wal_before = store.wal()->size_bytes();
    const double t0 = NowSeconds();
    const kg::Status st = store.Apply(op.mutation);
    const double t1 = NowSeconds();
    o.ok = st.ok();
    if (o.ok && ++writes % kCompactEveryWrites == 0) {
      const auto stats = store.Compact();
      if (stats.ran) compact_ms.push_back(stats.seconds * 1e3);
    }
    o.us = (NowSeconds() - t0) * 1e6;
    if (spans != nullptr) spans->Add("store.apply", 0, (t1 - t0) * 1e6);
    if (!o.ok) return o;
    UntimedCpu::Scope scope(&untimed);
    if (t0 >= phases.warm_end) {
      user_bytes += UserBytes(op.mutation);
      wal_bytes += store.wal()->size_bytes() - wal_before;
    }
    ApplyToKg(&rig->oracle, op.mutation);
    if (writes % kCheckEveryWrites == 0) checkpoint();
    return o;
  };
  const std::vector<std::function<void()>> bodies = {[&] {
    OpStream stream(kWriteEvery, options.seed, 0);
    DriveClient(phases, stream, untimed, run,
                [&client] { return !client.healthy(); }, &threads[0]);
  }};
  totals.cpu = RunClients(phases, untimed, bodies,
                          [&] { store.cache()->ResetCounters(); });
  if (options.trace) totals.idle_cpu_pct = MeasureIdleCpuPct(1.0);
  trace.Arm(nullptr);

  // Settle: the last answers, a last probe and the fingerprint identity.
  check_pending();
  checkpoint();
  checker.Check(store.AuthoritativeFingerprint(),
                kg::graph::TripleSetFingerprint(rig->oracle),
                "store_churn authoritative fingerprint");

  totals.phases = phases;
  totals.threads = &threads;
  totals.wrong_answers = checker.mismatches();
  ReportCommon(totals, &out);

  // Per-layer: client -> rpc (round trip) -> store (the handler); the
  // client's writes call the store directly.
  Report& r = out.report;
  Spans spans;
  spans.Merge(threads[0].spans);
  spans.Merge(trace.spans());
  ReportRpc(spans, "store.execute", *rig->door->server, &r);
  for (size_t c = 0; c < kClasses; ++c) {
    r.Set(std::string("store.execute_us.") + ClassName(c),
          spans.P50("store.execute", c), "us");
  }
  r.Set("store.merged_read_ratio",
        delta_sizes.empty() ? 0.0
                            : static_cast<double>(merged_reads) /
                                  static_cast<double>(delta_sizes.size()),
        "ratio");
  r.Set("store.delta_size_mean", Mean(delta_sizes), "count");
  r.Set("store.apply_us", spans.P50("store.apply", 0), "us");
  r.Set("store.wal_bytes_per_user_byte",
        user_bytes == 0 ? 0.0
                        : static_cast<double>(wal_bytes) /
                              static_cast<double>(user_bytes),
        "ratio");
  r.Set("store.compact_ms", Median(compact_ms), "ms");
  r.Set("store.compactions", static_cast<double>(compact_ms.size()), "count");
  ReportCache(*store.cache(), &r);
  r.Note("store_churn: " + std::to_string(writes) + " writes, " +
         std::to_string(compact_ms.size()) + " compactions, " +
         std::to_string(checker.checks()) + " answers compared");
  rig.reset();
  std::filesystem::remove(wal_path);
  return out;
}

}  // namespace kgbench
