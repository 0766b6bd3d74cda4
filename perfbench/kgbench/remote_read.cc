// remote_read: read-only traffic over TCP loopback to one
// VersionedKgStore (empty delta, result cache on) behind an RpcServer
// with two workers, from two closed-loop client connections. The rpc
// layer does most of the work and the store overlay none; the hot set
// fits the result cache. Every remote answer is checked against the
// in-process, uncached answer of the same store.

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "kgbench/workloads.h"
#include "store/versioned_store.h"

namespace kgbench {

namespace {

constexpr size_t kConnections = 2;
constexpr size_t kWorkers = 2;
constexpr size_t kCacheCapacity = 16384;

struct Rig {
  std::unique_ptr<kg::store::VersionedKgStore> store;
  std::unique_ptr<FrontDoor> door;  // last: its handler uses the store
};

std::unique_ptr<Rig> BuildRig(const RunOptions& options,
                              HandlerTrace* trace) {
  auto rig = std::make_unique<Rig>();
  kg::store::StoreOptions store_options;
  store_options.cache_capacity = kCacheCapacity;
  auto store = kg::store::VersionedKgStore::Open(BuildWorldKg(options.seed),
                                                 store_options);
  if (!store.ok()) return nullptr;
  rig->store = std::move(*store);
  kg::rpc::QueryHandler handler = kg::rpc::StoreHandler(rig->store.get());
  if (options.trace) handler = trace->Wrap(std::move(handler), "store.execute");
  rig->door = OpenFrontDoor(std::move(handler), kWorkers, kConnections);
  return rig->door == nullptr ? nullptr : std::move(rig);
}

}  // namespace

Outcome RunRemoteRead(const RunOptions& options) {
  Outcome out;
  HandlerTrace trace;
  RunTotals totals;
  std::unique_ptr<Rig> rig = SetUpRepeatedly(
      [&] { return BuildRig(options, &trace); }, &totals);
  if (rig == nullptr) return out;

  // The reference: the same store's uncached answer at its (only) epoch,
  // computed once per distinct query outside the timed region.
  const auto epoch = rig->store->PinEpoch();
  std::mutex memo_mu;
  std::unordered_map<std::string, uint64_t> expected;
  auto expected_hash = [&](const kg::serve::Query& q) {
    const std::string key = q.CacheKey();
    {
      std::lock_guard<std::mutex> lock(memo_mu);
      const auto it = expected.find(key);
      if (it != expected.end()) return it->second;
    }
    const uint64_t h = AnswerHash(rig->store->ExecuteAt(*epoch, q));
    std::lock_guard<std::mutex> lock(memo_mu);
    expected.emplace(key, h);
    return h;
  };

  Checker checker(options.inject_wrong_answer);
  UntimedCpu untimed;
  std::vector<ThreadResult> threads(kConnections);
  const Phases phases = MakePhases(options);
  trace.Arm(&phases);
  std::vector<std::function<void()>> bodies;
  for (size_t c = 0; c < kConnections; ++c) {
    bodies.push_back([&, c] {
      kg::rpc::RpcClient& client = *rig->door->clients[c];
      OpStream stream(0, options.seed, c);
      const OpRunner run = [&](const Op& op, Spans* spans) {
        kg::serve::QueryResult answer;
        const OpOutcome o = RemoteRead(client, op.query, spans, &answer);
        if (o.ok) {
          UntimedCpu::Scope scope(&untimed);
          checker.Check(AnswerHash(answer), expected_hash(op.query),
                        "remote_read " + op.query.CacheKey());
        }
        return o;
      };
      DriveClient(phases, stream, untimed, run,
                  [&client] { return !client.healthy(); }, &threads[c]);
    });
  }
  totals.cpu = RunClients(phases, untimed, bodies, [&] {
    rig->store->cache()->ResetCounters();
  });
  if (options.trace) totals.idle_cpu_pct = MeasureIdleCpuPct(1.0);
  trace.Arm(nullptr);

  totals.phases = phases;
  totals.threads = &threads;
  totals.wrong_answers = checker.mismatches();
  ReportCommon(totals, &out);

  // Per-layer: client -> rpc (round trip) -> store (the handler).
  Report& r = out.report;
  Spans spans;
  for (const ThreadResult& t : threads) spans.Merge(t.spans);
  spans.Merge(trace.spans());
  ReportRpc(spans, "store.execute", *rig->door->server, &r);
  for (size_t c = 0; c < kClasses; ++c) {
    r.Set(std::string("store.execute_us.") + ClassName(c),
          spans.P50("store.execute", c), "us");
  }
  ReportCache(*rig->store->cache(), &r);
  r.Note("remote_read: " + std::to_string(kConnections) +
         " TCP connections, " + std::to_string(kWorkers) +
         " server workers, " + std::to_string(expected.size()) +
         " distinct queries checked, " + std::to_string(checker.checks()) +
         " answers compared");
  return out;
}

}  // namespace kgbench
