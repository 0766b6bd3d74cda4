// The three workloads and the closed-loop client loop they share.
//
// A run has three phases on every client thread: a warm-up (caches fill,
// nothing recorded), the measured window, and, in a traced run, an idle
// window with the servers still up. The measured window is split into
// 0.5 s blocks. A traced run alternates untraced and traced blocks: the
// untraced blocks give the client-side and tail numbers and the tracing
// overhead, the traced blocks give the per-layer spans.
//
// The closed-loop rate is measured over segments of a fixed number of
// ops per client instead of time blocks: wherever a segment starts, it
// holds the same number of writes and, in the workloads that compact,
// exactly one compaction, so the median over segments charges every
// compaction once instead of following how many the kept blocks caught.
//
// The host's hypervisor takes CPU time from this guest in bursts of a
// few seconds (steal time), which stretches every sleep and wake-up the
// serving path makes. So the end-to-end figures come from the untraced
// blocks, the segments and the set-ups whose steal is at most one point
// above the first quartile of theirs: all of them in a quiet run, the
// least disturbed quarter in a disturbed one.
// The tails and the steal itself are reported from all of them.

#ifndef KGBENCH_WORKLOADS_H_
#define KGBENCH_WORKLOADS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "kgbench/measure.h"
#include "kgbench/world.h"
#include "rpc/client.h"
#include "rpc/server.h"

namespace kgbench {

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool inject_wrong_answer = false;
  /// Directory for the run's files (WALs); inside the checkout.
  std::string work_dir;
};

/// Set-ups per run; setup_s is the median of the least disturbed ones.
inline constexpr int kSetups = 7;

/// Measured ops per client in one segment of the closed-loop rate.
inline constexpr uint64_t kSegmentOps = 2500;

/// Per-layer span durations (microseconds) of one run, by layer name and
/// query class. Filled only during traced blocks.
class Spans {
 public:
  void Add(const std::string& layer, size_t cls, double us);
  void Merge(const Spans& other);
  /// Median duration, 0 when the layer recorded nothing for `cls`.
  double P50(const std::string& layer, size_t cls) const;
  std::vector<double> Samples(const std::string& layer, size_t cls) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::array<std::vector<double>, kClasses>> us_;
};

struct Phases;

/// The wire every workload's reads cross: an RpcServer on TCP loopback
/// fronting a handler, and handshaken client connections.
struct FrontDoor {
  std::unique_ptr<kg::rpc::RpcServer> server;
  std::vector<std::unique_ptr<kg::rpc::RpcClient>> clients;
};

/// Null when listening, starting the server or a handshake fails.
std::unique_ptr<FrontDoor> OpenFrontDoor(kg::rpc::QueryHandler handler,
                                         size_t workers, size_t connections);

/// The server side of a traced run: a wrapped handler records its own
/// duration under `layer` in traced blocks, once Arm has been given the
/// run's phases.
class HandlerTrace {
 public:
  kg::rpc::QueryHandler Wrap(kg::rpc::QueryHandler inner, std::string layer);
  /// Starts (phases) or stops (nullptr) recording.
  void Arm(const Phases* phases);
  const Spans& spans() const { return spans_; }

 private:
  std::atomic<const Phases*> phases_{nullptr};
  Spans spans_;
};

/// What one client thread measured.
struct ThreadResult {
  /// Latencies per block of the measured window (untraced blocks only).
  std::vector<Latencies> blocks;
  uint64_t traced_ops = 0;  ///< Ops completed in traced blocks.
  uint64_t attempted = 0;   ///< Ops issued in the measured window.
  uint64_t errors = 0;      ///< Failed or refused ops.
  std::array<uint64_t, kClasses> rows{};   ///< Answer rows per class.
  std::array<uint64_t, kClasses> answers{};
  /// Ops and time in calls per block of the measured window.
  std::vector<double> block_ops;
  std::vector<double> block_busy_s;
  /// Ops per second in calls, and host steal, of each full segment of
  /// kSegmentOps measured ops; of the partial one when none is full.
  std::vector<double> segment_rate;
  std::vector<double> segment_steal_pct;
  Spans spans;
};

/// The outcome of one op as the client loop sees it.
struct OpOutcome {
  double us = 0.0;     ///< Client-observed latency of the timed call.
  bool ok = true;      ///< False for a failed or refused op.
  size_t rows = 0;     ///< Answer rows (reads).
};

/// Runs one op: performs the timed call (recording layer spans into the
/// given Spans when non-null) and any untimed bookkeeping.
using OpRunner = std::function<OpOutcome(const Op& op, Spans* spans)>;

/// The phase clock every thread of a run shares.
struct Phases {
  double warm_end = 0.0;
  double measure_end = 0.0;
  double block_s = 0.5;  ///< Traced runs alternate blocks of this length.
  bool trace = false;
  /// Index of the block of the measured window `now` falls in.
  size_t BlockAt(double now) const;
  /// True when `now` falls in a traced block of the measured window.
  bool TracedAt(double now) const;
};

Phases MakePhases(const RunOptions& options);

/// Drives one closed-loop client: pulls ops from `stream` in chunks
/// (generated outside the timed region) and runs them until the
/// measured window ends. `stop` ends the loop early (a broken client).
void DriveClient(const Phases& phases, OpStream& stream, UntimedCpu& untimed,
                 const OpRunner& run, const std::function<bool()>& stop,
                 ThreadResult* out);

/// CPU accounting of the measured window.
struct WindowCpu {
  double process_s = 0.0;  ///< Process CPU, all threads.
  double untimed_s = 0.0;  ///< Client CPU outside the timed region.
  std::vector<double> block_steal_pct;  ///< Host steal per block.
};

/// Runs each body on its own client thread and samples CPU at the
/// window's edges, and host steal at each block's, from the calling
/// thread. `at_warm_end` runs when the
/// warm-up ends (counter resets). Returns after every body has ended.
WindowCpu RunClients(const Phases& phases, const UntimedCpu& untimed,
                     const std::vector<std::function<void()>>& bodies,
                     const std::function<void()>& at_warm_end);

/// Result of a workload: the report plus the error accounting.
struct Outcome {
  Report report;
  uint64_t attempted = 0;
  uint64_t failed = 0;  ///< Failed or refused ops plus wrong answers.
  bool correct = true;
};

/// What a workload hands to ReportCommon.
struct RunTotals {
  Phases phases;
  std::vector<double> setup_s;
  std::vector<double> setup_steal_pct;  ///< Host steal during each set-up.
  const std::vector<ThreadResult>* threads = nullptr;
  WindowCpu cpu;
  double idle_cpu_pct = 0.0;
  uint64_t wrong_answers = 0;
};

/// Fills `out` from the thread results: the error accounting, the
/// end-to-end metrics, and the per-layer ones every workload shares
/// (client, tail, tracing overhead). Layer-specific metrics are the
/// workload's.
void ReportCommon(const RunTotals& totals, Outcome* out);

/// Builds a workload's rig kSetups times (tearing the previous one down
/// first), keeps the last, and records each build's wall time and host
/// steal in `*totals`. Null when a build fails.
template <typename Build>
auto SetUpRepeatedly(const Build& build, RunTotals* totals)
    -> decltype(build()) {
  decltype(build()) rig;
  for (int i = 0; i < kSetups; ++i) {
    rig.reset();
    const CpuTicks ticks = ReadCpuTicks();
    const double t0 = NowSeconds();
    rig = build();
    totals->setup_s.push_back(NowSeconds() - t0);
    totals->setup_steal_pct.push_back(StealPct(ticks, ReadCpuTicks()));
    if (rig == nullptr) break;
  }
  return rig;
}

/// One read over the wire. The client observes the answer once it holds
/// its rows; the "rpc.rtt" span (traced blocks) covers the call alone.
/// The answer lands in `*answer` when the call succeeds.
OpOutcome RemoteRead(kg::rpc::RpcClient& client, const kg::serve::Query& query,
                     Spans* spans, kg::serve::QueryResult* answer);

/// The per-layer client and rpc numbers: client.observed/residual and
/// rpc.rtt/handler/self per class from the merged spans (the handler's
/// spans recorded under `handler_layer`), plus the server's counters.
void ReportRpc(const Spans& spans, const std::string& handler_layer,
               const kg::rpc::RpcServer& server, Report* report);

/// Reports the result cache's counters as serve.cache_*.
void ReportCache(const kg::serve::ShardedLruCache& cache, Report* report);

/// Sleeps through a fixed idle window and returns the process CPU used
/// during it, as a percentage of one core.
double MeasureIdleCpuPct(double seconds);

Outcome RunRemoteRead(const RunOptions& options);
Outcome RunStoreChurn(const RunOptions& options);
Outcome RunClusterMix(const RunOptions& options);

/// The per-layer metric names and units every traced run reports; a
/// layer a workload does not cross reports 0.
std::vector<std::pair<std::string, std::string>> PerLayerCatalog();
/// The end-to-end metric names and units every untraced run reports.
std::vector<std::pair<std::string, std::string>> EndToEndCatalog();

}  // namespace kgbench

#endif  // KGBENCH_WORKLOADS_H_
