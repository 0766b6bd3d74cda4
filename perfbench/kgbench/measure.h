// Measurement plumbing shared by the workloads: clocks, CPU accounting,
// latency samples, host probes, the answer checker, and the report that
// prints every metric by name and unit and ends in the JSON result line.

#ifndef KGBENCH_MEASURE_H_
#define KGBENCH_MEASURE_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "serve/query_engine.h"

namespace kgbench {

inline constexpr size_t kClasses = kg::serve::kNumQueryKinds;

/// Canonical class names ("point_lookup", ...), indexed by QueryKind.
const char* ClassName(size_t cls);

double NowSeconds();          ///< steady_clock, seconds.
double ThreadCpuSeconds();    ///< CPU time of the calling thread.
double ProcessCpuSeconds();   ///< user + system time of all threads.
double PeakRssMb();           ///< VmHWM.

/// Host facts recorded with every run.
struct HostInfo {
  unsigned nproc = 0;
  std::string cpu_model;
  std::string build_type;
};
HostInfo ReadHostInfo();

/// A cache-resident dependent arithmetic loop; milliseconds.
double CpuProbeMs();
/// Dependent random reads over a 32 MiB buffer; milliseconds.
double MemProbeMs();

/// Cumulative CPU time of all CPUs, in clock ticks (/proc/stat).
struct CpuTicks {
  uint64_t steal = 0;  ///< Time the hypervisor ran something else.
  uint64_t total = 0;
};
CpuTicks ReadCpuTicks();
/// Steal time between two readings as a percentage of all CPU time.
double StealPct(const CpuTicks& from, const CpuTicks& to);

/// Nearest-rank percentile (q in [0, 1]); 0 for no samples.
double Percentile(std::vector<double> samples, double q);
double Median(std::vector<double> samples);
double Mean(const std::vector<double>& samples);

/// Client-observed latencies of one run, per read class plus writes.
struct Latencies {
  std::array<std::vector<double>, kClasses> read_us;
  std::vector<double> write_us;
  void Append(const Latencies& other);
  size_t reads() const;
};

/// Work that happens on a client thread outside the timed region
/// (generating ops, checking answers, catch-up waits). Its
/// thread CPU time is subtracted from the process CPU of the window, so
/// process.cpu_us_per_op charges only the serving work.
class UntimedCpu {
 public:
  class Scope {
   public:
    explicit Scope(UntimedCpu* owner)
        : owner_(owner), start_(ThreadCpuSeconds()) {}
    ~Scope() { owner_->Add(ThreadCpuSeconds() - start_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    UntimedCpu* owner_;
    double start_;
  };
  void Add(double seconds);
  double seconds() const;

 private:
  std::atomic<int64_t> ns_{0};
};

/// Compares observed answers against a reference. Every mismatch is a
/// wrong answer counted into the run's failures. With `inject` set, the
/// first comparison is deliberately corrupted, which must make the run
/// fail: the benchmark's own test of its checks.
class Checker {
 public:
  explicit Checker(bool inject) : inject_(inject) {}
  /// Returns true when `observed` matches `expected`.
  bool Check(uint64_t observed, uint64_t expected, const std::string& what);
  uint64_t checks() const { return checks_.load(); }
  uint64_t mismatches() const { return mismatches_.load(); }

 private:
  bool inject_;
  std::atomic<uint64_t> checks_{0};
  std::atomic<uint64_t> mismatches_{0};
  std::mutex log_mu_;
};

/// One run's output: named metrics with units, printed one per line and
/// then as the final JSON object.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// A human-readable line printed before the metrics (host facts etc.).
  void Note(const std::string& line);
  bool Has(const std::string& name) const;
  /// Prints the notes and the metrics named in `shown` that were Set,
  /// one per line, then the JSON result line with the metrics named in
  /// `json` (each must have been Set).
  void Print(std::ostream& os, const std::vector<std::string>& shown,
             const std::vector<std::string>& json, bool correct,
             uint64_t attempted, uint64_t failed) const;

 private:
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::vector<std::string> notes_;
  std::map<std::string, Metric> metrics_;
};

}  // namespace kgbench

#endif  // KGBENCH_MEASURE_H_
