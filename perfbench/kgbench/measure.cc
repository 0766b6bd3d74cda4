#include "kgbench/measure.h"

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <numeric>
#include <sstream>

#include "obs/memory.h"

#ifndef KGBENCH_BUILD_TYPE
#define KGBENCH_BUILD_TYPE "unknown"
#endif

namespace kgbench {

const char* ClassName(size_t cls) {
  return kg::serve::QueryKindName(static_cast<kg::serve::QueryKind>(cls));
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

double PeakRssMb() {
  return static_cast<double>(kg::obs::ReadProcessMemory().peak_bytes) /
         (1024.0 * 1024.0);
}

HostInfo ReadHostInfo() {
  HostInfo info;
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  info.nproc = n > 0 ? static_cast<unsigned>(n) : 0;
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) info.cpu_model = line.substr(colon + 2);
      break;
    }
  }
  if (info.cpu_model.empty()) info.cpu_model = "unknown";
  info.build_type = KGBENCH_BUILD_TYPE;
  return info;
}

namespace {
// Probe results land here so the loops cannot be optimized away.
volatile uint64_t g_probe_sink = 0;
}  // namespace

double CpuProbeMs() {
  const double start = NowSeconds();
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (int i = 0; i < 30'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  g_probe_sink = x;
  return (NowSeconds() - start) * 1e3;
}

double MemProbeMs() {
  // One random cycle through 4M slots (32 MiB), built once per process:
  // every load depends on the previous one and almost all miss the
  // caches.
  constexpr size_t kSlots = size_t{1} << 22;
  static const std::vector<uint32_t> next = [] {
    std::vector<uint32_t> v(kSlots);
    std::iota(v.begin(), v.end(), 0u);
    uint64_t state = 0x2545f4914f6cdd1dULL;
    for (size_t i = kSlots - 1; i > 0; --i) {  // Sattolo: a single cycle
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      std::swap(v[i], v[(state >> 33) % i]);
    }
    return v;
  }();
  const double start = NowSeconds();
  uint32_t at = 0;
  for (size_t i = 0; i < 1'000'000; ++i) at = next[at];
  g_probe_sink = at;
  return (NowSeconds() - start) * 1e3;
}

CpuTicks ReadCpuTicks() {
  // "cpu  user nice system idle iowait irq softirq steal guest guest_nice"
  CpuTicks ticks;
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  for (int field = 0; field < 8 && stat; ++field) {
    uint64_t value = 0;
    stat >> value;
    ticks.total += value;
    if (field == 7) ticks.steal = value;
  }
  return ticks;
}

double StealPct(const CpuTicks& from, const CpuTicks& to) {
  const uint64_t total = to.total - from.total;
  return total == 0 ? 0.0
                    : static_cast<double>(to.steal - from.steal) * 100.0 /
                          static_cast<double>(total);
}

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  rank = rank == 0 ? 0 : rank - 1;
  std::nth_element(samples.begin(), samples.begin() + rank, samples.end());
  return samples[rank];
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 0.5);
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

void Latencies::Append(const Latencies& other) {
  for (size_t c = 0; c < kClasses; ++c) {
    read_us[c].insert(read_us[c].end(), other.read_us[c].begin(),
                      other.read_us[c].end());
  }
  write_us.insert(write_us.end(), other.write_us.begin(),
                  other.write_us.end());
}

size_t Latencies::reads() const {
  size_t n = 0;
  for (const auto& v : read_us) n += v.size();
  return n;
}

void UntimedCpu::Add(double seconds) {
  ns_.fetch_add(static_cast<int64_t>(seconds * 1e9),
                std::memory_order_relaxed);
}

double UntimedCpu::seconds() const {
  return static_cast<double>(ns_.load(std::memory_order_relaxed)) * 1e-9;
}

bool Checker::Check(uint64_t observed, uint64_t expected,
                    const std::string& what) {
  const uint64_t n = checks_.fetch_add(1);
  if (inject_ && n == 0) observed = ~observed;
  if (observed == expected) return true;
  if (mismatches_.fetch_add(1) < 5) {
    std::lock_guard<std::mutex> lock(log_mu_);
    std::cerr << "WRONG ANSWER: " << what << "\n";
  }
  return false;
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  metrics_[name] = {value, unit};
}

void Report::Note(const std::string& line) { notes_.push_back(line); }

bool Report::Has(const std::string& name) const {
  return metrics_.count(name) != 0;
}

void Report::Print(std::ostream& os, const std::vector<std::string>& shown,
                   const std::vector<std::string>& json, bool correct,
                   uint64_t attempted, uint64_t failed) const {
  for (const std::string& note : notes_) os << note << "\n";
  char buf[64];
  for (const std::string& name : shown) {
    if (!Has(name)) continue;
    const Metric& m = metrics_.at(name);
    std::snprintf(buf, sizeof(buf), "%.6g", m.value);
    os << "  " << name << " = " << buf << " " << m.unit << "\n";
  }
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (size_t i = 0; i < json.size(); ++i) {
    const Metric& m = metrics_.at(json[i]);
    std::snprintf(buf, sizeof(buf), "%.17g", m.value);
    os << (i ? ", " : "") << "\"" << json[i] << "\": {\"value\": " << buf
       << ", \"unit\": \"" << m.unit << "\"}";
  }
  os << "}}" << std::endl;
}

}  // namespace kgbench
