// kgbench: the serving benchmark. One seeded workload per run, measured
// for a fixed number of seconds, every answer checked; prints each
// metric with its unit and ends with one JSON result line.
//
//   kgbench --workload remote_read|store_churn|cluster_mix --seed N
//           --seconds S --trace 0|1 [--work-dir DIR] [--inject-wrong-answer]
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
// ones. --inject-wrong-answer corrupts the first answer comparison; the
// run must then fail (exit 1). Exit 2 is a usage or set-up error.

#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "kgbench/measure.h"
#include "kgbench/workloads.h"

namespace {

using namespace kgbench;  // NOLINT

int Usage(const std::string& why) {
  std::cerr << "kgbench: " << why
            << "\nusage: kgbench --workload remote_read|store_churn|"
               "cluster_mix --seed N --seconds S --trace 0|1 "
               "[--work-dir DIR] [--inject-wrong-answer]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  RunOptions options;
  options.work_dir = ".";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (arg == "--workload") {
      workload = value();
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::atof(value().c_str());
    } else if (arg == "--trace") {
      options.trace = value() == "1";
    } else if (arg == "--work-dir") {
      options.work_dir = value();
    } else if (arg == "--inject-wrong-answer") {
      options.inject_wrong_answer = true;
    } else {
      return Usage("unknown argument " + arg);
    }
  }
  if (options.seconds <= 0.0) return Usage("--seconds must be positive");
  Outcome (*run)(const RunOptions&) = nullptr;
  if (workload == "remote_read") run = RunRemoteRead;
  if (workload == "store_churn") run = RunStoreChurn;
  if (workload == "cluster_mix") run = RunClusterMix;
  if (run == nullptr) return Usage("unknown workload '" + workload + "'");
  std::filesystem::create_directories(options.work_dir);

  const HostInfo host = ReadHostInfo();
  const double cpu_probe_start = CpuProbeMs();
  const double mem_probe_start = MemProbeMs();
  const CpuTicks ticks_start = ReadCpuTicks();
  Outcome outcome = run(options);
  const double steal_pct = StealPct(ticks_start, ReadCpuTicks());
  const double cpu_probe_end = CpuProbeMs();
  const double mem_probe_end = MemProbeMs();
  if (outcome.attempted == 0) {
    std::cerr << "kgbench: " << workload << " set-up failed or ran no ops\n";
    return 2;
  }

  Report& report = outcome.report;
  report.Note("workload " + workload + " seed " +
              std::to_string(options.seed) + " seconds " +
              std::to_string(options.seconds) + " trace " +
              (options.trace ? "1" : "0"));
  report.Note("host nproc " + std::to_string(host.nproc) + " cpu '" +
              host.cpu_model + "' build " + host.build_type);
  report.Note("host.cpu_probe_ms start " + std::to_string(cpu_probe_start) +
              " end " + std::to_string(cpu_probe_end) +
              "; host.mem_probe_ms start " + std::to_string(mem_probe_start) +
              " end " + std::to_string(mem_probe_end));
  report.Set("host.cpu_probe_ms", (cpu_probe_start + cpu_probe_end) / 2.0,
             "ms");
  report.Set("host.mem_probe_ms", (mem_probe_start + mem_probe_end) / 2.0,
             "ms");
  report.Set("host.steal_pct", steal_pct, "%");

  std::vector<std::string> json;
  const auto catalog = options.trace ? PerLayerCatalog() : EndToEndCatalog();
  for (const auto& [name, unit] : catalog) {
    // A layer the workload does not cross reports 0; an end-to-end
    // metric is always measured.
    if (!report.Has(name)) {
      if (!options.trace) {
        std::cerr << "kgbench: end-to-end metric " << name << " missing\n";
        return 2;
      }
      report.Set(name, 0.0, unit);
    }
    json.push_back(name);
  }
  report.Note("errors: " + std::to_string(outcome.failed) + " of " +
              std::to_string(outcome.attempted) + " ops failed, were refused "
              "or answered wrong");
  std::vector<std::string> shown = json;
  if (!options.trace) {
    // The client-side numbers an untraced run also measures.
    for (const char* name :
         {"process.cpu_us_per_op", "client.write_p50_us", "client.read_p99_us",
          "client.read_samples", "client.error_ratio", "host.cpu_probe_ms",
          "host.mem_probe_ms", "host.steal_pct"}) {
      shown.push_back(name);
    }
  }
  report.Print(std::cout, shown, json, outcome.correct, outcome.attempted,
               outcome.failed);
  return outcome.correct ? 0 : 1;
}
