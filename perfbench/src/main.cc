// perfbench: one command that runs a named workload from a seed, checks the
// engine's outputs against its own oracle, and prints every metric by name
// and unit. The last line of standard output is the result:
//
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// (and writes the spans to <out-dir>/trace-<workload>.json).
// Diagnostics go to standard error. Exit code 0 only when every check held.
#include <cstdio>
#include <filesystem>
#include <thread>

#include "workloads.h"

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;
  Tracer tracer(args.trace);
  Report report;
  if (!RunCrashWorkload(args, &tracer, &report) &&
      !RunCommitWorkload(args, &tracer, &report)) {
    std::fprintf(stderr, "unknown workload '%s' (expected paper-512mb, "
                         "window-100k-parallel, commit-4clients or "
                         "commit-4clients-grouped)\n",
                 args.workload.c_str());
    return 2;
  }
  std::fprintf(stderr, "workload %s seed %llu, %u hardware threads; all metrics:\n%s",
               args.workload.c_str(), static_cast<unsigned long long>(args.seed),
               std::thread::hardware_concurrency(), report.AllMetricsText().c_str());
  if (args.trace) {
    std::error_code ec;
    std::filesystem::create_directories(args.out_dir, ec);
    // One file per workload: a later traced run replaces it, so repeated
    // runs cannot fill the disk.
    const std::string path = args.out_dir + "/trace-" + args.workload + ".json";
    if (!tracer.WriteJson(path)) {
      std::fprintf(stderr, "could not write %s\n", path.c_str());
    }
  }
  if (report.attempted == 0) report.Fail("no operation was attempted");
  std::printf("%s\n", report.ResultJson(args.trace).c_str());
  return report.correct() ? 0 : 1;
}
