// perfbench: the repository benchmark program.
//
//   perfbench --workload head|churn --seed N --seconds S --trace 0|1
//             [--shards 4] [--pool-threads 2] [--scale full|tiny]
//             [--out-dir DIR] [--corrupt-result]
//
// Generates the workload from the seed, builds the index through the
// public API, runs it (untraced: closed loop, end-to-end metrics; traced:
// the per-layer ladder) and prints one JSON result object as the last
// line of standard output.  perfbench/run.py builds and invokes it.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "bench.h"

namespace {

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr, "perfbench: %s\n", why);
  std::exit(2);
}

perfbench::Options Parse(int argc, char** argv) {
  perfbench::Options opt;
  opt.nproc = std::max(1u, std::thread::hardware_concurrency());
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      opt.workload = value();
    } else if (arg == "--seed") {
      opt.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      opt.seconds = std::stod(value());
    } else if (arg == "--trace") {
      opt.trace = value() != "0";
    } else if (arg == "--shards") {
      opt.shards = std::stoul(value());
    } else if (arg == "--pool-threads") {
      opt.pool_threads = std::stoul(value());
    } else if (arg == "--scale") {
      opt.scale = value();
    } else if (arg == "--out-dir") {
      opt.out_dir = value();
    } else if (arg == "--corrupt-result") {
      opt.corrupt = true;
    } else {
      Usage(("unknown argument " + arg).c_str());
    }
  }
  if (opt.workload.empty()) Usage("--workload is required");
  if (opt.scale != "full" && opt.scale != "tiny") Usage("--scale must be full or tiny");
  if (opt.shards == 0 || opt.shards > 4) Usage("--shards must be 1..4");
  if (opt.pool_threads == 0 || opt.pool_threads >= opt.nproc + 1) {
    Usage("--pool-threads must be 1..nproc");
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt = Parse(argc, argv);
  perfbench::Report report;
  try {
    perfbench::WorkloadData data = perfbench::MakeWorkload(opt);
    perfbench::Fingerprint(opt, data, &report);
    const perfbench::CpuTicks before = perfbench::ReadCpuTicks();
    if (opt.trace) {
      perfbench::RunLadder(opt, data, &report);
    } else if (opt.workload == "head") {
      perfbench::RunHead(opt, data, &report);
    } else {
      perfbench::RunChurn(opt, data, &report);
    }
    // Time the hypervisor gave to other guests slows every timed call;
    // printed so runs on a busy host can be told apart.
    const perfbench::CpuTicks after = perfbench::ReadCpuTicks();
    if (after.total > before.total) {
      char line[96];
      std::snprintf(line, sizeof(line), "host CPU steal during the run: %.1f%%",
                    100.0 * static_cast<double>(after.steal - before.steal) /
                        static_cast<double>(after.total - before.total));
      report.Note(line);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  report.Print();
  return report.correct() ? 0 : 1;
}
