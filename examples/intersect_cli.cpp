// intersect_cli — command-line set intersection over files.
//
// A small operational tool: each input file holds one sorted set (one
// decimal element per line, '#' comments allowed); the tool pre-processes
// them with the chosen algorithm, intersects, and prints the result (or
// just its size and timing with --stats).
//
//   intersect_cli [--algorithm SPEC] [--stats] [--explain] [--threshold T]
//                 [--force-scalar] [--save-index PATH] FILE...
//   intersect_cli --load-index PATH [--stats] [--explain]
//   intersect_cli --dump-calibration PATH
//   intersect_cli --list
//
// By default the cost-model planner picks the algorithm per query
// (docs/PLANNER.md); SPEC overrides it with any registry spec — a name,
// optionally with options: "RanGroupScan:m=2,w=4".  --explain prints the
// chosen plan (set order, algorithm per step, predicted cost) and the
// predicted-vs-measured summary instead of the result elements.  --list
// prints every registered algorithm — including whether it exposes a cost
// hook to the planner — plus the active SIMD kernel variant, so benchmark
// reports are self-describing.  --force-scalar disables the vectorized
// kernels for this run (equivalent to launching with FSI_FORCE_SCALAR=1).
//
// Persistence (docs/PERSISTENCE.md): --save-index writes the prepared
// engine image to PATH after the query; --load-index skips the input
// files entirely and mmaps a previously saved image (with --stats
// reporting the load mode and mapped bytes).  --dump-calibration runs the
// planner's startup measurement once and writes the resulting cost
// constants as JSON — the file FSI_PLANNER_CALIBRATION can point at.
//
// Examples:
//   ./build/examples/intersect_cli a.txt b.txt
//   ./build/examples/intersect_cli --explain a.txt b.txt c.txt
//   ./build/examples/intersect_cli --algorithm Merge --stats a.txt b.txt c.txt
//   ./build/examples/intersect_cli --algorithm RanGroupScan:m=2 a.txt b.txt
//   ./build/examples/intersect_cli --threshold 2 a.txt b.txt c.txt

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/ran_group_scan.h"
#include "core/threshold.h"
#include "fsi.h"
#include "util/timer.h"

namespace {

fsi::ElemList ReadSetFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "error: cannot open %s\n", path.c_str());
    std::exit(2);
  }
  fsi::ElemList set;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    char* end = nullptr;
    unsigned long v = std::strtoul(line.c_str(), &end, 10);
    if (end == line.c_str()) {
      std::fprintf(stderr, "error: %s: bad line '%s'\n", path.c_str(),
                   line.c_str());
      std::exit(2);
    }
    set.push_back(static_cast<fsi::Elem>(v));
  }
  return set;
}

void PrintKernelVariant(std::FILE* stream) {
  std::fprintf(stream, "kernel dispatch: %s (cpu supports %s%s)\n",
               std::string(fsi::simd::LevelName(fsi::simd::ActiveLevel()))
                   .c_str(),
               std::string(fsi::simd::LevelName(fsi::simd::DetectCpuLevel()))
                   .c_str(),
               fsi::simd::ForceScalarEnv() ? "; FSI_FORCE_SCALAR set" : "");
}

void ListAlgorithms() {
  PrintKernelVariant(stdout);
  std::printf("%-22s %-10s %-6s %-5s %s\n", "name", "structure", "max-k",
              "cost", "options (always: seed=<int>)");
  for (const fsi::AlgorithmDescriptor* d :
       fsi::AlgorithmRegistry::Global().Descriptors()) {
    std::string max_k = d->max_query_sets == SIZE_MAX
                            ? "any"
                            : std::to_string(d->max_query_sets);
    // "cost": whether the algorithm exposes a cost hook, i.e. whether the
    // planner can select it (docs/PLANNER.md).
    std::printf("%-22s %-10s %-6s %-5s %s\n", d->name.c_str(),
                d->compressed ? "compressed" : "plain", max_k.c_str(),
                d->cost != nullptr ? "yes" : "-",
                d->options_help.empty() ? "-" : d->options_help.c_str());
  }
}

void Usage() {
  std::fprintf(stderr,
               "usage: intersect_cli [--algorithm SPEC] [--stats] "
               "[--explain] [--threshold T] [--force-scalar] FILE...\n"
               "       intersect_cli --list\n"
               "  SPEC: registry spec, e.g. Merge, Planner (default: the\n"
               "        cost-model planner), or with options: "
               "RanGroupScan:m=2,w=4\n"
               "  --explain: print the chosen plan and predicted vs "
               "measured cost\n"
               "        instead of the result elements\n"
               "  --list: print the active kernel variant, every registered\n"
               "        algorithm, whether it exposes a cost hook, and its "
               "options\n"
               "  --threshold T: elements in at least T of the input sets "
               "(forces RanGroupScan)\n"
               "  --force-scalar: disable SIMD kernels for this run "
               "(= FSI_FORCE_SCALAR=1)\n"
               "  --save-index PATH: after the query, save the prepared "
               "engine image\n"
               "        (snapshot file, docs/PERSISTENCE.md)\n"
               "  --load-index PATH: mmap a saved image instead of reading "
               "FILEs;\n"
               "        the query runs over every set in the snapshot\n"
               "  --dump-calibration PATH: measure the planner cost "
               "constants and\n"
               "        write them as JSON (usable via "
               "FSI_PLANNER_CALIBRATION)\n");
  std::exit(1);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fsi;
  std::string algorithm_spec = "Planner";
  bool stats = false;
  bool explain = false;
  std::size_t threshold = 0;
  std::string save_index;
  std::string load_index;
  std::string dump_calibration;
  std::vector<std::string> files;
  // First pass: --force-scalar must act before anything resolves the
  // kernel dispatch table (it is resolved once per process, on first use).
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--force-scalar") {
      setenv("FSI_FORCE_SCALAR", "1", /*overwrite=*/1);
    }
  }
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--algorithm" && i + 1 < argc) {
      algorithm_spec = argv[++i];
    } else if (arg == "--list") {
      ListAlgorithms();
      return 0;
    } else if (arg == "--force-scalar") {
      // handled in the first pass
    } else if (arg == "--stats") {
      stats = true;
    } else if (arg == "--explain") {
      explain = true;
    } else if (arg == "--threshold" && i + 1 < argc) {
      threshold = static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--save-index" && i + 1 < argc) {
      save_index = argv[++i];
    } else if (arg == "--load-index" && i + 1 < argc) {
      load_index = argv[++i];
    } else if (arg == "--dump-calibration" && i + 1 < argc) {
      dump_calibration = argv[++i];
    } else if (!arg.empty() && arg[0] == '-') {
      Usage();
    } else {
      files.push_back(arg);
    }
  }
  if (!dump_calibration.empty()) {
    // Measure() (not Process()) so FSI_PLANNER_CALIBRATION in the
    // environment cannot feed the dump back into itself.
    std::ofstream out(dump_calibration, std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n",
                   dump_calibration.c_str());
      return 2;
    }
    out << PlannerCalibration::Measure().ToJson() << "\n";
    return out ? 0 : 2;
  }
  if (threshold > 0 && (!save_index.empty() || !load_index.empty())) {
    std::fprintf(stderr,
                 "error: --threshold queries run on raw structures and do "
                 "not combine with --save-index/--load-index\n");
    return 1;
  }
  if (!load_index.empty() && !files.empty()) {
    std::fprintf(stderr,
                 "error: --load-index replaces the input FILEs (the query "
                 "runs over every set in the snapshot)\n");
    return 1;
  }
  if (load_index.empty() && files.size() < 2) Usage();
  if (explain && threshold > 0) {
    std::fprintf(stderr,
                 "error: --explain does not apply to --threshold queries "
                 "(they always run on RanGroupScan structures)\n");
    return 1;
  }

  std::vector<ElemList> sets;
  for (const auto& f : files) sets.push_back(ReadSetFile(f));

  Timer total;
  ElemList result;
  double preprocess_ms = 0;
  double query_ms = 0;
  std::size_t elements_scanned = 0;
  std::size_t num_sets = sets.size();
  std::optional<SnapshotInfo> snapshot_info;
  if (threshold > 0) {
    // t-threshold queries run on the raw RanGroupScan structures.  The
    // raw Preprocess path skips validation in Release, and these files
    // come from outside — check them explicitly.
    RanGroupScanIntersection scan;
    Timer pre;
    std::vector<std::unique_ptr<PreprocessedSet>> owned;
    std::vector<const PreprocessedSet*> views;
    for (std::size_t i = 0; i < sets.size(); ++i) {
      try {
        CheckSortedUnique(sets[i], files[i]);
      } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
      }
      owned.push_back(scan.Preprocess(sets[i]));
      views.push_back(owned.back().get());
      elements_scanned += sets[i].size();
    }
    preprocess_ms = pre.ElapsedMillis();
    ThresholdIntersection thresh(&scan);
    Timer q;
    result = thresh.AtLeast(views, threshold);
    query_ms = q.ElapsedMillis();
  } else if (!load_index.empty()) {
    // Cold start from a saved image: mmap, reconstruct, query — no file
    // parsing, no preprocessing, no planner calibration.
    std::optional<LoadedSnapshot> loaded;
    Timer pre;
    try {
      loaded = Engine::LoadSnapshot(load_index);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 2;
    }
    preprocess_ms = pre.ElapsedMillis();
    snapshot_info = loaded->info;
    num_sets = loaded->sets.size();
    if (num_sets < 2) {
      std::fprintf(stderr, "error: %s: snapshot holds %zu set(s); "
                   "an intersection needs at least 2\n",
                   load_index.c_str(), num_sets);
      return 2;
    }
    Query query = loaded->engine.Query(loaded->sets);
    QueryStats qs = query.ExecuteInto(&result);
    query_ms = qs.wall_micros / 1000.0;
    elements_scanned = qs.elements_scanned;
    if (explain) {
      std::printf("%s", query.Explain().ToString().c_str());
      std::printf("predicted: %.1f us  measured: %.1f us  result: %zu "
                  "elements\n",
                  qs.predicted_micros, qs.wall_micros, result.size());
    }
  } else {
    // Validate operator input even in Release: files come from outside.
    std::unique_ptr<Engine> engine;
    try {
      engine = std::make_unique<Engine>(
          algorithm_spec, EngineOptions{.validation = ValidationPolicy::kFull});
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
    Timer pre;
    std::vector<PreparedSet> prepared;
    try {
      for (const auto& s : sets) prepared.push_back(engine->Prepare(s));
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 2;
    }
    preprocess_ms = pre.ElapsedMillis();
    if (!save_index.empty()) {
      try {
        engine->SaveSnapshot(save_index, std::span<const PreparedSet>(prepared));
      } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
      }
      std::fprintf(stderr, "saved index: %s (%zu sets)\n", save_index.c_str(),
                   prepared.size());
    }
    Query query = engine->Query(prepared);
    QueryStats qs = query.ExecuteInto(&result);
    query_ms = qs.wall_micros / 1000.0;
    elements_scanned = qs.elements_scanned;
    if (explain) {
      std::printf("%s", query.Explain().ToString().c_str());
      std::printf("predicted: %.1f us  measured: %.1f us  result: %zu "
                  "elements\n",
                  qs.predicted_micros, qs.wall_micros, result.size());
    }
  }

  if (stats) {
    PrintKernelVariant(stderr);
    if (snapshot_info) {
      std::fprintf(stderr,
                   "snapshot: %s  load: %s  mapped: %zu bytes  spec: %s  "
                   "sets: %zu (%zu zero-copy, %zu rebuilt, %zu mutable)  "
                   "calibration: %s\n",
                   load_index.c_str(), snapshot_info->load_mode.c_str(),
                   snapshot_info->mapped_bytes, snapshot_info->spec.c_str(),
                   snapshot_info->sets_total, snapshot_info->sets_zero_copy,
                   snapshot_info->sets_rebuilt, snapshot_info->sets_mutable,
                   snapshot_info->calibration_source.empty()
                       ? "-"
                       : snapshot_info->calibration_source.c_str());
    }
    std::fprintf(stderr,
                 "sets: %zu  result: %zu elements  scanned: %zu elements  "
                 "preprocess: %.3f ms  query: %.3f ms  total: %.3f ms\n",
                 num_sets, result.size(), elements_scanned, preprocess_ms,
                 query_ms, total.ElapsedMillis());
  } else if (!explain) {
    for (Elem x : result) std::printf("%u\n", x);
  }
  return 0;
}
