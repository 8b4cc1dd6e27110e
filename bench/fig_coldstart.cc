// Cold-start: preparing an engine from raw lists vs mmap-loading a saved
// snapshot (docs/PERSISTENCE.md).
//
// "coldstart/prepare" is what a process restart costs without
// persistence: pre-process every list into its structure.
// "coldstart/load" is Engine::LoadSnapshot on the same image: validate
// the header, CRC the sections, alias the flat arrays straight out of
// the mapping.  Both run the explicit RanGroupScan spec, whose ScanSet
// arrays (g-values, group offsets, image words) are the structure
// zero-copy load exists to skip rebuilding; CI gates that ratio at
// >= 10x (bench_summary.py, cold_start_speedup).
//
// "coldstart_planner/prepare" and "coldstart_planner/load" are the same
// pair for "Planner:calibration=off" (the startup calibration disabled,
// so only structure construction is billed).  Under those constants no
// scan step can win, so a planner set is just its sorted array and
// rebuilding it is cheaper than loading it; the ratio is reported beside
// the gate, not gated.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "util/rng.h"
#include "workload/synthetic.h"

namespace {

using namespace fsi;
using namespace fsi::bench;

constexpr const char kScanSpec[] = "RanGroupScan";
constexpr const char kPlannerSpec[] = "Planner:calibration=off";

std::size_t NumLists() { return FullScale() ? 64 : 32; }
std::size_t ListSize() { return FullScale() ? 1 << 20 : 1 << 17; }

const std::vector<ElemList>& Lists() {
  static const std::vector<ElemList>* lists = [] {
    Xoshiro256 rng(0xC01D57A27ULL);
    auto* out = new std::vector<ElemList>;
    for (std::size_t i = 0; i < NumLists(); ++i) {
      out->push_back(SampleSortedSet(
          ListSize(), 8 * static_cast<std::uint64_t>(ListSize()), rng));
    }
    return out;
  }();
  return *lists;
}

std::string TmpSnapshotPath(const char* prefix) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir != nullptr ? dir : "/tmp") + "/fsi_" + prefix +
         ".snap";
}

void BM_Prepare(benchmark::State& state, const char* spec) {
  const auto& lists = Lists();
  std::size_t elements = 0;
  for (const auto& l : lists) elements += l.size();
  for (auto _ : state) {
    Engine engine(spec);
    std::vector<PreparedSet> prepared;
    prepared.reserve(lists.size());
    for (const ElemList& l : lists) prepared.push_back(engine.Prepare(l));
    benchmark::DoNotOptimize(prepared.data());
  }
  state.counters["sets"] = static_cast<double>(lists.size());
  state.counters["elements"] = static_cast<double>(elements);
}

void BM_Load(benchmark::State& state, const char* spec, const char* prefix) {
  // Save the image of Lists() under `spec` first, untimed.
  const std::string path = TmpSnapshotPath(prefix);
  {
    Engine engine(spec);
    std::vector<PreparedSet> prepared;
    for (const ElemList& l : Lists()) prepared.push_back(engine.Prepare(l));
    engine.SaveSnapshot(path, std::span<const PreparedSet>(prepared));
  }
  std::size_t mapped = 0;
  for (auto _ : state) {
    LoadedSnapshot loaded = Engine::LoadSnapshot(path);
    mapped = loaded.info.mapped_bytes;
    benchmark::DoNotOptimize(loaded.sets.data());
  }
  state.counters["sets"] = static_cast<double>(Lists().size());
  state.counters["mapped_MiB"] = static_cast<double>(mapped) / (1 << 20);
  std::remove(path.c_str());
}

void RegisterAll() {
  for (const auto& [prefix, spec] :
       {std::pair{"coldstart", kScanSpec},
        std::pair{"coldstart_planner", kPlannerSpec}}) {
    benchmark::RegisterBenchmark((std::string(prefix) + "/prepare").c_str(),
                                 BM_Prepare, spec)
        ->Unit(benchmark::kMillisecond)
        ->Iterations(FullScale() ? 1 : 4);
    benchmark::RegisterBenchmark((std::string(prefix) + "/load").c_str(),
                                 BM_Load, spec, prefix)
        ->Unit(benchmark::kMillisecond)
        ->Iterations(FullScale() ? 4 : 16);
  }
}

}  // namespace

int main(int argc, char** argv) {
  RegisterAll();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
