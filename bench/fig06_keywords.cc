// Figure 6: "Varying the Number of Keywords".
//
// k = 2, 3, 4 sets of equal size (10M in the paper; scaled by default), ids
// drawn uniformly and independently from [0, 2*10^8] (scaled), so overlaps
// are incidental.  RanGroupScan uses m = 2 hash images here, as in the
// paper.  Findings to compare against:
//   * RanGroupScan fastest, and the margin grows with k (more sets => more
//     empty image ANDs => more skipped groups);
//   * RanGroup next; Merge again beats the sophisticated baselines;
//   * IntGroup is absent (it is two-set only).

#include <benchmark/benchmark.h>

#include <map>
#include <vector>

#include "bench/bench_util.h"
#include "util/rng.h"
#include "workload/synthetic.h"

namespace {

using namespace fsi;
using namespace fsi::bench;

std::size_t SetSize() { return FullScale() ? 10000000 : (1 << 18); }

const std::vector<ElemList>& Workload(std::size_t k) {
  static std::map<std::size_t, std::vector<ElemList>> cache;
  auto it = cache.find(k);
  if (it == cache.end()) {
    std::size_t n = SetSize();
    // Paper: universe 2*10^8 for n = 10^7, i.e. 20x the set size.
    std::uint64_t universe = 20 * static_cast<std::uint64_t>(n);
    Xoshiro256 rng(0xF160600 + k);
    it = cache.emplace(k, GenerateUniformSets(k, n, universe, rng)).first;
  }
  return it->second;
}

void RegisterAll() {
  const std::vector<std::string> algorithms = {
      "Merge", "SkipList",   "Hash",         "Adaptive", "SvS",
      "Lookup", "RanGroup",  "RanGroupScan:m=2"};
  for (const auto& alg : algorithms) {
    for (std::size_t k : {2u, 3u, 4u}) {
      std::string label = "fig06/" + alg + "/k:" + std::to_string(k);
      benchmark::RegisterBenchmark(
          label.c_str(),
          [alg, k](benchmark::State& st) {
            PreparedQuery q = Prepare(alg, Workload(k));
            RunPrepared(st, q);
          })
          ->Unit(benchmark::kMillisecond)
          ->Iterations(FullScale() ? 1 : 8);
    }
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
