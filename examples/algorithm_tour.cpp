// A tour of every algorithm in the library on one workload: demonstrates
// the registry, structure sizes, and how relative performance shifts with
// the size ratio — a miniature of the paper's Section 4 in one executable.
//
//   ./build/examples/algorithm_tour

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "fsi.h"
#include "util/rng.h"
#include "util/timer.h"
#include "workload/synthetic.h"

namespace {

void RunScenario(const char* title, const std::vector<fsi::ElemList>& lists) {
  using namespace fsi;
  std::printf("\n%s\n", title);
  std::printf("%-22s %10s %12s %12s\n", "algorithm", "time(us)", "result",
              "struct(KiB)");
  for (auto name : AlgorithmRegistry::Global().Names(/*compressed=*/false)) {
    Engine engine(name);
    if (lists.size() > engine.max_query_sets()) continue;
    std::vector<PreparedSet> prepared;
    std::size_t words = 0;
    for (const auto& l : lists) {
      prepared.push_back(engine.Prepare(l));
      words += prepared.back().SizeInWords();
    }
    // One reusable query, median-of-5 timing.
    Query query = engine.Query(prepared);
    double best = 1e18;
    ElemList out;
    for (int rep = 0; rep < 5; ++rep) {
      Timer t;
      query.ExecuteInto(&out);
      best = std::min(best, t.ElapsedMillis() * 1000.0);
    }
    std::printf("%-22s %10.1f %12zu %12.1f\n", std::string(name).c_str(),
                best, out.size(), static_cast<double>(words) * 8.0 / 1024.0);
  }
}

}  // namespace

int main() {
  using namespace fsi;
  Xoshiro256 rng(7);

  auto balanced =
      GenerateIntersectingSets({200000, 200000}, 2000, 1 << 22, rng);
  RunScenario("balanced pair: |L1| = |L2| = 200k, r = 1% "
              "(RanGroupScan/IntGroup territory)",
              balanced);

  auto skewed = GenerateIntersectingSets({2000, 200000}, 20, 1 << 22, rng);
  RunScenario("skewed pair: |L1| = 2k, |L2| = 200k, sr = 100 "
              "(Hash/HashBin territory)",
              skewed);

  auto multi =
      GenerateIntersectingSets({50000, 100000, 200000}, 500, 1 << 22, rng);
  RunScenario("three sets (RanGroupScan's filtering advantage grows with k)",
              multi);
  return 0;
}
