// "Size of the Data Structure" (Section 4, reported in text).
//
// The paper reports structure sizes relative to an uncompressed posting
// list (one word per element in their C implementation): +37% for
// RanGroupScan m=2, +63% for m=4, +75% for IntGroup, +87% for RanGroup.
// We print the measured words-per-element of every structure and the
// overhead relative to the PlainSet baseline.  Our element storage is
// 32-bit (half a word), so absolute ratios differ; the *ordering* and the
// m-dependence are the comparable shape.
//
// Not a timing experiment — prints a plain table.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/ran_group.h"
#include "util/rng.h"
#include "workload/synthetic.h"

namespace {

using namespace fsi;
using namespace fsi::bench;

}  // namespace

int main() {
  std::size_t n = FullScale() ? 10000000 : (1 << 20);
  Xoshiro256 rng(0xF1605B0);
  ElemList set = SampleSortedSet(n, 20 * static_cast<std::uint64_t>(n), rng);
  std::vector<ElemList> lists = {set};

  struct Row {
    std::string name;
    std::string note;
  };
  std::vector<Row> rows = {
      {"Merge", "uncompressed posting list (baseline)"},
      {"Lookup", "bucket directory, B=32"},
      {"SkipList", "towers + forward pointers"},
      {"Hash", "linear-probing table, load 1/2"},
      {"BPP", "16-bit codes"},
      {"IntGroup", "paper: +75%"},
      {"RanGroupScan:m=2", "paper: +37%"},
      {"RanGroupScan", "m=4; paper: +63%"},
      {"RanGroup", "multi-resolution (Thm 3.4/3.5 support)"},
      {"HashBin", "g-ordered values only"},
      {"Merge_Delta", "delta-coded gaps"},
      {"Lookup_Delta", "delta-coded buckets"},
      {"RanGroupScan_Lowbits", "Appendix B encoding, m=1"},
      {"RanGroupScan_Delta", "delta-coded groups, m=1"},
  };

  std::printf("tab_space: structure sizes, n=%zu elements\n", n);
  std::printf("%-24s %14s %12s %10s  %s\n", "structure", "words", "words/elem",
              "overhead", "note");
  double baseline = 0;
  for (const Row& row : rows) {
    PreparedQuery q = Prepare(row.name, lists);
    double words = static_cast<double>(q.StructureWords());
    double per_elem = words / static_cast<double>(n);
    if (row.name == "Merge") baseline = words;
    std::printf("%-24s %14.0f %12.3f %+9.0f%%  %s\n", row.name.c_str(), words,
                per_elem, (words / baseline - 1.0) * 100.0,
                row.note.c_str());
  }

  // RanGroup in the single-resolution mode actually used by Algorithm 4.
  {
    RanGroupIntersection::Options o;
    o.single_resolution = true;
    RanGroupIntersection alg(o);
    auto pre = alg.Preprocess(set);
    double words = static_cast<double>(pre->SizeInWords());
    std::printf("%-24s %14.0f %12.3f %+9.0f%%  %s\n",
                "RanGroup_single_res", words,
                words / static_cast<double>(n),
                (words / baseline - 1.0) * 100.0,
                "one resolution (Thm 3.7 mode); paper: +87%");
  }

  // The space-budget dial (EngineOptions::space_budget_bytes): a Planner
  // corpus of mixed-length sets prepared under shrinking budgets.  The
  // footprint column is Engine::SpaceUsedBytes(); the compressed column
  // counts sets the dial flipped to the block-compressed representation.
  {
    Xoshiro256 dial_rng(0xD1A1);
    std::vector<ElemList> corpus;
    const std::size_t base_n = FullScale() ? 200000 : 20000;
    for (std::size_t i = 1; i <= 8; ++i) {
      corpus.push_back(SampleSortedSet(
          base_n * i, 20 * static_cast<std::uint64_t>(base_n) * i, dial_rng));
    }
    std::size_t full_bytes = 0;
    {
      Engine unlimited("Planner:calibration=off");
      for (const ElemList& l : corpus) {
        full_bytes += unlimited.Prepare(l).SizeInWords() * sizeof(Word);
      }
    }
    std::printf("\ntab_space: the space-budget dial, %zu sets, "
                "uncompressed footprint %.1f MiB\n",
                corpus.size(), full_bytes / (1024.0 * 1024.0));
    std::printf("%-24s %14s %12s %10s\n", "budget", "used_bytes",
                "used_MiB", "compressed");
    const std::vector<std::pair<std::string, std::size_t>> budgets = {
        {"unlimited(0)", 0},
        {"full", full_bytes},
        {"1/2", full_bytes / 2},
        {"1/4", full_bytes / 4},
        {"1B", 1},
    };
    for (const auto& [label, budget] : budgets) {
      Engine engine("Planner:calibration=off",
                    EngineOptions{.space_budget_bytes = budget,
                                  .min_compress_size = 0});
      std::vector<PreparedSet> prepared =
          engine.PrepareBatch(std::span<const ElemList>(corpus));
      std::size_t compressed = 0;
      for (const PreparedSet& s : prepared) compressed += s.compressed();
      std::printf("%-24s %14zu %12.1f %7zu/%zu\n", label.c_str(),
                  engine.SpaceUsedBytes(),
                  engine.SpaceUsedBytes() / (1024.0 * 1024.0), compressed,
                  prepared.size());
    }
  }
  return 0;
}
