#include "baseline/merge.h"

#include "api/engine.h"
#include "api/planner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "util/rng.h"
#include "workload/synthetic.h"

namespace fsi {
namespace {

ElemList StdIntersect(const ElemList& a, const ElemList& b) {
  ElemList out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

TEST(MergeTest, TwoWayBasic) {
  ElemList a = {1, 3, 5, 7, 9};
  ElemList b = {3, 4, 5, 6, 9, 10};
  ElemList out;
  MergeIntersect(a, b, &out);
  EXPECT_EQ(out, (ElemList{3, 5, 9}));
}

TEST(MergeTest, TwoWayDisjoint) {
  ElemList a = {1, 2, 3};
  ElemList b = {4, 5, 6};
  ElemList out;
  MergeIntersect(a, b, &out);
  EXPECT_TRUE(out.empty());
}

TEST(MergeTest, TwoWayIdentical) {
  ElemList a = {10, 20, 30};
  ElemList out;
  MergeIntersect(a, a, &out);
  EXPECT_EQ(out, a);
}

TEST(MergeTest, TwoWayEmpty) {
  ElemList a = {};
  ElemList b = {1, 2};
  ElemList out;
  MergeIntersect(a, b, &out);
  EXPECT_TRUE(out.empty());
  MergeIntersect(b, a, &out);
  EXPECT_TRUE(out.empty());
}

TEST(MergeTest, TwoWayAgainstStdRandom) {
  Xoshiro256 rng(81);
  for (int trial = 0; trial < 50; ++trial) {
    std::size_t n1 = 1 + rng.Below(500);
    std::size_t n2 = 1 + rng.Below(500);
    ElemList a = SampleSortedSet(n1, 2000, rng);
    ElemList b = SampleSortedSet(n2, 2000, rng);
    ElemList out;
    MergeIntersect(a, b, &out);
    EXPECT_EQ(out, StdIntersect(a, b));
  }
}

TEST(MergeTest, KWayMatchesCascadedTwoWay) {
  Xoshiro256 rng(83);
  for (int trial = 0; trial < 40; ++trial) {
    std::size_t k = 2 + rng.Below(5);
    std::vector<ElemList> lists;
    for (std::size_t i = 0; i < k; ++i) {
      lists.push_back(SampleSortedSet(100 + rng.Below(400), 1500, rng));
    }
    ElemList expected = lists[0];
    for (std::size_t i = 1; i < k; ++i) {
      expected = StdIntersect(expected, lists[i]);
    }
    std::vector<std::span<const Elem>> spans(lists.begin(), lists.end());
    ElemList out;
    MergeIntersectK(spans, &out);
    EXPECT_EQ(out, expected) << "k=" << k;
  }
}

TEST(MergeTest, KWaySingleList) {
  ElemList a = {1, 5, 9};
  std::vector<std::span<const Elem>> spans = {a};
  ElemList out;
  MergeIntersectK(spans, &out);
  EXPECT_EQ(out, a);
}

TEST(MergeTest, KWayOneEmptyList) {
  ElemList a = {1, 5, 9};
  ElemList b = {};
  ElemList c = {1, 9};
  std::vector<std::span<const Elem>> spans = {a, b, c};
  ElemList out;
  MergeIntersectK(spans, &out);
  EXPECT_TRUE(out.empty());
}

TEST(MergeTest, AlgorithmInterface) {
  MergeIntersection alg;
  EXPECT_EQ(alg.name(), "Merge");
  std::vector<ElemList> lists = {{1, 2, 3, 4}, {2, 4, 6}, {0, 2, 4, 8}};
  EXPECT_EQ(alg.IntersectLists(lists), (ElemList{2, 4}));
}

TEST(MergeTest, KWayChainMatchesOracleOnEverySinkAndTier) {
  // k >= 3 Merge runs a smallest-first chain of pairwise kernel merges.
  // Dense lists make the planner pick a uniform Merge plan, which executes
  // as one MergeIntersection call; both it and the explicit spec must
  // match the scalar k-way scan, with and without simd=off.
  Xoshiro256 rng(87);
  for (std::size_t k = 3; k <= 5; ++k) {
    for (std::uint32_t universe : {4096u, 65536u}) {
      std::vector<ElemList> lists(k);
      for (std::size_t i = 0; i < k; ++i) {
        // Densities 84%, 76%, ... so the smallest list comes last.
        const std::uint64_t percent = 84 - 8 * i;
        for (std::uint32_t x = 0; x < universe; ++x) {
          if (rng.Below(100) < percent) lists[i].push_back(x);
        }
      }
      // A last list disjoint from the rest empties the chain early.
      std::vector<ElemList> emptying = lists;
      emptying.push_back({universe + 1, universe + 2});
      for (const std::vector<ElemList>* input : {&lists, &emptying}) {
        std::vector<std::span<const Elem>> spans(input->begin(),
                                                 input->end());
        ElemList expected;
        MergeIntersectK(spans, &expected);
        for (const char* spec : {"Merge", "Merge:simd=off",
                                 "Planner:calibration=off",
                                 "Planner:calibration=off,simd=off"}) {
          Engine engine(spec);
          std::vector<PreparedSet> prepared;
          for (const ElemList& l : *input) prepared.push_back(engine.Prepare(l));
          const std::string where = std::string(spec) +
                                    " k=" + std::to_string(input->size()) +
                                    " universe=" + std::to_string(universe);
          if (input == &lists && engine.Query(prepared).Explain().planned) {
            QueryPlan plan = engine.Query(prepared).Explain();
            EXPECT_TRUE(plan.uniform) << where;
            for (const PlanStep& step : plan.steps) {
              EXPECT_EQ(step.algorithm, "Merge") << where;
            }
          }
          EXPECT_EQ(engine.Query(prepared).Materialize(), expected) << where;
          ElemList unordered = engine.Query(prepared).Unordered().Materialize();
          std::sort(unordered.begin(), unordered.end());
          EXPECT_EQ(unordered, expected) << where;
          ElemList into = {7};
          engine.Query(prepared).ExecuteInto(&into);
          EXPECT_EQ(into, expected) << where;
          EXPECT_EQ(engine.Query(prepared).Count(), expected.size()) << where;
          ElemList visited;
          engine.Query(prepared).Visit([&](Elem e) { visited.push_back(e); });
          EXPECT_EQ(visited, expected) << where;
        }
      }
    }
  }
}

TEST(MergeTest, PrepareRejectsInvalidInputWhenValidationEnabled) {
  // Full validation is an Engine ValidationPolicy: explicit kFull checks in
  // every build type; the raw Preprocess path validates in Debug only.
  Engine engine("Merge", {.validation = ValidationPolicy::kFull});
  ElemList bad = {3, 1, 2};
  EXPECT_THROW(engine.Prepare(bad), std::invalid_argument);
  ElemList dup = {1, 1, 2};
  EXPECT_THROW(engine.Prepare(dup), std::invalid_argument);
#ifndef NDEBUG
  MergeIntersection alg;
  EXPECT_THROW(alg.Preprocess(bad), std::invalid_argument);
  EXPECT_THROW(alg.Preprocess(dup), std::invalid_argument);
#endif
}

}  // namespace
}  // namespace fsi
