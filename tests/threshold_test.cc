// Unit tests for core/threshold.h: t-of-k threshold queries over
// RanGroupScan structures.
//
// ThresholdIntersection is the engine behind Expr::AtLeast's grouped fast
// path (api/expr.h), so these tests pin down its boundary behaviour
// directly against a count-based oracle: t in {0, 1, k, k+1}, single-set
// and empty-set inputs, duplicate sets (every merge step ties), and
// randomized workloads across resolutions so groups share block edges.
// FSI_STRESS_ITERS multiplies the randomized iteration count (nightly CI
// runs 10) with fixed per-iteration seeds.

#include "core/threshold.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/ran_group_scan.h"
#include "util/rng.h"
#include "workload/synthetic.h"

namespace fsi {
namespace {

std::size_t StressIters() {
  const char* env = std::getenv("FSI_STRESS_ITERS");
  if (env == nullptr) return 1;
  long v = std::strtol(env, nullptr, 10);
  return v > 0 ? static_cast<std::size_t>(v) : 1;
}

/// Elements appearing in at least `threshold` of `lists`, by counting.
ElemList Oracle(const std::vector<ElemList>& lists, std::size_t threshold) {
  std::map<Elem, std::size_t> counts;
  for (const ElemList& list : lists) {
    for (Elem e : list) ++counts[e];
  }
  ElemList out;
  for (const auto& [elem, count] : counts) {
    if (count >= threshold) out.push_back(elem);
  }
  return out;
}

/// Preprocesses every list and runs AtLeast(threshold) on the result.
class ThresholdFixture {
 public:
  explicit ThresholdFixture(const std::vector<ElemList>& lists)
      : threshold_(&alg_) {
    for (const ElemList& list : lists) {
      owned_.push_back(alg_.Preprocess(list));
      sets_.push_back(owned_.back().get());
    }
  }

  ElemList AtLeast(std::size_t t) const { return threshold_.AtLeast(sets_, t); }

 private:
  RanGroupScanIntersection alg_;
  ThresholdIntersection threshold_;
  std::vector<std::unique_ptr<PreprocessedSet>> owned_;
  std::vector<const PreprocessedSet*> sets_;
};

TEST(ThresholdTest, RejectsBadThreshold) {
  ThresholdFixture fx({ElemList{1}});
  EXPECT_THROW(fx.AtLeast(0), std::invalid_argument);
  EXPECT_THROW(fx.AtLeast(2), std::invalid_argument);
}

TEST(ThresholdTest, ThresholdZeroThrows) {
  ThresholdFixture fx({{1, 2, 3}, {2, 3, 4}});
  EXPECT_THROW(fx.AtLeast(0), std::invalid_argument);
}

TEST(ThresholdTest, ThresholdAboveKThrows) {
  ThresholdFixture fx({{1, 2, 3}, {2, 3, 4}});
  EXPECT_THROW(fx.AtLeast(3), std::invalid_argument);
}

TEST(ThresholdTest, NoSetsThrows) {
  ThresholdFixture fx({});
  EXPECT_THROW(fx.AtLeast(1), std::invalid_argument);
}

TEST(ThresholdTest, SingleSetIsIdentity) {
  ElemList set = {5, 9, 100, 4096, 1u << 30};
  ThresholdFixture fx({set});
  EXPECT_EQ(fx.AtLeast(1), set);
}

TEST(ThresholdTest, SingleEmptySet) {
  ThresholdFixture fx({ElemList{}});
  EXPECT_TRUE(fx.AtLeast(1).empty());
}

TEST(ThresholdTest, AllEmptySets) {
  ThresholdFixture fx({ElemList{}, ElemList{}, ElemList{}});
  for (std::size_t t = 1; t <= 3; ++t) {
    EXPECT_TRUE(fx.AtLeast(t).empty()) << "t=" << t;
  }
}

TEST(ThresholdTest, EmptySetsAmongInputs) {
  // Empty sets count toward k but never toward an element's tally.
  std::vector<ElemList> lists = {{1, 2, 3}, {}, {2, 3, 4}, {}};
  ThresholdFixture fx(lists);
  for (std::size_t t = 1; t <= 4; ++t) {
    EXPECT_EQ(fx.AtLeast(t), Oracle(lists, t)) << "t=" << t;
  }
}

TEST(ThresholdTest, ThresholdOneIsUnion) {
  std::vector<ElemList> lists = {{1, 5, 9}, {2, 5, 10}, {9, 10, 11}};
  ThresholdFixture fx(lists);
  EXPECT_EQ(fx.AtLeast(1), Oracle(lists, 1));
}

TEST(ThresholdTest, ThresholdKIsIntersection) {
  std::vector<ElemList> lists = {{1, 5, 9, 20}, {2, 5, 9, 10}, {5, 9, 10, 11}};
  ThresholdFixture fx(lists);
  EXPECT_EQ(fx.AtLeast(3), (ElemList{5, 9}));
}

TEST(ThresholdTest, DuplicateSetsTieEverywhere) {
  // Identical sets: every count-merge head ties across all k cursors, and
  // every threshold from 1 to k returns the set itself.
  Xoshiro256 rng(7);
  ElemList set = SampleSortedSet(500, 1 << 20, rng);
  ThresholdFixture fx({set, set, set, set});
  for (std::size_t t = 1; t <= 4; ++t) {
    EXPECT_EQ(fx.AtLeast(t), set) << "t=" << t;
  }
}

TEST(ThresholdTest, AllThresholdsAgainstBruteForce) {
  Xoshiro256 rng(92);
  std::vector<ElemList> lists = GenerateUniformSets(4, 800, 1 << 12, rng);
  ThresholdFixture fx(lists);
  for (std::size_t t = 1; t <= 4; ++t) {
    EXPECT_EQ(fx.AtLeast(t), Oracle(lists, t)) << "t=" << t;
  }
}

TEST(ThresholdTest, SkewedSizes) {
  Xoshiro256 rng(93);
  std::vector<ElemList> lists = {SampleSortedSet(20, 1 << 14, rng),
                                 SampleSortedSet(2000, 1 << 14, rng),
                                 SampleSortedSet(6000, 1 << 14, rng)};
  ThresholdFixture fx(lists);
  for (std::size_t t = 1; t <= 3; ++t) {
    EXPECT_EQ(fx.AtLeast(t), Oracle(lists, t)) << "t=" << t;
  }
}

TEST(ThresholdTest, MixedResolutions) {
  // Very different set sizes force different resolutions t_i, so the
  // census walks coarse groups spanning many fine windows — block-edge
  // handling is exercised at every window boundary.
  Xoshiro256 rng(11);
  std::vector<ElemList> lists = {
      SampleSortedSet(6, 1 << 24, rng),     // resolution 0 (single group)
      SampleSortedSet(300, 1 << 24, rng),   // mid resolution
      SampleSortedSet(20000, 1 << 24, rng)  // fine resolution
  };
  // Force overlaps so thresholds >= 2 are non-trivially populated.
  lists[1].insert(lists[1].end(), lists[0].begin(), lists[0].end());
  lists[2].insert(lists[2].end(), lists[1].begin(), lists[1].end());
  for (ElemList& l : lists) {
    std::sort(l.begin(), l.end());
    l.erase(std::unique(l.begin(), l.end()), l.end());
  }
  ThresholdFixture fx(lists);
  for (std::size_t t = 1; t <= 3; ++t) {
    EXPECT_EQ(fx.AtLeast(t), Oracle(lists, t)) << "t=" << t;
  }
}

TEST(ThresholdTest, DenseSmallUniverse) {
  // Universe barely larger than the sets: every group is full and the
  // window census never prunes, hitting the merge path exhaustively.
  Xoshiro256 rng(13);
  std::vector<ElemList> lists;
  for (int i = 0; i < 5; ++i) lists.push_back(SampleSortedSet(180, 256, rng));
  ThresholdFixture fx(lists);
  for (std::size_t t = 1; t <= 5; ++t) {
    EXPECT_EQ(fx.AtLeast(t), Oracle(lists, t)) << "t=" << t;
  }
}

TEST(ThresholdTest, RandomizedAgainstOracle) {
  const std::size_t iters = 6 * StressIters();
  for (std::size_t iter = 0; iter < iters; ++iter) {
    Xoshiro256 rng(100 + iter);
    const std::size_t k = 2 + rng.Next() % 5;
    const std::size_t universe =
        (iter % 2 == 0) ? (1u << 14) : (1u << 24);  // dense and sparse
    std::vector<ElemList> lists;
    for (std::size_t i = 0; i < k; ++i) {
      const std::size_t n = rng.Next() % 2000;
      lists.push_back(SampleSortedSet(n, universe, rng));
    }
    ThresholdFixture fx(lists);
    for (std::size_t t = 1; t <= k; ++t) {
      ASSERT_EQ(fx.AtLeast(t), Oracle(lists, t))
          << "iter=" << iter << " k=" << k << " t=" << t;
    }
  }
}

}  // namespace
}  // namespace fsi
