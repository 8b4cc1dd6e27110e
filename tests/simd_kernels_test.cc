// Equivalence tests for the SIMD kernel layer (src/simd/).
//
// Two layers of guarantees:
//  * Kernel level: every vector tier the machine can execute produces
//    bit-identical results to the scalar tier, on adversarial inputs —
//    empty/singleton sets, dense overlap, disjoint interleavings,
//    unaligned lengths around the 4/8/16 lane widths and the 16/32/64
//    element AVX-512 block boundaries, size ratios that select each
//    short-block shape, and values at the uint32 extremes (0 and
//    near-max, which exercise the sign-bias trick and the masked-lane
//    zero-fill).
//  * Algorithm level: for every registered algorithm, the default spec
//    (CPU-dispatched kernels) and the ":simd=off" spec (scalar kernels)
//    produce identical results through every Engine sink, with identical
//    QueryStats scan counts.

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <random>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fsi.h"
#include "simd/intersect_kernels.h"

namespace fsi {
namespace {

using U32List = std::vector<std::uint32_t>;

std::vector<simd::Level> AvailableLevels() {
  std::vector<simd::Level> levels = {simd::Level::kScalar};
  const simd::Level best = simd::DetectCpuLevel();
  if (best >= simd::Level::kSse) levels.push_back(simd::Level::kSse);
  if (best >= simd::Level::kAvx2) levels.push_back(simd::Level::kAvx2);
  if (best >= simd::Level::kAvx512) levels.push_back(simd::Level::kAvx512);
  return levels;
}

U32List SortedUnique(U32List values) {
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  return values;
}

U32List RandomSortedSet(std::mt19937_64& rng, std::size_t n,
                        std::uint32_t universe) {
  std::set<std::uint32_t> s;
  std::uniform_int_distribution<std::uint32_t> dist(0, universe);
  while (s.size() < n) s.insert(dist(rng));
  return U32List(s.begin(), s.end());
}

/// The adversarial pair catalogue shared by every kernel test.
std::vector<std::pair<U32List, U32List>> AdversarialPairs() {
  std::vector<std::pair<U32List, U32List>> pairs;
  // Empty and singleton shapes.
  pairs.push_back({{}, {}});
  pairs.push_back({{}, {1, 2, 3}});
  pairs.push_back({{5}, {}});
  pairs.push_back({{5}, {5}});
  pairs.push_back({{5}, {6}});
  // Identical lists (dense overlap) and fully disjoint interleavings.
  U32List dense;
  for (std::uint32_t i = 0; i < 100; ++i) dense.push_back(3 * i);
  pairs.push_back({dense, dense});
  U32List evens;
  U32List odds;
  for (std::uint32_t i = 0; i < 64; ++i) {
    evens.push_back(2 * i);
    odds.push_back(2 * i + 1);
  }
  pairs.push_back({evens, odds});
  // Unaligned lengths bracketing the 4/8/16 lane widths, partial overlap.
  for (std::size_t na : {1u, 3u, 4u, 5u, 7u, 8u, 9u, 15u, 16u, 17u, 31u}) {
    for (std::size_t nb : {1u, 4u, 7u, 8u, 9u, 16u, 17u, 33u}) {
      U32List a;
      U32List b;
      for (std::size_t i = 0; i < na; ++i) {
        a.push_back(static_cast<std::uint32_t>(2 * i));
      }
      for (std::size_t i = 0; i < nb; ++i) {
        b.push_back(static_cast<std::uint32_t>(3 * i));
      }
      pairs.push_back({std::move(a), std::move(b)});
    }
  }
  // Values at the uint32 extremes: 0 (matches the maskload zero-fill) and
  // near UINT32_MAX (exercises the signed-compare bias).
  U32List low = {0, 1, 2, 7, 8};
  U32List high;
  for (std::uint32_t i = 0; i < 20; ++i) high.push_back(0xFFFFFFFFu - 2 * i);
  std::sort(high.begin(), high.end());
  pairs.push_back({low, low});
  pairs.push_back({high, high});
  pairs.push_back({low, high});
  U32List mixed = SortedUnique({0, 5, 8, 0x7FFFFFFFu, 0x80000000u,
                                0x80000001u, 0xFFFFFFFEu, 0xFFFFFFFFu});
  pairs.push_back({mixed, mixed});
  pairs.push_back({mixed, low});
  // Skewed pairs, both argument orders: long-over-short ratios from 1 to
  // 64 select the 8- and 4-element short blocks of the AVX-512 merge, and
  // short lengths that are not multiples of 8 leave work for its
  // one-element loop and its scalar tail.
  std::mt19937_64 skew_rng(0x5EE3);
  for (std::size_t ratio : {1u, 2u, 4u, 8u, 12u, 16u, 64u}) {
    for (std::size_t ns : {3u, 13u, 40u}) {
      const std::size_t nl = ns * ratio;
      const auto universe = static_cast<std::uint32_t>(3 * nl);
      U32List s = RandomSortedSet(skew_rng, ns, universe);
      U32List l = RandomSortedSet(skew_rng, nl, universe);
      pairs.push_back({s, l});
      pairs.push_back({std::move(l), std::move(s)});
    }
  }
  // Lengths straddling the 16/32/64 element block boundaries on both
  // sides, overlapping on the multiples of 6.
  for (std::size_t na : {15u, 16u, 17u, 31u, 32u, 33u, 63u, 64u, 65u}) {
    for (std::size_t nb : {15u, 16u, 17u, 31u, 32u, 33u, 63u, 64u, 65u}) {
      U32List a;
      U32List b;
      for (std::size_t i = 0; i < na; ++i) {
        a.push_back(static_cast<std::uint32_t>(2 * i));
      }
      for (std::size_t i = 0; i < nb; ++i) {
        b.push_back(static_cast<std::uint32_t>(3 * i));
      }
      pairs.push_back({std::move(a), std::move(b)});
    }
  }
  // Blocks holding the uint32 extremes: a 16-element list spanning 0 to
  // UINT32_MAX (one 16-lane block holding both), and a 32-element list
  // whose first block starts at 0 and whose last ends at UINT32_MAX.
  U32List block16 = {0};
  for (std::uint32_t i = 1; i < 15; ++i) block16.push_back(i * 0x11111111u);
  block16.push_back(0xFFFFFFFFu);
  U32List block32;
  for (std::uint32_t i = 0; i < 16; ++i) block32.push_back(i);
  for (std::uint32_t i = 15; i >= 1; --i) block32.push_back(0xFFFFFFFFu - i);
  block32.push_back(0xFFFFFFFFu);
  U32List ends = {0, 0xFFFFFFFFu};
  U32List zero_only = {0};
  U32List max_only = {0xFFFFFFFFu};
  for (const U32List* other : {&ends, &zero_only, &max_only, &low, &mixed,
                               &block16, &block32}) {
    pairs.push_back({block16, *other});
    pairs.push_back({*other, block32});
  }
  // Random fuzz: varying densities and sizes straddling the block widths.
  std::mt19937_64 rng(0x51D0CAFE);
  for (int round = 0; round < 40; ++round) {
    std::size_t na = rng() % 200;
    std::size_t nb = rng() % 200;
    std::uint32_t universe = (round % 2 == 0) ? 255 : (1u << 16);
    pairs.push_back({RandomSortedSet(rng, na, universe),
                     RandomSortedSet(rng, nb, universe)});
  }
  return pairs;
}

TEST(SimdCpuFeaturesTest, LevelNamesAndOrdering) {
  EXPECT_EQ(simd::LevelName(simd::Level::kScalar), "scalar");
  EXPECT_EQ(simd::LevelName(simd::Level::kSse), "sse");
  EXPECT_EQ(simd::LevelName(simd::Level::kAvx2), "avx2");
  EXPECT_EQ(simd::LevelName(simd::Level::kAvx512), "avx512");
  // The active level never exceeds what the CPU supports.
  EXPECT_LE(static_cast<int>(simd::ActiveLevel()),
            static_cast<int>(simd::DetectCpuLevel()));
}

TEST(SimdCpuFeaturesTest, KernelsForLevelClampsToCpu) {
  const simd::Kernels& table = simd::KernelsForLevel(simd::Level::kAvx2);
  EXPECT_LE(static_cast<int>(table.level),
            static_cast<int>(simd::DetectCpuLevel()));
  EXPECT_EQ(simd::KernelsForLevel(simd::Level::kScalar).level,
            simd::Level::kScalar);
  // The widest tier resolves to itself on a CPU that has it, and to the
  // detected tier on any other.
  const simd::Level detected = simd::DetectCpuLevel();
  EXPECT_EQ(simd::KernelsForLevel(simd::Level::kAvx512).level,
            std::min(detected, simd::Level::kAvx512));
  for (simd::Level level : AvailableLevels()) {
    EXPECT_EQ(simd::KernelsForLevel(level).level, level)
        << simd::LevelName(level);
  }
}

TEST(SimdModeTest, ParseModeAcceptsAndRejects) {
  EXPECT_EQ(simd::ParseMode("auto"), simd::Mode::kAuto);
  EXPECT_EQ(simd::ParseMode("on"), simd::Mode::kAuto);
  EXPECT_EQ(simd::ParseMode("off"), simd::Mode::kOff);
  EXPECT_EQ(simd::ParseMode("scalar"), simd::Mode::kOff);
  EXPECT_THROW(simd::ParseMode("fast"), std::invalid_argument);
  EXPECT_THROW(simd::ParseMode(""), std::invalid_argument);
}

TEST(SimdModeTest, RegistryRejectsBadSimdValue) {
  EXPECT_THROW(AlgorithmRegistry::Global().Create("Merge:simd=banana"),
               std::invalid_argument);
  // And accepts both documented values on every wired algorithm.
  for (const char* spec :
       {"Merge:simd=off", "SvS:simd=off", "BaezaYates:simd=off",
        "IntGroup:simd=off", "RanGroupScan:simd=off", "Hybrid:simd=off",
        "Merge:simd=auto", "RanGroupScan:simd=auto"}) {
    EXPECT_NO_THROW(AlgorithmRegistry::Global().Create(spec)) << spec;
  }
}

TEST(SimdKernelTest, IntersectPairMatchesScalarOnEveryTier) {
  const simd::Kernels& scalar = simd::ScalarKernels();
  for (simd::Level level : AvailableLevels()) {
    const simd::Kernels& table = simd::KernelsForLevel(level);
    for (const auto& [a, b] : AdversarialPairs()) {
      U32List expect;
      scalar.intersect_pair(a.data(), a.size(), b.data(), b.size(), &expect);
      U32List got;
      table.intersect_pair(a.data(), a.size(), b.data(), b.size(), &got);
      EXPECT_EQ(got, expect)
          << simd::LevelName(level) << " |a|=" << a.size()
          << " |b|=" << b.size();
      // Appending must preserve prior content (the RanGroupScan group loop
      // accumulates into one vector).
      U32List appended = {42};
      table.intersect_pair(a.data(), a.size(), b.data(), b.size(), &appended);
      ASSERT_GE(appended.size(), 1u);
      EXPECT_EQ(appended.front(), 42u);
      EXPECT_EQ(U32List(appended.begin() + 1, appended.end()), expect);
    }
  }
}

TEST(SimdKernelTest, ShortAgainstLongMatchesScalarOnEveryTier) {
  // 1..17 short elements against long lists on both sides of the
  // MatchAny/galloping cutover and at 100k, with no, some and boundary
  // matches (the long list's first and last elements, values outside its
  // range, and the uint32 extremes), in both argument orders.
  std::mt19937_64 rng(0x5B0A7);
  const simd::Kernels& scalar = simd::ScalarKernels();
  for (std::size_t nl : {17u, 31u, 32u, 33u, 63u, 64u, 65u, 129u, 100000u}) {
    U32List l = RandomSortedSet(rng, nl, 0xFFFFFFF0u);
    l.front() = 0;
    l.back() = 0xFFFFFFFFu;
    l = SortedUnique(l);
    const std::set<std::uint32_t> in_l(l.begin(), l.end());
    for (std::size_t ns = 1; ns <= 17 && ns < l.size(); ++ns) {
      U32List none;
      while (none.size() < ns) {
        const std::uint32_t x = static_cast<std::uint32_t>(rng());
        if (in_l.count(x) == 0) none.push_back(x);
        none = SortedUnique(none);
      }
      U32List some = none;
      for (std::size_t i = 0; i < ns; i += 2) {
        some[i] = l[std::uniform_int_distribution<std::size_t>(
            0, l.size() - 1)(rng)];
      }
      some = SortedUnique(some);
      U32List boundary = {l.front(), l.back()};
      for (std::size_t i = 2; i < ns; ++i) {
        boundary.push_back(i % 2 == 0 ? l[i / 2] : l[l.size() - 1 - i / 2]);
      }
      boundary = SortedUnique(boundary);
      for (const U32List* s : {&none, &some, &boundary}) {
        U32List oracle;
        std::set_intersection(s->begin(), s->end(), l.begin(), l.end(),
                              std::back_inserter(oracle));
        if (s == &none) {
          ASSERT_TRUE(oracle.empty());
        }
        if (s == &boundary) {
          ASSERT_EQ(oracle, *s);
        }
        U32List expect;
        scalar.intersect_pair(s->data(), s->size(), l.data(), l.size(),
                              &expect);
        ASSERT_EQ(expect, oracle);
        for (simd::Level level : AvailableLevels()) {
          const simd::Kernels& table = simd::KernelsForLevel(level);
          U32List got;
          table.intersect_pair(s->data(), s->size(), l.data(), l.size(), &got);
          EXPECT_EQ(got, oracle) << simd::LevelName(level) << " |s|="
                                 << s->size() << " |l|=" << l.size();
          got.clear();
          table.intersect_pair(l.data(), l.size(), s->data(), s->size(), &got);
          EXPECT_EQ(got, oracle) << simd::LevelName(level) << " |l|="
                                 << l.size() << " |s|=" << s->size();
        }
      }
    }
  }
}

TEST(SimdKernelTest, LowerBoundMatchesScalarOnEveryTier) {
  std::mt19937_64 rng(0xB01DFACE);
  for (simd::Level level : AvailableLevels()) {
    const simd::Kernels& table = simd::KernelsForLevel(level);
    for (std::size_t n : {0u, 1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 15u, 16u, 17u,
                          31u, 32u, 33u, 63u, 64u, 65u, 200u, 127u, 128u,
                          129u}) {
      const U32List drawn = RandomSortedSet(rng, n, 500);
      // The same shape at the bottom, middle and top of the uint32 range.
      for (std::uint32_t base : {0u, 0x7FFFFF00u, 0xFFFFFE00u}) {
        U32List sorted = drawn;
        for (std::uint32_t& v : sorted) v += base;
        // Probe below, above, at, and between every element.
        U32List probes = {0, 0xFFFFFFFFu, 0x80000000u};
        for (std::uint32_t v : sorted) {
          probes.push_back(v);
          if (v > 0) probes.push_back(v - 1);
          if (v < 0xFFFFFFFFu) probes.push_back(v + 1);
        }
        for (std::uint32_t x : probes) {
          EXPECT_EQ(table.lower_bound(sorted.data(), sorted.size(), x),
                    simd::ScalarKernels().lower_bound(sorted.data(),
                                                      sorted.size(), x))
              << simd::LevelName(level) << " n=" << n << " x=" << x;
        }
      }
    }
  }
}

TEST(SimdKernelTest, GallopMatchesScalarOnEveryTier) {
  std::mt19937_64 rng(0x6A110);
  U32List sorted = RandomSortedSet(rng, 300, 3000);
  for (simd::Level level : AvailableLevels()) {
    const simd::Kernels& table = simd::KernelsForLevel(level);
    for (std::size_t lo : {0u, 1u, 7u, 64u, 299u, 300u, 301u}) {
      for (std::uint32_t x : {0u, 1u, 500u, 1500u, 2999u, 3000u, 0xFFFFFFFFu}) {
        EXPECT_EQ(table.gallop_ge(sorted.data(), sorted.size(), lo, x),
                  simd::ScalarKernels().gallop_ge(sorted.data(), sorted.size(),
                                                  lo, x))
            << simd::LevelName(level) << " lo=" << lo << " x=" << x;
      }
    }
  }
}

TEST(SimdKernelTest, MatchAnyMatchesScalarOnEveryTier) {
  // match_any must work on *unsorted* inputs (IntGroup's (h, x)-ordered
  // groups) and must not be fooled by zero-filled masked lanes.
  std::vector<std::pair<U32List, U32List>> cases = {
      {{}, {}},
      {{0}, {}},
      {{0}, {0}},
      {{0}, {1, 2, 3}},
      {{3, 1, 2}, {2, 9, 1}},
      {{7, 0, 5}, {0, 0xFFFFFFFFu, 5, 9, 11, 13, 15, 17, 19}},
      {{0xFFFFFFFFu, 0x80000000u}, {0x80000000u, 1, 2, 3, 4, 5, 6, 7, 8}},
  };
  // One 16-lane block of b holding both 0 and UINT32_MAX, followed by a
  // masked tail of 1..17 lanes that holds neither.
  for (std::uint32_t tail = 1; tail <= 17; ++tail) {
    U32List b = {0xFFFFFFFFu, 0};
    for (std::uint32_t i = 0; i < 14 + tail; ++i) b.push_back(100 + i);
    cases.push_back({{0, 0xFFFFFFFFu, 7, 100 + 13 + tail}, b});
    cases.push_back({{0, 7}, U32List(b.begin() + 2, b.end())});
  }
  std::mt19937_64 rng(0xAB5E);
  for (int round = 0; round < 30; ++round) {
    U32List a = RandomSortedSet(rng, rng() % 20, 64);
    U32List b = RandomSortedSet(rng, rng() % 40, 64);
    std::shuffle(a.begin(), a.end(), rng);
    std::shuffle(b.begin(), b.end(), rng);
    cases.push_back({std::move(a), std::move(b)});
  }
  for (simd::Level level : AvailableLevels()) {
    const simd::Kernels& table = simd::KernelsForLevel(level);
    for (const auto& [a, b] : cases) {
      U32List expect;
      simd::ScalarKernels().match_any(a.data(), a.size(), b.data(), b.size(),
                                      &expect);
      U32List got;
      table.match_any(a.data(), a.size(), b.data(), b.size(), &got);
      EXPECT_EQ(got, expect) << simd::LevelName(level);
    }
  }
}

// ---------------------------------------------------------------------------
// Algorithm-level equivalence: dispatched vs scalar through the Engine.
// ---------------------------------------------------------------------------

/// True when the descriptor's option help advertises the "simd" key.
bool SupportsSimdOption(const AlgorithmDescriptor& d) {
  return d.options_help.find("simd=") != std::string::npos;
}

std::vector<std::vector<ElemList>> AdversarialWorkloads() {
  std::vector<std::vector<ElemList>> workloads;
  for (const auto& [a, b] : AdversarialPairs()) {
    workloads.push_back({a, b});
  }
  // Three-set queries for the k-way paths.
  std::mt19937_64 rng(0x3A3A);
  for (int round = 0; round < 8; ++round) {
    workloads.push_back({RandomSortedSet(rng, 50 + rng() % 100, 1 << 12),
                         RandomSortedSet(rng, 50 + rng() % 100, 1 << 12),
                         RandomSortedSet(rng, 50 + rng() % 100, 1 << 12)});
  }
  return workloads;
}

TEST(SimdAlgorithmEquivalenceTest, EveryAlgorithmEverySinkBitIdentical) {
  const auto workloads = AdversarialWorkloads();
  std::vector<std::string> specs;
  for (auto n : AlgorithmRegistry::Global().Names()) specs.emplace_back(n);
  specs.emplace_back("RanGroupScan:m=2");  // the paper's m = 2 variant
  for (const std::string& base : specs) {
    const std::size_t colon = base.find(':');
    const AlgorithmDescriptor* d =
        AlgorithmRegistry::Global().Find(base.substr(0, colon));
    ASSERT_NE(d, nullptr) << base;
    // Algorithms without a simd knob still run: dispatched vs dispatched
    // (a tautology, but it keeps the sweep over *every* registered name,
    // so a future simd= addition is covered the moment its help says so).
    const std::string scalar_spec =
        SupportsSimdOption(*d)
            ? base + (colon == std::string::npos ? ":" : ",") + "simd=off"
            : base;
    Engine dispatched(base);
    Engine scalar(scalar_spec);
    for (const auto& lists : workloads) {
      if (lists.size() > dispatched.max_query_sets()) continue;
      std::vector<PreparedSet> pd;
      std::vector<PreparedSet> ps;
      for (const ElemList& l : lists) {
        pd.push_back(dispatched.Prepare(l));
        ps.push_back(scalar.Prepare(l));
      }
      // Materialize (sorted).
      ElemList rd = dispatched.Query(pd).Materialize();
      ElemList rs = scalar.Query(ps).Materialize();
      ASSERT_EQ(rd, rs) << base << " Materialize";
      // Unordered ExecuteInto: identical sequence, not just identical set.
      ElemList ud;
      ElemList us;
      QueryStats sd = dispatched.Query(pd).Unordered().ExecuteInto(&ud);
      QueryStats ss = scalar.Query(ps).Unordered().ExecuteInto(&us);
      ASSERT_EQ(ud, us) << base << " Unordered";
      // Count sink and the structural QueryStats fields.
      EXPECT_EQ(dispatched.Query(pd).Count(), scalar.Query(ps).Count())
          << base;
      EXPECT_EQ(sd.num_sets, ss.num_sets) << base;
      EXPECT_EQ(sd.elements_scanned, ss.elements_scanned) << base;
      EXPECT_EQ(sd.groups_probed, ss.groups_probed) << base;
      EXPECT_EQ(sd.result_size, ss.result_size) << base;
    }
  }
}

TEST(SimdAlgorithmEquivalenceTest, BatchRunnerAgreesAcrossKernels) {
  // The BatchRunner path (what a serving deployment runs) must also be
  // kernel-invariant.
  std::mt19937_64 rng(0xBA7C4);
  std::vector<ElemList> lists;
  for (int i = 0; i < 12; ++i) {
    lists.push_back(RandomSortedSet(rng, 200 + rng() % 400, 1 << 14));
  }
  for (const char* spec : {"Merge", "RanGroupScan", "Hybrid"}) {
    Engine dispatched(spec);
    Engine scalar(std::string(spec) + ":simd=off");
    std::vector<PreparedSet> pd;
    std::vector<PreparedSet> ps;
    for (const ElemList& l : lists) {
      pd.push_back(dispatched.Prepare(l));
      ps.push_back(scalar.Prepare(l));
    }
    std::vector<BatchQuery> qd;
    std::vector<BatchQuery> qs;
    for (std::size_t i = 0; i + 1 < lists.size(); i += 2) {
      qd.push_back(BatchQuery{&pd[i], &pd[i + 1]});
      qs.push_back(BatchQuery{&ps[i], &ps[i + 1]});
    }
    BatchRunner rd(dispatched, {.num_threads = 4});
    BatchRunner rs(scalar, {.num_threads = 4});
    EXPECT_EQ(rd.Materialize(qd), rs.Materialize(qs)) << spec;
  }
}

}  // namespace
}  // namespace fsi
