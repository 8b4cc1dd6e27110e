// Tests for the concurrent batch layer (api/thread_pool.h,
// api/batch_runner.h) and the InvertedIndex batch entry points:
// determinism against single-threaded execution for every registered
// algorithm, stats merging, graceful pool shutdown under pending work,
// and the oversubscription matrix (threads > queries and queries >
// threads).  This binary is the core of the TSan CI job — most tests
// deliberately share one Engine and its PreparedSets across workers.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "fsi.h"
#include "index/inverted_index.h"
#include "util/rng.h"
#include "workload/synthetic.h"

namespace fsi {
namespace {

// ---------------------------------------------------------------------------
// ThreadPool.
// ---------------------------------------------------------------------------

TEST(ThreadPoolTest, DrainsPendingWorkOnShutdown) {
  std::atomic<int> done{0};
  ThreadPool pool(2);
  for (int i = 0; i < 64; ++i) {
    pool.Submit([&done] {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      done.fetch_add(1);
    });
  }
  // Most of the 64 tasks are still queued here; graceful shutdown must
  // run them all before joining.
  pool.Shutdown();
  EXPECT_EQ(done.load(), 64);
}

TEST(ThreadPoolTest, SubmitAfterShutdownThrows) {
  ThreadPool pool(1);
  pool.Shutdown();
  EXPECT_THROW(pool.Submit([] {}), std::runtime_error);
}

TEST(ThreadPoolTest, ShutdownIsIdempotent) {
  ThreadPool pool(2);
  pool.Submit([] {});
  pool.Shutdown();
  EXPECT_NO_THROW(pool.Shutdown());
}

TEST(ThreadPoolTest, DefaultConcurrencyAtLeastOne) {
  EXPECT_GE(ThreadPool::DefaultConcurrency(), 1u);
  ThreadPool pool;  // num_threads = 0 resolves to the default
  EXPECT_GE(pool.num_threads(), 1u);
}

// ---------------------------------------------------------------------------
// Batch workload fixture: a pool of prepared sets with guaranteed overlap
// and a query list mixing arities, built once per engine spec.
// ---------------------------------------------------------------------------

struct Workload {
  Engine engine;
  std::vector<PreparedSet> sets;
  std::vector<BatchQuery> queries;
};

Workload MakeWorkload(const std::string& spec, std::size_t num_queries = 16) {
  Engine engine(spec);
  Xoshiro256 rng(0xBA7C4 + num_queries);
  // Six lists sharing a 32-element core, so every query has a non-trivial
  // intersection.
  std::vector<ElemList> lists = GenerateIntersectingSets(
      {300, 250, 200, 180, 160, 140}, 32, 1 << 16, rng);
  Workload w{std::move(engine), {}, {}};
  w.sets.reserve(lists.size());
  for (const ElemList& l : lists) w.sets.push_back(w.engine.Prepare(l));
  const std::size_t max_k =
      std::min<std::size_t>(3, w.engine.max_query_sets());
  for (std::size_t i = 0; i < num_queries; ++i) {
    const std::size_t k = 2 + (max_k > 2 ? i % (max_k - 1) : 0);
    BatchQuery q;
    for (std::size_t j = 0; j < k; ++j) {
      q.push_back(&w.sets[(i + j * 2 + 1) % w.sets.size()]);
    }
    w.queries.push_back(std::move(q));
  }
  return w;
}

std::vector<ElemList> SerialGroundTruth(Workload& w) {
  std::vector<ElemList> expected;
  expected.reserve(w.queries.size());
  for (const BatchQuery& q : w.queries) {
    expected.push_back(w.engine.Query(q).Materialize());
  }
  return expected;
}

// ---------------------------------------------------------------------------
// Determinism: concurrent execution is bitwise identical to serial, for
// every registered algorithm (randomized ones included — the hash
// functions live in the shared structures, not in per-thread state).
// ---------------------------------------------------------------------------

TEST(BatchRunnerTest, MatchesSingleThreadedForEveryRegisteredAlgorithm) {
  for (std::string_view name : AlgorithmRegistry::Global().Names()) {
    SCOPED_TRACE(std::string(name));
    Workload w = MakeWorkload(std::string(name));
    std::vector<ElemList> expected = SerialGroundTruth(w);
    BatchRunner runner(w.engine, {.num_threads = 4});
    std::vector<ElemList> actual = runner.Materialize(w.queries);
    EXPECT_EQ(actual, expected);
  }
}

TEST(BatchRunnerTest, OversubscriptionMatrix) {
  // threads > queries, queries > threads, and the empty batch: results
  // must not depend on the shape of the schedule.
  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    for (std::size_t num_queries : {0u, 1u, 3u, 16u, 64u}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " queries=" + std::to_string(num_queries));
      Workload w = MakeWorkload("RanGroupScan", num_queries);
      std::vector<ElemList> expected = SerialGroundTruth(w);
      BatchRunner runner(w.engine, {.num_threads = threads});
      EXPECT_EQ(runner.Materialize(w.queries), expected);
      EXPECT_EQ(runner.stats().num_queries, num_queries);
      EXPECT_EQ(runner.num_threads(), threads);
    }
  }
}

// ---------------------------------------------------------------------------
// Stats merging.
// ---------------------------------------------------------------------------

TEST(BatchRunnerTest, StatsMergeCorrectness) {
  Workload w = MakeWorkload("Hybrid", 32);
  // Expected volume/result totals from the serial baseline.
  std::size_t expected_results = 0;
  std::size_t expected_scanned = 0;
  for (const BatchQuery& q : w.queries) {
    fsi::Query query = w.engine.Query(q);
    expected_results += query.Count();
    expected_scanned += query.stats().elements_scanned;
  }
  ASSERT_GT(expected_results, 0u);

  BatchRunner runner(w.engine, {.num_threads = 4});
  runner.Materialize(w.queries);
  const BatchStats& stats = runner.stats();
  EXPECT_EQ(stats.num_queries, 32u);
  EXPECT_EQ(stats.num_threads, 4u);
  EXPECT_EQ(stats.total_results, expected_results);
  EXPECT_EQ(stats.elements_scanned, expected_scanned);
  EXPECT_GT(stats.wall_ms, 0.0);
  EXPECT_GT(stats.queries_per_second, 0.0);
  EXPECT_LE(stats.p50_micros, stats.p95_micros);
  EXPECT_LE(stats.p95_micros, stats.p99_micros);
  EXPECT_LE(stats.p99_micros, stats.max_micros);
  EXPECT_GT(stats.max_micros, 0.0);
}

TEST(BatchRunnerTest, StatsRefreshAcrossBatches) {
  Workload w = MakeWorkload("Merge", 16);
  BatchRunner runner(w.engine, {.num_threads = 2});
  runner.Materialize(w.queries);
  EXPECT_EQ(runner.stats().num_queries, 16u);
  std::vector<BatchQuery> half(w.queries.begin(), w.queries.begin() + 4);
  runner.Count(half);
  EXPECT_EQ(runner.stats().num_queries, 4u);
}

// ---------------------------------------------------------------------------
// Sink agreement.
// ---------------------------------------------------------------------------

TEST(BatchRunnerTest, CountAgreesWithMaterialize) {
  Workload w = MakeWorkload("RanGroup", 24);
  BatchRunner runner(w.engine, {.num_threads = 4});
  std::vector<ElemList> results = runner.Materialize(w.queries);
  std::vector<std::size_t> counts = runner.Count(w.queries);
  ASSERT_EQ(counts.size(), results.size());
  for (std::size_t i = 0; i < counts.size(); ++i) {
    EXPECT_EQ(counts[i], results[i].size()) << "query " << i;
  }
}

TEST(BatchRunnerTest, VisitAgreesWithMaterialize) {
  Workload w = MakeWorkload("IntGroup", 24);  // arity-2-limited algorithm
  BatchRunner runner(w.engine, {.num_threads = 4});
  std::vector<ElemList> expected = runner.Materialize(w.queries);

  std::mutex mutex;
  std::vector<ElemList> visited(w.queries.size());
  std::size_t total = runner.Visit(
      w.queries, [&](std::size_t i, std::span<const Elem> elems) {
        std::lock_guard<std::mutex> lock(mutex);
        visited[i].assign(elems.begin(), elems.end());
      });
  EXPECT_EQ(visited, expected);
  EXPECT_EQ(total, runner.stats().total_results);
}

TEST(BatchRunnerTest, LimitAndUnorderedOptions) {
  Workload w = MakeWorkload("RanGroupScan", 12);
  std::vector<ElemList> full = SerialGroundTruth(w);

  BatchRunner limited(w.engine, {.num_threads = 4, .limit = 5});
  std::vector<ElemList> capped = limited.Materialize(w.queries);
  for (std::size_t i = 0; i < capped.size(); ++i) {
    EXPECT_LE(capped[i].size(), 5u);
    // Ordered limit keeps the first elements in document-id order.
    EXPECT_TRUE(std::equal(capped[i].begin(), capped[i].end(),
                           full[i].begin()))
        << "query " << i;
  }

  BatchRunner unordered(w.engine, {.num_threads = 4, .ordered = false});
  std::vector<ElemList> anyorder = unordered.Materialize(w.queries);
  for (std::size_t i = 0; i < anyorder.size(); ++i) {
    std::sort(anyorder[i].begin(), anyorder[i].end());
    EXPECT_EQ(anyorder[i], full[i]) << "query " << i;
  }
}

// ---------------------------------------------------------------------------
// Error handling.
// ---------------------------------------------------------------------------

TEST(BatchRunnerTest, ValidationThrowsBeforeExecution) {
  Workload w = MakeWorkload("Merge", 4);
  BatchRunner runner(w.engine, {.num_threads = 2});

  PreparedSet empty;
  std::vector<BatchQuery> bad = w.queries;
  bad.push_back({&w.sets[0], &empty});
  EXPECT_THROW(runner.Materialize(bad), std::invalid_argument);

  Engine other("Merge");
  PreparedSet foreign = other.Prepare(ElemList{1, 2, 3});
  bad.back() = {&w.sets[0], &foreign};
  EXPECT_THROW(runner.Materialize(bad), std::invalid_argument);

  // The runner (and its pool) survive a rejected batch.
  EXPECT_EQ(runner.Materialize(w.queries), SerialGroundTruth(w));
}

TEST(BatchRunnerTest, VisitorExceptionPropagates) {
  Workload w = MakeWorkload("Merge", 8);
  BatchRunner runner(w.engine, {.num_threads = 2});
  EXPECT_THROW(
      runner.Visit(w.queries,
                   [](std::size_t i, std::span<const Elem>) {
                     if (i == 5) throw std::runtime_error("visitor failed");
                   }),
      std::runtime_error);
  // Still usable afterwards.
  EXPECT_EQ(runner.Count(w.queries).size(), w.queries.size());
}

// ---------------------------------------------------------------------------
// Shared-structure stress: many runners over one Engine's PreparedSets,
// driven from separate threads — the TSan target for the "threads may
// share prepared sets" contract.
// ---------------------------------------------------------------------------

TEST(BatchRunnerTest, ConcurrentRunnersShareOneEngine) {
  Workload w = MakeWorkload("Hybrid", 32);
  std::vector<ElemList> expected = SerialGroundTruth(w);
  std::vector<std::thread> drivers;
  std::atomic<int> failures{0};
  for (int t = 0; t < 3; ++t) {
    drivers.emplace_back([&w, &expected, &failures] {
      BatchRunner runner(w.engine, {.num_threads = 2});
      for (int round = 0; round < 4; ++round) {
        if (runner.Materialize(w.queries) != expected) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& d : drivers) d.join();
  EXPECT_EQ(failures.load(), 0);
}

// ---------------------------------------------------------------------------
// InvertedIndex batch entry points.
// ---------------------------------------------------------------------------

TEST(InvertedIndexBatchTest, BatchMatchesSerialQueries) {
  InvertedIndex index{Engine("Hybrid")};
  // 200 documents over 8 terms with deterministic term membership.
  for (Elem d = 1; d <= 200; ++d) {
    std::vector<std::string> terms;
    for (int t = 0; t < 8; ++t) {
      if (d % (t + 2) == 0) terms.push_back("t" + std::to_string(t));
    }
    if (!terms.empty()) index.AddDocument(d, terms);
  }
  index.Finalize();

  std::vector<std::vector<std::string>> log = {
      {"t0", "t1"},       {"t2", "t3", "t4"}, {"t0", "t6"},
      {"t5"},             {"t1", "t7"},       {"t0", "nosuchterm"},
      {},                 {"t3", "t1", "t0"},
  };
  std::vector<ElemList> expected;
  for (const auto& q : log) expected.push_back(index.Query(q));

  BatchStats stats;
  std::vector<ElemList> actual =
      index.BatchMatch(log, {.num_threads = 4}, &stats);
  EXPECT_EQ(actual, expected);
  // Unknown-term and empty queries are answered without executing.
  EXPECT_EQ(stats.num_queries, 6u);

  std::vector<std::size_t> counts = index.BatchCount(log, {.num_threads = 2});
  ASSERT_EQ(counts.size(), log.size());
  for (std::size_t i = 0; i < counts.size(); ++i) {
    EXPECT_EQ(counts[i], expected[i].size()) << "query " << i;
  }
}

}  // namespace
}  // namespace fsi
