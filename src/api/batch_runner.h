// Concurrent batch execution over one Engine: fsi::BatchRunner.
//
// The paper's motivating workload is interactive search — a stream of
// small conjunctive queries served at high throughput.  The Engine API
// already promises that a const Engine and its PreparedSets may be shared
// across threads (engine.h); this layer makes that contract load-bearing:
//
//   fsi::Engine engine("Hybrid");
//   std::vector<fsi::PreparedSet> sets = ...;        // prepared once
//   std::vector<fsi::BatchQuery> log = ...;          // many small queries
//
//   fsi::BatchRunner runner(engine, {.num_threads = 8});
//   std::vector<fsi::ElemList> results = runner.Materialize(log);
//   runner.stats().queries_per_second;               // merged BatchStats
//
// Execution model.  Queries are validated and built serially on the
// calling thread (so misuse — empty handles, cross-engine sets, arity
// overflow — throws there, before any worker starts), then executed by a
// persistent fsi::ThreadPool.  Workers claim whole queries from an atomic
// cursor: dynamic load balancing without partitioning heuristics, and
// results that are *bitwise identical* to single-threaded execution —
// each query runs exactly as Engine::Query would run it, only the
// assignment of queries to threads varies.
//
// Mutable sets (Engine::PrepareMutable) compose with batches: each query
// snapshots every mutable input when its worker starts executing it, so a
// batch racing concurrent Insert/Erase sees, per query, one consistent
// version of each set — never a torn state.  Different queries of the
// same batch may observe different versions (they start at different
// times); the bitwise-identical-to-serial guarantee therefore holds
// whenever no writer runs during the batch.
//
// What is shared and what is per-thread:
//   shared, read-only:  the Engine's algorithm, every PreparedSet
//                       structure, the query list;
//   per-thread:         the fsi::Query objects (one per batch query, each
//                       touched by exactly one worker), scratch buffers,
//                       and the local time/volume accumulators merged into
//                       BatchStats after the batch completes.
//
// Sinks mirror fsi::Query: Materialize (per-query element vectors),
// Count (per-query sizes only, computed in per-worker scratch), and
// Visit (a callback per query; called concurrently from worker threads,
// so it must be thread-safe across *different* query indices).

#ifndef FSI_API_BATCH_RUNNER_H_
#define FSI_API_BATCH_RUNNER_H_

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "api/engine.h"
#include "api/thread_pool.h"

namespace fsi {

/// One conjunctive query of a batch: the prepared sets to intersect.
/// Every pointer must come from the runner's Engine (or a copy of it) —
/// the same contract, and the same checked errors, as Engine::Query.
using BatchQuery = std::vector<const PreparedSet*>;

/// Construction options for BatchRunner.
struct BatchOptions {
  /// Worker threads; 0 means ThreadPool::DefaultConcurrency().
  std::size_t num_threads = 0;
  /// Materialized results in document-id order (Query default).  Count()
  /// always runs unordered — a result-set size is order-independent.
  bool ordered = true;
  /// Per-query result cap, as Query::Limit.
  std::size_t limit = SIZE_MAX;
};

/// Aggregate statistics of one batch, merged from the per-thread
/// accumulators after the batch completes.
struct BatchStats {
  /// Queries executed.
  std::size_t num_queries = 0;
  /// Worker threads the batch ran on.
  std::size_t num_threads = 0;
  /// Sum of QueryStats::elements_scanned over all queries.
  std::size_t elements_scanned = 0;
  /// Sum of QueryStats::predicted_micros over all queries — the cost
  /// model's forecast of the batch's total compute.  Compare against the
  /// summed per-query wall times to judge the planner on a workload
  /// (0 when the engine's algorithm publishes no cost model).
  double predicted_micros = 0.0;
  /// Sum of per-query result sizes (after any limit).
  std::size_t total_results = 0;
  /// Wall time of the whole batch, milliseconds.
  double wall_ms = 0.0;
  /// Per-query wall-time percentiles, microseconds.
  double p50_micros = 0.0;
  double p95_micros = 0.0;
  /// The SLO percentile: tail latency one query in a hundred exceeds.
  double p99_micros = 0.0;
  double max_micros = 0.0;
  /// num_queries / batch wall time.
  double queries_per_second = 0.0;
};

/// Executes batches of queries against one Engine on a persistent worker
/// pool.  Not itself thread-safe: one thread drives a runner (the pool
/// provides the parallelism); use several runners for concurrent batches.
class BatchRunner {
 public:
  /// The engine is copied (copies share the algorithm instance), so the
  /// runner has no external lifetime requirements.
  explicit BatchRunner(Engine engine, BatchOptions options = {});

  /// Materialize sink: per-query result vectors, index-aligned with
  /// `queries`.  Identical to running each query single-threaded.
  std::vector<ElemList> Materialize(std::span<const BatchQuery> queries);

  /// Count-only sink: per-query result sizes without handing out element
  /// vectors — results are computed into a reusable per-worker scratch
  /// buffer (always unordered internally).
  std::vector<std::size_t> Count(std::span<const BatchQuery> queries);

  /// Visitor sink: `visit(query_index, result_elements)` once per query.
  /// Invoked from worker threads — concurrent calls carry distinct query
  /// indices, but the callable itself must tolerate concurrent entry.
  /// The span is only valid during the call.  Returns the total number of
  /// elements across all results.
  std::size_t Visit(
      std::span<const BatchQuery> queries,
      const std::function<void(std::size_t, std::span<const Elem>)>& visit);

  /// Expression batches: each entry is a boolean expression (api/expr.h)
  /// over this engine's prepared sets, evaluated exactly as
  /// Engine::Query(const Expr&) would evaluate it.  Validation and
  /// optimization run serially on the calling thread (misuse throws
  /// there); execution shares the worker pool, the atomic-cursor load
  /// balancing, and the merged BatchStats of the flat overloads.  All
  /// workers share the engine's ExprCache, so repeated subtrees across a
  /// batch are memoized once.
  std::vector<ElemList> Materialize(std::span<const Expr> queries);
  std::vector<std::size_t> Count(std::span<const Expr> queries);
  std::size_t Visit(
      std::span<const Expr> queries,
      const std::function<void(std::size_t, std::span<const Elem>)>& visit);

  /// Statistics of the most recent batch.
  const BatchStats& stats() const { return stats_; }

  const Engine& engine() const { return engine_; }
  std::size_t num_threads() const { return pool_.num_threads(); }

 private:
  enum class Sink { kMaterialize, kCount, kVisit };

  /// Builds every query up front, on the calling thread, with the sink's
  /// builders applied.  Q is BatchQuery or Expr.
  template <typename Q>
  std::vector<fsi::Query> Build(std::span<const Q> queries, Sink sink) const;
  /// Runs already-built queries on the pool and merges per-thread
  /// accumulators into stats_.
  void Execute(
      std::vector<fsi::Query> built, Sink sink,
      std::vector<ElemList>* results, std::vector<std::size_t>* counts,
      const std::function<void(std::size_t, std::span<const Elem>)>* visit);

  Engine engine_;
  BatchOptions options_;
  ThreadPool pool_;
  BatchStats stats_;
};

}  // namespace fsi

#endif  // FSI_API_BATCH_RUNNER_H_
