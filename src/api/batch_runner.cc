#include "api/batch_runner.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <latch>
#include <mutex>
#include <utility>

#include "api/expr.h"
#include "util/stats.h"
#include "util/timer.h"

namespace fsi {

BatchRunner::BatchRunner(Engine engine, BatchOptions options)
    : engine_(std::move(engine)),
      options_(options),
      pool_(options.num_threads) {}

template <typename Q>
std::vector<fsi::Query> BatchRunner::Build(std::span<const Q> queries,
                                           Sink sink) const {
  // Validation errors (empty handles, cross-engine sets, arity overflow,
  // malformed trees) throw here, before any worker runs, with the
  // all-or-nothing semantics of Engine::Query; the optimizer runs once
  // per expression.
  std::vector<fsi::Query> built;
  built.reserve(queries.size());
  for (const Q& q : queries) {
    fsi::Query query = engine_.Query(q);
    if (!options_.ordered || sink == Sink::kCount) query.Unordered();
    query.Limit(options_.limit);
    built.push_back(std::move(query));
  }
  return built;
}

std::vector<ElemList> BatchRunner::Materialize(
    std::span<const BatchQuery> queries) {
  std::vector<ElemList> results;
  Execute(Build(queries, Sink::kMaterialize), Sink::kMaterialize, &results,
          nullptr, nullptr);
  return results;
}

std::vector<std::size_t> BatchRunner::Count(
    std::span<const BatchQuery> queries) {
  std::vector<std::size_t> counts;
  Execute(Build(queries, Sink::kCount), Sink::kCount, nullptr, &counts,
          nullptr);
  return counts;
}

std::size_t BatchRunner::Visit(
    std::span<const BatchQuery> queries,
    const std::function<void(std::size_t, std::span<const Elem>)>& visit) {
  Execute(Build(queries, Sink::kVisit), Sink::kVisit, nullptr, nullptr,
          &visit);
  return stats_.total_results;
}

std::vector<ElemList> BatchRunner::Materialize(std::span<const Expr> queries) {
  std::vector<ElemList> results;
  Execute(Build(queries, Sink::kMaterialize), Sink::kMaterialize, &results,
          nullptr, nullptr);
  return results;
}

std::vector<std::size_t> BatchRunner::Count(std::span<const Expr> queries) {
  std::vector<std::size_t> counts;
  Execute(Build(queries, Sink::kCount), Sink::kCount, nullptr, &counts,
          nullptr);
  return counts;
}

std::size_t BatchRunner::Visit(
    std::span<const Expr> queries,
    const std::function<void(std::size_t, std::span<const Elem>)>& visit) {
  Execute(Build(queries, Sink::kVisit), Sink::kVisit, nullptr, nullptr,
          &visit);
  return stats_.total_results;
}

void BatchRunner::Execute(
    std::vector<fsi::Query> built, Sink sink,
    std::vector<ElemList>* results, std::vector<std::size_t>* counts,
    const std::function<void(std::size_t, std::span<const Elem>)>* visit) {
  const std::size_t n = built.size();

  stats_ = BatchStats{};
  stats_.num_queries = n;
  stats_.num_threads = pool_.num_threads();
  if (results != nullptr) results->assign(n, ElemList{});
  if (counts != nullptr) counts->assign(n, 0);
  if (n == 0) return;

  // Merged under `merge_mutex` by each task as it finishes.
  std::vector<double> wall_micros;
  wall_micros.reserve(n);
  std::exception_ptr first_error;
  std::mutex merge_mutex;

  std::atomic<std::size_t> cursor{0};
  const std::size_t num_tasks = std::min(pool_.num_threads(), n);
  std::latch done(static_cast<std::ptrdiff_t>(num_tasks));
  Timer batch_timer;

  auto submit_task = [&, sink] {
    pool_.Submit([&, sink] {
      // Everything except the final CountDown stays inside the try:
      // an exception escaping a pool task would terminate the process
      // (thread_pool.h), so user errors (a throwing visitor) and even a
      // bad_alloc in the merge are captured and rethrown on the caller.
      try {
        std::vector<double> local_micros;
        std::size_t local_scanned = 0;
        std::size_t local_results = 0;
        double local_predicted = 0.0;
        ElemList scratch;
        for (;;) {
          const std::size_t i =
              cursor.fetch_add(1, std::memory_order_relaxed);
          if (i >= n) break;
          fsi::Query& query = built[i];
          ElemList* out =
              (sink == Sink::kMaterialize) ? &(*results)[i] : &scratch;
          const QueryStats qs = query.ExecuteInto(out);
          if (sink == Sink::kCount) (*counts)[i] = qs.result_size;
          if (sink == Sink::kVisit) {
            (*visit)(i, std::span<const Elem>(*out));
          }
          local_micros.push_back(qs.wall_micros);
          local_scanned += qs.elements_scanned;
          local_results += qs.result_size;
          local_predicted += qs.predicted_micros;
        }
        std::lock_guard<std::mutex> lock(merge_mutex);
        wall_micros.insert(wall_micros.end(), local_micros.begin(),
                           local_micros.end());
        stats_.elements_scanned += local_scanned;
        stats_.total_results += local_results;
        stats_.predicted_micros += local_predicted;
      } catch (...) {
        std::lock_guard<std::mutex> lock(merge_mutex);
        if (!first_error) first_error = std::current_exception();
      }
      done.count_down();
    });
  };

  // If a Submit itself throws (allocation failure), the workers already
  // fanned out still reference this frame's locals — never unwind past
  // them: cancel the remaining work, balance the latch for the tasks
  // that were not submitted, and wait before rethrowing.
  std::size_t submitted = 0;
  try {
    for (; submitted < num_tasks; ++submitted) submit_task();
  } catch (...) {
    cursor.store(n, std::memory_order_relaxed);
    done.count_down(static_cast<std::ptrdiff_t>(num_tasks - submitted));
    done.wait();
    throw;
  }
  done.wait();
  stats_.wall_ms = batch_timer.ElapsedMillis();

  if (first_error) std::rethrow_exception(first_error);

  SampleStats per_query;
  for (double micros : wall_micros) per_query.Add(micros);
  stats_.p50_micros = per_query.Percentile(0.50);
  stats_.p95_micros = per_query.Percentile(0.95);
  stats_.p99_micros = per_query.Percentile(0.99);
  stats_.max_micros = per_query.Max();
  if (stats_.wall_ms > 0.0) {
    stats_.queries_per_second =
        static_cast<double>(n) / (stats_.wall_ms * 1e-3);
  }
}

}  // namespace fsi
