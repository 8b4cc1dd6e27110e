// A sharded mini search tier — scatter-gather serving with SLOs.
//
// search_engine.cpp demonstrates the single-threaded query path; this
// example is the deployment shape the paper motivates ("interactive
// search", latency budgets, heavy traffic): a ShardedEngine partitions
// the document-id universe into shards, each with its own planner
// engine, and every conjunctive query scatters across all shards with a
// per-query deadline.  Concurrent front-end threads drive a Bing-like
// query log through admission control, and the run reports a serving
// SLO table — p50/p95/p99 latency plus deadline-miss and rejection
// counts per thread count (docs/SERVING.md).
//
//   ./build/examples/search_server
//   ./build/examples/search_server 200000   # more queries
//   ./build/examples/search_server 20000 /tmp/index.fsisnap
//     # second run cold-starts from the per-shard snapshot images
//     # (docs/PERSISTENCE.md): the posting-list build is skipped and
//     # every shard is mmap'd zero-copy.  An unreadable or corrupt
//     # snapshot is reported with its typed SnapshotError and the
//     # server falls back to rebuilding (and re-saving) the index.
//
//   ./build/examples/search_server 20000 /tmp/index.fsisnap 16 5000
//     # 16 shards, 5000µs per-query deadline

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "fsi.h"
#include "util/stats.h"
#include "util/timer.h"
#include "workload/corpus.h"

int main(int argc, char** argv) {
  using namespace fsi;

  const std::size_t num_queries =
      argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 20000;
  const std::string snapshot_path = argc > 2 ? argv[2] : "";
  const std::size_t num_shards =
      argc > 3 ? std::strtoul(argv[3], nullptr, 10) : 8;
  const std::chrono::microseconds deadline{
      argc > 4 ? std::strtol(argv[4], nullptr, 10) : 5000};

  SyntheticCorpus::Options co;
  co.num_docs = 1 << 17;
  co.vocabulary = 4000;
  SyntheticCorpus corpus(co);

  QueryWorkload::Options qo;
  qo.num_queries = num_queries;
  QueryWorkload workload(corpus, qo);

  // One ShardedSet per vocabulary term: the serving tier's "index".
  // Either cold-started from per-shard snapshot images or built from the
  // corpus postings.  ShardedEngine is immovable (it owns the scatter
  // pool), hence the prvalue-into-new constructions below.
  std::unique_ptr<LoadedShardedSnapshot> loaded;
  std::unique_ptr<ShardedEngine> built;
  bool need_rebuild = snapshot_path.empty();
  if (!snapshot_path.empty()) {
    Timer load;
    try {
      loaded.reset(new LoadedShardedSnapshot(
          ShardedEngine::LoadSnapshot(snapshot_path)));
      std::size_t mapped = 0, zero_copy = 0, total = 0;
      for (const SnapshotInfo& info : loaded->shard_infos) {
        mapped += info.mapped_bytes;
        zero_copy += info.sets_zero_copy;
        total += info.sets_total;
      }
      std::printf(
          "cold start from %s: %.1f ms (%zu shards, %zu sets, "
          "%zu bytes mapped, %zu/%zu sets zero-copy)\n",
          snapshot_path.c_str(), load.ElapsedMillis(),
          loaded->engine.num_shards(), loaded->sets.size(), mapped,
          zero_copy, total);
    } catch (const storage::SnapshotError& error) {
      // Surface the typed error and rebuild.  A plain missing image
      // (kIo) is the normal first run — quiet.
      if (error.code() != storage::SnapshotErrorCode::kIo) {
        std::fprintf(stderr,
                     "warning: snapshot %s unusable (%s); rebuilding\n",
                     snapshot_path.c_str(), error.what());
      }
      need_rebuild = true;
    }
  }
  if (loaded == nullptr) {
    std::printf("building sharded index (%zu shards, Planner per shard)...\n",
                num_shards);
    built.reset(new ShardedEngine(
        {.num_shards = num_shards,
         .universe_bound = static_cast<Elem>(corpus.num_docs())}));
    (void)need_rebuild;
  }
  ShardedEngine& engine = loaded ? loaded->engine : *built;

  std::vector<ShardedSet> sets;
  if (loaded) {
    sets = std::move(loaded->sets);
  } else {
    sets.reserve(corpus.num_terms());
    for (std::size_t t = 0; t < corpus.num_terms(); ++t) {
      sets.push_back(engine.Prepare(corpus.postings(t)));
    }
    if (!snapshot_path.empty()) {
      std::vector<const ShardedSet*> ptrs;
      ptrs.reserve(sets.size());
      for (const ShardedSet& set : sets) ptrs.push_back(&set);
      engine.SaveSnapshot(snapshot_path,
                          std::span<const ShardedSet* const>(ptrs));
      std::printf("saved snapshot: %s (next run cold-starts from it)\n",
                  snapshot_path.c_str());
    }
  }

  // The query log: term-id tuples resolved to sharded-set pointers.
  std::vector<ShardedEngine::ShardedQuery> log;
  log.reserve(workload.queries().size());
  for (const TermQuery& q : workload.queries()) {
    ShardedEngine::ShardedQuery query;
    query.reserve(q.size());
    for (std::size_t t : q) query.push_back(&sets[t]);
    log.push_back(std::move(query));
  }

  std::printf(
      "serving %zu conjunctive queries over %zu documents "
      "(%zu shards, %lldus deadline, %zu-slot admission gate)\n\n",
      log.size(), corpus.num_docs(), engine.num_shards(),
      static_cast<long long>(deadline.count()),
      engine.options().max_in_flight);
  std::printf("%9s %9s %11s %8s %8s %8s %8s %8s %8s\n", "frontends",
              "wall_ms", "queries/s", "p50_us", "p95_us", "p99_us", "ok",
              "partial", "rejected");

  const std::size_t hw = ThreadPool::DefaultConcurrency();
  std::vector<std::size_t> frontend_counts = {1, 2, 4};
  if (hw > 4) frontend_counts.push_back(hw);

  for (std::size_t frontends : frontend_counts) {
    std::atomic<std::size_t> cursor{0};
    std::atomic<std::size_t> ok{0}, partial{0}, rejected{0};
    std::mutex merge_mutex;
    SampleStats latency;  // guarded by merge_mutex

    Timer wall;
    std::vector<std::thread> threads;
    threads.reserve(frontends);
    for (std::size_t f = 0; f < frontends; ++f) {
      threads.emplace_back([&] {
        std::vector<double> local;
        local.reserve(log.size());
        for (;;) {
          const std::size_t i =
              cursor.fetch_add(1, std::memory_order_relaxed);
          if (i >= log.size()) break;
          ServeResult result = engine.Serve(
              std::span<const ShardedSet* const>(log[i].data(),
                                                 log[i].size()),
              {.deadline = deadline, .count_only = true});
          switch (result.status) {
            case ServeStatus::kOk:
              ok.fetch_add(1, std::memory_order_relaxed);
              break;
            case ServeStatus::kRejected:
              rejected.fetch_add(1, std::memory_order_relaxed);
              break;
            default:  // kPartial / kExpired: deadline misses
              partial.fetch_add(1, std::memory_order_relaxed);
              break;
          }
          if (result.status != ServeStatus::kRejected) {
            local.push_back(result.wall_micros);
          }
        }
        std::lock_guard<std::mutex> lock(merge_mutex);
        for (double micros : local) latency.Add(micros);
      });
    }
    for (std::thread& thread : threads) thread.join();
    const double wall_ms = wall.ElapsedMillis();
    std::printf("%9zu %9.1f %11.0f %8.1f %8.1f %8.1f %8zu %8zu %8zu\n",
                frontends, wall_ms,
                wall_ms > 0 ? static_cast<double>(log.size()) /
                                  (wall_ms * 1e-3)
                            : 0.0,
                latency.Percentile(0.50), latency.Percentile(0.95),
                latency.Percentile(0.99), ok.load(), partial.load(),
                rejected.load());
  }

  const ServeCounters counters = engine.counters();
  std::printf(
      "\nserving counters: %llu admitted, %llu rejected, %llu deadline "
      "misses, %llu served\n",
      static_cast<unsigned long long>(counters.admitted),
      static_cast<unsigned long long>(counters.rejected),
      static_cast<unsigned long long>(counters.deadline_misses),
      static_cast<unsigned long long>(counters.served));
  std::printf(
      "scatter pool: %zu workers; every query fans out over %zu shards\n"
      "and gathers until its deadline — misses degrade to partial\n"
      "results instead of blocking (docs/SERVING.md).\n",
      engine.num_threads(), engine.num_shards());
  return 0;
}
