// Sharded scatter-gather scaling: shard count × scatter threads × query
// mix (docs/SERVING.md).
//
// Each configuration builds one ShardedEngine over a fixed-seed corpus
// and serves a fixed query log through Serve, one query at a time (no
// deadline: the run measures scatter parallelism, not degradation).  "shards:1" is the
// serial baseline — a single per-shard engine answering on one pool
// task — so the items_per_second ratio of shards:8 over shards:1 at the
// same thread count is the speedup the serving layer buys on one query's
// wall-clock.  Per-config p50/p95/p99 latency counters feed the
// ``sharding_scaling`` table of scripts/bench_summary.py; CI gates the
// 8-shard speedup at >= 3x on its 4-core runners (docs/BENCHMARKS.md).
//
// Query mixes:
//  * broad — two large lists with a fat intersection (the expensive
//    head-query shape where sharding matters most);
//  * multi — four mid-size lists, selective result (the many-term
//    conjunctive shape of EMBANKS-style keyword search).

#include <benchmark/benchmark.h>

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "bench/bench_util.h"
#include "serve/sharded_engine.h"
#include "util/rng.h"
#include "util/stats.h"
#include "workload/synthetic.h"

namespace {

using namespace fsi;
using namespace fsi::bench;

constexpr std::size_t kBatch = 24;  // queries served per iteration

// The universe and list sizes are chosen so one query costs ~1ms serially
// in Release: chunky enough that an 8-way scatter's per-shard slice
// (~1/8 of that) still dwarfs the per-task overhead — the regime the
// serving layer targets, and the one the CI gate measures.
Elem Universe() {
  return FullScale() ? Elem{1} << 25 : Elem{1} << 22;
}

struct Mix {
  const char* name;
  std::uint64_t seed;
  std::vector<std::size_t> sizes;
  std::size_t intersection;
};

const std::vector<Mix>& Mixes() {
  static const std::vector<Mix>* mixes = [] {
    const std::size_t scale = FullScale() ? 4 : 1;
    return new std::vector<Mix>{
        {"broad", 0x5AA2D1A601ULL,
         {scale * 1500000, scale * 1200000}, scale * 200000},
        {"multi", 0x5AA2D1A602ULL,
         {scale * 600000, scale * 480000, scale * 400000, scale * 320000},
         scale * 30000},
    };
  }();
  return *mixes;
}

const std::vector<ElemList>& Lists(const Mix& mix) {
  static std::map<std::string, std::vector<ElemList>> cache;
  auto it = cache.find(mix.name);
  if (it == cache.end()) {
    Xoshiro256 rng(mix.seed);
    it = cache.emplace(mix.name,
                       GenerateIntersectingSets(mix.sizes, mix.intersection,
                                                Universe(), rng))
             .first;
  }
  return it->second;
}

/// One built configuration: the engine, its sharded sets, and a log of
/// kBatch identical-shape queries.  Only the most recent configuration is
/// kept (each registration runs once, in order), so peak memory is one
/// engine's structures, not sixteen.
struct Ctx {
  ShardedEngine engine;
  std::vector<ShardedSet> sets;
  std::vector<ShardedEngine::ShardedQuery> log;
};

Ctx& GetCtx(const Mix& mix, std::size_t shards, std::size_t threads) {
  using Key = std::tuple<std::string, std::size_t, std::size_t>;
  static Key cached_key;
  static std::unique_ptr<Ctx> cached;
  const Key key{mix.name, shards, threads};
  if (cached == nullptr || key != cached_key) {
    cached.reset();  // free the previous engine before building the next
    auto ctx = std::unique_ptr<Ctx>(
        new Ctx{ShardedEngine({.num_shards = shards,
                               .universe_bound = Universe(),
                               .num_threads = threads}),
                {},
                {}});
    const std::vector<ElemList>& lists = Lists(mix);
    ctx->sets.reserve(lists.size());
    for (const ElemList& list : lists) {
      ctx->sets.push_back(ctx->engine.Prepare(list));
    }
    ShardedEngine::ShardedQuery query;
    for (const ShardedSet& set : ctx->sets) query.push_back(&set);
    ctx->log.assign(kBatch, query);
    cached = std::move(ctx);
    cached_key = key;
  }
  return *cached;
}

void BM_Sharding(benchmark::State& state, const Mix& mix, std::size_t shards,
                 std::size_t threads) {
  Ctx& ctx = GetCtx(mix, shards, threads);
  std::size_t served = 0;
  std::size_t result_size = 0;
  SampleStats latency;
  for (auto _ : state) {
    for (const ShardedEngine::ShardedQuery& query : ctx.log) {
      ServeResult result = ctx.engine.Serve(query);
      benchmark::DoNotOptimize(result.elems.data());
      latency.Add(result.wall_micros);
      result_size = result.result_size;
      ++served;
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(served));
  state.counters["shards"] = static_cast<double>(shards);
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["p50_us"] = latency.Percentile(0.50);
  state.counters["p95_us"] = latency.Percentile(0.95);
  state.counters["p99_us"] = latency.Percentile(0.99);
  state.counters["result_size"] = static_cast<double>(result_size);
}

void RegisterAll() {
  const std::vector<std::size_t> shard_counts = {1, 2, 4, 8};
  const std::vector<std::size_t> thread_counts = {2, 4};
  for (const Mix& mix : Mixes()) {
    for (std::size_t threads : thread_counts) {
      for (std::size_t shards : shard_counts) {
        const std::string name = std::string("sharding/") + mix.name +
                                 "/shards:" + std::to_string(shards) +
                                 "/threads:" + std::to_string(threads);
        benchmark::RegisterBenchmark(
            name.c_str(),
            [&mix, shards, threads](benchmark::State& state) {
              BM_Sharding(state, mix, shards, threads);
            })
            ->Unit(benchmark::kMillisecond)
            ->UseRealTime()
            ->MeasureProcessCPUTime()
            ->Iterations(FullScale() ? 8 : 3);
      }
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
