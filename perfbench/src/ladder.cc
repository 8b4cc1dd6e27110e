// The traced run: a fixed sample of the workload's queries timed at each
// layer's public entry point, from the SIMD kernel up to ShardedEngine
// and InvertedIndex.  Every call is one span (SpanRecorder); the metrics
// are computed from the spans, and every result is checked against the
// oracle.  Rungs run warm (one untimed call first) and, on a smaller
// fixed sample, cold (right after CacheBuster evicted the working set).
// Stages build their structures, time them and free them again, so the
// peak footprint stays near that of one engine.

#include <algorithm>
#include <cstdio>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>

#include "api/batch_runner.h"
#include "api/engine.h"
#include "api/expr.h"
#include "api/planner.h"
#include "api/registry.h"
#include "bench.h"
#include "index/inverted_index.h"
#include "serve/sharded_engine.h"
#include "simd/intersect_kernels.h"

namespace perfbench {
namespace {

using fsi::Expr;
using fsi::PreparedSet;
using fsi::ShardedEngine;
using fsi::ShardedSet;

/// A served result; any status but kOk counts as a failed operation.
fsi::ServeResult Ok(fsi::ServeResult r) {
  if (!r.ok()) throw std::runtime_error("serve status " + std::string(fsi::ToString(r.status)));
  return r;
}

const char* const kCoreAlgorithms[] = {"Merge",        "SvS",     "Lookup",
                                       "RanGroupScan", "HashBin", "Hybrid"};

/// The sample the ladder runs, and its oracle.
struct Sample {
  /// Conjunctive queries: every rung runs these.
  std::vector<TermQuery> flat;
  /// The first `cold` flat queries also run cold.
  std::size_t cold = 0;
  /// Oracle digests of `flat`.
  std::vector<std::uint64_t> want_flat;
  double mean_result = 0;
  /// Distinct terms of `flat`.
  std::vector<std::uint32_t> terms;
};

class Ladder {
 public:
  Ladder(const Options& opt, const WorkloadData& data, Report* report)
      : opt_(opt), data_(data), report_(report) {}

  void Run();

 private:
  // One timed call; exceptions count as failed operations.
  bool Call(const char* rung, std::int64_t query,
            const std::function<void()>& fn, double* ns = nullptr) {
    std::int32_t span = rec_.Begin(rec_.Intern(rung), query, stage_);
    bool ok = true;
    try {
      fn();
    } catch (const std::exception& e) {
      ok = false;
      if (errors_++ < 4) report_->Note(std::string(rung) + ": " + e.what());
    }
    rec_.End(span);
    report_->Attempt(ok);
    if (ns != nullptr) *ns = rec_.DurationNs(span);
    return ok;
  }
  /// Runs `fn` once untimed, then as the timed span `rung`.
  bool Warm(const char* rung, std::int64_t query,
            const std::function<void()>& fn, double* ns = nullptr) {
    try {
      fn();
    } catch (const std::exception&) {
    }
    return Call(rung, query, fn, ns);
  }
  /// Evicts the caches, then runs `fn` as the timed span `rung`.
  bool Cold(const char* rung, std::int64_t query,
            const std::function<void()>& fn) {
    buster_.Bust();
    return Call(rung, query, fn);
  }
  void BeginStage(const char* name) {
    stage_ = rec_.Begin(rec_.Intern(name), -1);
  }
  void EndStage() {
    rec_.End(stage_);
    stage_ = -1;
  }
  void Check(std::uint64_t got, std::uint64_t want, const char* rung,
             std::size_t query) {
    if (got != want) {
      report_->Mismatch(std::string(rung) + " query " + std::to_string(query));
    }
  }
  void Set(const std::string& name, double value, const char* unit) {
    report_->Set(name, value, unit);
  }
  double MeanNs(const char* rung) const { return rec_.MeanNs(rung); }

  void MakeSample();
  void KernelStage();
  void CoreStage();
  void ApiStage();
  void MemoStage();
  void ServeStage();
  void MutableStage();
  void Ledger();

  const Options& opt_;
  const WorkloadData& data_;
  Report* report_;
  SpanRecorder rec_;
  CacheBuster buster_;
  std::int32_t stage_ = -1;
  std::size_t errors_ = 0;
  Sample s_;
  /// Per flat query: fastest raw algorithm time and its name.
  std::vector<double> best_ns_;
  std::vector<std::string> winner_;
};

void Ladder::MakeSample() {
  const bool tiny = opt_.tiny();
  const std::vector<ElemList>& postings = data_.corpus.postings;
  const std::size_t n = std::min<std::size_t>(data_.log.size(), tiny ? 100 : 400);
  s_.flat.assign(data_.log.begin(), data_.log.begin() + static_cast<long>(n));
  s_.cold = std::min<std::size_t>(s_.flat.size(), tiny ? 4 : 12);
  std::set<std::uint32_t> terms;
  double results = 0;
  for (const TermQuery& q : s_.flat) {
    terms.insert(q.begin(), q.end());
    std::vector<const ElemList*> lists;
    for (std::uint32_t t : q) lists.push_back(&postings[t]);
    std::size_t size = 0;
    s_.want_flat.push_back(OracleAndDigest(lists, &size));
    results += static_cast<double>(size);
  }
  s_.mean_result = s_.flat.empty() ? 0 : results / static_cast<double>(s_.flat.size());
  s_.terms.assign(terms.begin(), terms.end());
  report_->Note("ladder sample: " + std::to_string(s_.flat.size()) +
                " conjunctive queries (" + std::to_string(s_.cold) + " cold), " +
                std::to_string(s_.terms.size()) + " terms; cold buster " +
                std::to_string(buster_.bytes() >> 20) + " MiB");
}

void Ladder::KernelStage() {
  BeginStage("stage.simd");
  const fsi::simd::Kernels& k = fsi::simd::DispatchedKernels();
  const std::vector<ElemList>& postings = data_.corpus.postings;
  ElemList out, tmp;
  for (std::size_t qi = 0; qi < s_.flat.size(); ++qi) {
    std::vector<const ElemList*> lists;
    for (std::uint32_t t : s_.flat[qi]) lists.push_back(&postings[t]);
    std::sort(lists.begin(), lists.end(),
              [](const ElemList* a, const ElemList* b) { return a->size() < b->size(); });
    auto pairwise = [&] {
      out.clear();
      k.intersect_pair(lists[0]->data(), lists[0]->size(), lists[1]->data(),
                       lists[1]->size(), &out);
      for (std::size_t i = 2; i < lists.size(); ++i) {
        tmp.clear();
        k.intersect_pair(out.data(), out.size(), lists[i]->data(),
                         lists[i]->size(), &tmp);
        out.swap(tmp);
      }
    };
    if (Warm("simd.pair", static_cast<std::int64_t>(qi), pairwise)) {
      Check(Digest(out), s_.want_flat[qi], "simd.pair", qi);
    }
    if (qi < s_.cold) Cold("simd.pair.cold", static_cast<std::int64_t>(qi), pairwise);
  }
  EndStage();
}

void Ladder::CoreStage() {
  const std::vector<ElemList>& postings = data_.corpus.postings;
  best_ns_.assign(s_.flat.size(), 1e300);
  winner_.assign(s_.flat.size(), "");
  std::vector<double> best_cold(s_.cold, 1e300);
  for (const char* name : kCoreAlgorithms) {
    BeginStage("stage.core");
    std::unique_ptr<fsi::IntersectionAlgorithm> alg =
        fsi::AlgorithmRegistry::Global().Create(name);
    std::unordered_map<std::uint32_t, std::unique_ptr<fsi::PreprocessedSet>> sets;
    for (const TermQuery& q : s_.flat) {
      for (std::uint32_t t : q) {
        if (!sets.count(t)) sets[t] = alg->Preprocess(postings[t]);
      }
    }
    const std::string rung = std::string("core.") + name;
    const std::string cold_rung = rung + ".cold";
    ElemList out;
    for (std::size_t qi = 0; qi < s_.flat.size(); ++qi) {
      std::vector<const fsi::PreprocessedSet*> in;
      for (std::uint32_t t : s_.flat[qi]) in.push_back(sets[t].get());
      auto run = [&] {
        out.clear();
        alg->Intersect(in, &out);
      };
      double ns = 0;
      if (Warm(rung.c_str(), static_cast<std::int64_t>(qi), run, &ns)) {
        Check(Digest(out), s_.want_flat[qi], rung.c_str(), qi);
        if (ns < best_ns_[qi]) {
          best_ns_[qi] = ns;
          winner_[qi] = name;
        }
      }
      if (qi < s_.cold) {
        buster_.Bust();
        double cold_ns = 0;
        if (Call(cold_rung.c_str(), static_cast<std::int64_t>(qi), run, &cold_ns)) {
          best_cold[qi] = std::min(best_cold[qi], cold_ns);
        }
      }
    }
    EndStage();
  }
  std::map<std::string, std::size_t> wins;
  for (const std::string& w : winner_) ++wins[w];
  for (const char* name : kCoreAlgorithms) {
    Set(std::string("core.win_share.") + name,
        static_cast<double>(wins[name]) / static_cast<double>(winner_.size()),
        "ratio");
  }
  Set("core.best_ns", Mean(best_ns_), "ns");
  Set("core.best_cold_ns", Mean(best_cold), "ns");
}

void Ladder::ApiStage() {
  BeginStage("stage.api");
  const std::vector<ElemList>& postings = data_.corpus.postings;
  fsi::Engine engine(kPlannerSpec, {.expr_cache_bytes = 0});
  std::unordered_map<std::uint32_t, PreparedSet> sets;
  for (std::uint32_t t : s_.terms) sets[t] = engine.Prepare(postings[t]);
  auto ptrs = [&](const TermQuery& q) {
    std::vector<const PreparedSet*> out;
    for (std::uint32_t t : q) out.push_back(&sets[t]);
    return out;
  };
  std::size_t picked_best = 0, within_2x = 0;
  double scanned = 0, results = 0, regret_num = 0, regret_den = 0;
  ElemList out;
  for (std::size_t qi = 0; qi < s_.flat.size(); ++qi) {
    const auto in = ptrs(s_.flat[qi]);
    const auto id = static_cast<std::int64_t>(qi);
    std::unique_ptr<fsi::Query> query;
    auto plan = [&] { query = std::make_unique<fsi::Query>(engine.Query(in)); };
    Warm("api.plan", id, plan);
    if (query == nullptr) continue;
    fsi::QueryStats stats;
    double exec_ns = 0;
    if (Warm("api.exec", id, [&] { stats = query->ExecuteInto(&out); }, &exec_ns)) {
      Check(Digest(out), s_.want_flat[qi], "api.exec", qi);
      scanned += static_cast<double>(stats.elements_scanned);
      results += static_cast<double>(stats.result_size);
      double predicted_ns = stats.predicted_micros * 1e3;
      within_2x += predicted_ns >= 0.5 * exec_ns && predicted_ns <= 2.0 * exec_ns;
      regret_num += exec_ns;
      regret_den += best_ns_[qi];
      const fsi::QueryPlan p = query->Explain();
      bool chose = !p.steps.empty();
      for (const fsi::PlanStep& step : p.steps) chose = chose && step.algorithm == winner_[qi];
      picked_best += chose;
    }
    if (qi < s_.cold) {
      Cold("api.plan.cold", id, plan);
      Cold("api.exec.cold", id, [&] { query->ExecuteInto(&out); });
    }
  }
  const double n = static_cast<double>(std::max<std::size_t>(s_.flat.size(), 1));
  Set("api.plan_ns", MeanNs("api.plan"), "ns");
  Set("api.plan_cold_ns", MeanNs("api.plan.cold"), "ns");
  Set("api.exec_ns", MeanNs("api.exec"), "ns");
  Set("api.exec_cold_ns", MeanNs("api.exec.cold"), "ns");
  Set("api.regret", regret_den > 0 ? regret_num / regret_den : 0, "ratio");
  Set("api.pick_best_share", static_cast<double>(picked_best) / n, "ratio");
  Set("api.within_2x", static_cast<double>(within_2x) / n, "ratio");
  Set("api.scanned_per_result", scanned / std::max(results, 1.0), "ratio");

  // Expressions through the same (uncached) engine: each query as an And
  // of its leaves.
  for (std::size_t qi = 0; qi < s_.flat.size(); ++qi) {
    std::vector<Expr> leaves;
    for (std::uint32_t t : s_.flat[qi]) leaves.push_back(Expr::Set(sets[t]));
    const Expr e = Expr::And(std::move(leaves));
    auto run = [&] { engine.Query(e).ExecuteInto(&out); };
    const auto id = static_cast<std::int64_t>(qi);
    if (Warm("api.expr", id, run)) Check(Digest(out), s_.want_flat[qi], "api.expr", qi);
    if (qi < s_.cold) Cold("api.expr.cold", id, run);
  }
  Set("api.expr_ns", MeanNs("api.expr"), "ns");
  Set("api.expr_cold_ns", MeanNs("api.expr.cold"), "ns");
  Set("api.expr_overhead_ns",
      MeanNs("api.expr") - MeanNs("api.plan") - MeanNs("api.exec"), "ns");
  MemoStage();

  // BatchRunner throughput over the flat sample, repeated to >= 0.2 s.
  std::vector<fsi::BatchQuery> batch;
  for (const TermQuery& q : s_.flat) batch.push_back(ptrs(q));
  for (std::size_t threads : {std::size_t{1}, opt_.nproc}) {
    fsi::BatchRunner runner(engine, {.num_threads = threads});
    std::size_t done = 0;
    const std::int64_t start = NowNs();
    do {
      std::vector<ElemList> got;
      Call(threads == 1 ? "api.batch_1t" : "api.batch_nt", -1,
           [&] { got = runner.Materialize(batch); });
      for (std::size_t qi = 0; qi < got.size(); ++qi) {
        Check(Digest(got[qi]), s_.want_flat[qi], "api.batch", qi);
      }
      done += batch.size();
    } while (NowNs() - start < 200'000'000);
    const double secs = static_cast<double>(NowNs() - start) * 1e-9;
    Set(threads == 1 ? "api.batch_qps_1t" : "api.batch_qps_nt",
        static_cast<double>(done) / secs, "1/s");
  }
  EndStage();
}

void Ladder::ServeStage() {
  const std::vector<ElemList>& postings = data_.corpus.postings;
  double handoff_base = MeanNs("api.plan") + MeanNs("api.exec");
  for (std::size_t shards : {std::size_t{1}, opt_.shards}) {
    const bool single = shards == 1;
    BeginStage(single ? "stage.serve1" : "stage.serveN");
    ShardedEngine engine({.num_shards = shards,
                          .universe_bound = static_cast<Elem>(data_.corpus.num_docs),
                          .spec = kPlannerSpec,
                          .num_threads = opt_.pool_threads});
    std::unordered_map<std::uint32_t, ShardedSet> sets;
    for (std::uint32_t t : s_.terms) sets[t] = engine.Prepare(postings[t]);
    auto ptrs = [&](const TermQuery& q) {
      ShardedEngine::ShardedQuery out;
      for (std::uint32_t t : q) out.push_back(&sets[t]);
      return out;
    };
    const char* rung = single ? "serve.s1" : "serve.sN";
    const char* cold_rung = single ? "serve.s1.cold" : "serve.sN.cold";
    std::vector<double> skew;
    for (std::size_t qi = 0; qi < s_.flat.size(); ++qi) {
      const auto in = ptrs(s_.flat[qi]);
      const auto id = static_cast<std::int64_t>(qi);
      fsi::ServeResult r;
      auto serve = [&] { r = Ok(engine.Serve(in)); };
      if (Warm(rung, id, serve)) Check(Digest(r.elems), s_.want_flat[qi], rung, qi);
      if (qi < s_.cold) Cold(cold_rung, id, serve);
      if (single) continue;
      // Per-shard engine time: the slowest shard over the mean shard.
      std::vector<double> shard_ns;
      ElemList out;
      for (std::size_t sh = 0; sh < engine.num_shards(); ++sh) {
        std::vector<const PreparedSet*> local;
        for (const ShardedSet* set : in) local.push_back(&set->shard(sh));
        double ns = 0;
        Warm("serve.shard", id, [&] { engine.shard_engine(sh).Query(local).ExecuteInto(&out); }, &ns);
        shard_ns.push_back(ns);
      }
      double mean = Mean(shard_ns);
      if (mean > 0) skew.push_back(*std::max_element(shard_ns.begin(), shard_ns.end()) / mean);
    }
    if (single) {
      Set("serve.s1_ns", MeanNs("serve.s1"), "ns");
      Set("serve.s1_cold_ns", MeanNs("serve.s1.cold"), "ns");
      Set("serve.handoff_ns", MeanNs("serve.s1") - handoff_base, "ns");
      EndStage();
      continue;
    }
    Set("serve.sN_ns", MeanNs("serve.sN"), "ns");
    Set("serve.sN_cold_ns", MeanNs("serve.sN.cold"), "ns");
    Set("serve.scatter_speedup", MeanNs("serve.s1") / std::max(MeanNs("serve.sN"), 1.0), "ratio");
    Set("serve.shard_skew", Mean(skew), "ratio");

    // Tracing overhead: the flat sample served with and without spans.
    double plain_s = 0, traced_s = 0;
    for (int round = 0; round < 2; ++round) {
      std::int64_t start = NowNs();
      for (const TermQuery& q : s_.flat) engine.Serve(ptrs(q));
      plain_s += static_cast<double>(NowNs() - start);
      start = NowNs();
      for (std::size_t qi = 0; qi < s_.flat.size(); ++qi) {
        const auto in = ptrs(s_.flat[qi]);
        Call("serve.traced", static_cast<std::int64_t>(qi), [&] { Ok(engine.Serve(in)); });
      }
      traced_s += static_cast<double>(NowNs() - start);
    }
    Set("trace.overhead", traced_s / std::max(plain_s, 1.0), "ratio");
    EndStage();
  }
}

void Ladder::MemoStage() {
  // The expression cache: the head of the log as Ands, in log order
  // (repeats included), through one planner engine whose cache holds a
  // quarter of the default budget, so the stream's distinct results
  // overflow it and evictions happen.
  const std::vector<ElemList>& postings = data_.corpus.postings;
  const std::size_t n = std::min<std::size_t>(data_.log.size(), opt_.tiny() ? 300 : 10000);
  fsi::Engine engine(kPlannerSpec, {.expr_cache_bytes = 4u << 20});
  std::unordered_map<std::uint32_t, PreparedSet> sets;
  std::unordered_map<std::uint64_t, std::uint64_t> want;
  for (std::size_t qi = 0; qi < n; ++qi) {
    const TermQuery& q = data_.log[qi];
    for (std::uint32_t t : q) {
      if (!sets.count(t)) sets[t] = engine.Prepare(postings[t]);
    }
    std::uint64_t& w = want[QueryKey(q)];
    if (w == 0) {
      std::vector<const ElemList*> lists;
      for (std::uint32_t t : q) lists.push_back(&postings[t]);
      w = OracleAndDigest(lists);
    }
  }
  ElemList out;
  for (std::size_t qi = 0; qi < n; ++qi) {
    std::vector<Expr> leaves;
    for (std::uint32_t t : data_.log[qi]) leaves.push_back(Expr::Set(sets[t]));
    const Expr e = Expr::And(std::move(leaves));
    if (Call("api.memo", static_cast<std::int64_t>(qi),
             [&] { engine.Query(e).ExecuteInto(&out); })) {
      Check(Digest(out), want[QueryKey(data_.log[qi])], "api.memo", qi);
    }
  }
  const fsi::ExprCacheStats st = engine.expr_cache()->stats();
  const double hits = static_cast<double>(st.hits);
  const double misses = static_cast<double>(st.misses);
  Set("api.expr_cache_hits", hits, "count");
  Set("api.expr_cache_misses", misses, "count");
  Set("api.expr_cache_hit_rate", hits + misses > 0 ? hits / (hits + misses) : 0, "ratio");
  Set("api.expr_cache_evictions", static_cast<double>(st.evictions), "count");
  report_->Note("expression cache: " + std::to_string(n) + " log queries, " +
                std::to_string(want.size()) + " distinct");
}

void Ladder::MutableStage() {
  BeginStage("stage.mutable");
  const Corpus& corpus = data_.corpus;
  // Twins of every term, with the default compaction policy; the stage's
  // queries are the flat sample.
  const std::vector<TermQuery>& sample = s_.flat;
  const std::set<std::uint32_t> sample_terms(s_.terms.begin(), s_.terms.end());
  std::vector<std::uint32_t> twin_terms;
  for (std::size_t t = 0; t < corpus.postings.size(); ++t) {
    twin_terms.push_back(static_cast<std::uint32_t>(t));
  }
  const fsi::MutableSetOptions options;
  fsi::Engine engine(kPlannerSpec);
  std::unordered_map<std::uint32_t, PreparedSet> twins;
  // (doc, term) pairs sorted by document: the forward index of the twins.
  std::vector<std::pair<Elem, std::uint32_t>> doc_terms;
  for (std::uint32_t t : twin_terms) {
    twins[t] = engine.PrepareMutable(corpus.postings[t], options);
    for (Elem d : corpus.postings[t]) doc_terms.emplace_back(d, t);
  }
  std::sort(doc_terms.begin(), doc_terms.end());
  auto terms_of = [&](Elem doc) {
    std::vector<std::uint32_t> out;
    auto it = std::lower_bound(doc_terms.begin(), doc_terms.end(),
                               std::pair<Elem, std::uint32_t>(doc, 0));
    for (; it != doc_terms.end() && it->first == doc; ++it) out.push_back(it->second);
    return out;
  };
  auto names_of = [&](const std::vector<std::uint32_t>& terms) {
    std::vector<std::string> out;
    for (std::uint32_t t : terms) out.push_back("t" + std::to_string(t));
    return out;
  };
  fsi::InvertedIndex index{fsi::Engine(kPlannerSpec)};
  for (std::size_t i = 0; i < doc_terms.size();) {
    std::size_t j = i;
    std::vector<std::uint32_t> terms;
    while (j < doc_terms.size() && doc_terms[j].first == doc_terms[i].first) {
      terms.push_back(doc_terms[j++].second);
    }
    index.AddDocument(doc_terms[i].first, names_of(terms));
    i = j;
  }
  index.FinalizeUpdatable(options);

  auto twin_ptrs = [&](const TermQuery& q) {
    std::vector<const PreparedSet*> out;
    for (std::uint32_t t : q) out.push_back(&twins[t]);
    return out;
  };
  ElemList out;
  for (std::size_t qi = 0; qi < sample.size(); ++qi) {
    const auto id = static_cast<std::int64_t>(qi);
    const auto in = twin_ptrs(sample[qi]);
    const auto terms = names_of(sample[qi]);
    std::vector<const ElemList*> lists;
    for (std::uint32_t t : sample[qi]) lists.push_back(&corpus.postings[t]);
    const std::uint64_t want = OracleAndDigest(lists);
    if (Warm("index.query", id, [&] { out = index.Query(terms); })) {
      Check(Digest(out), want, "index.query", qi);
    }
    Warm("index.engine_query", id, [&] { out = engine.Query(in).Materialize(); });
  }
  Set("index.query_overhead_ns", MeanNs("index.query") - MeanNs("index.engine_query"), "ns");

  // The update script: erase a document from its twin terms, insert a
  // fresh document id into the same terms.  The index and the twins
  // receive the same updates; `plain` is the oracle's copy.
  std::unordered_map<std::uint32_t, ElemList> plain;
  for (std::uint32_t t : twin_terms) plain[t] = corpus.postings[t];
  Rng rng(SubSeed(opt_.seed, 8));
  const std::size_t ops = opt_.tiny() ? 50 : 200;
  std::vector<double> underneath;
  std::set<Elem> erased;
  for (std::size_t u = 0; u < ops; ++u) {
    Elem victim = 0;
    do {
      victim = doc_terms[rng.Below(doc_terms.size())].first;
    } while (!erased.insert(victim).second);
    const std::vector<std::uint32_t> terms = terms_of(victim);
    Elem fresh = 0;
    bool absent = false;
    while (!absent) {
      fresh = static_cast<Elem>(rng.Below(corpus.num_docs));
      absent = true;
      for (std::uint32_t t : terms) {
        absent = absent && !std::binary_search(plain[t].begin(), plain[t].end(), fresh);
      }
    }
    const auto names = names_of(terms);
    for (const bool erase : {true, false}) {
      const Elem doc = erase ? victim : fresh;
      std::size_t changed = 0;
      Call(erase ? "index.erase" : "index.insert", static_cast<std::int64_t>(u), [&] {
        changed = erase ? index.EraseDocument(doc, names) : index.InsertDocument(doc, names);
      });
      if (changed != terms.size()) report_->Mismatch("index update " + std::to_string(u));
      double twin_ns = 0;
      for (std::uint32_t t : terms) {
        double ns = 0;
        bool did = false;
        Call(erase ? "mutable.erase" : "mutable.insert", static_cast<std::int64_t>(u),
             [&] { did = erase ? twins[t].Erase(doc) : twins[t].Insert(doc); }, &ns);
        twin_ns += ns;
        if (!did) report_->Mismatch("twin update " + std::to_string(u));
        ElemList& p = plain[t];
        auto it = std::lower_bound(p.begin(), p.end(), doc);
        if (erase) {
          p.erase(it);
        } else {
          p.insert(it, doc);
        }
      }
      underneath.push_back(twin_ns);
    }
  }
  std::vector<double> index_updates = rec_.Durations("index.erase");
  std::vector<double> inserts = rec_.Durations("index.insert");
  index_updates.insert(index_updates.end(), inserts.begin(), inserts.end());
  Set("index.update_overhead_ns",
      Mean(index_updates) - Mean(underneath), "ns");
  Set("mutable.insert_ns", MeanNs("mutable.insert"), "ns");
  Set("mutable.erase_ns", MeanNs("mutable.erase"), "ns");

  double delta = 0;
  for (std::uint32_t t : sample_terms) delta += static_cast<double>(twins[t].delta_size());
  Set("mutable.delta_elems", delta, "count");

  // Delta fixup: the sample over the updated twins, then after Compact().
  std::vector<std::uint64_t> want(sample.size());
  for (std::size_t qi = 0; qi < sample.size(); ++qi) {
    std::vector<const ElemList*> lists;
    for (std::uint32_t t : sample[qi]) lists.push_back(&plain[t]);
    want[qi] = OracleAndDigest(lists);
  }
  for (const char* rung : {"mutable.query", "mutable.compacted"}) {
    if (std::string_view(rung) == "mutable.compacted") {
      for (std::uint32_t t : sample_terms) {
        twins[t].WaitForCompaction();
        twins[t].Compact();
      }
    }
    for (std::size_t qi = 0; qi < sample.size(); ++qi) {
      const auto in = twin_ptrs(sample[qi]);
      if (Warm(rung, static_cast<std::int64_t>(qi), [&] { engine.Query(in).ExecuteInto(&out); })) {
        Check(Digest(out), want[qi], rung, qi);
      }
    }
  }
  Set("mutable.fixup_ns", MeanNs("mutable.query") - MeanNs("mutable.compacted"), "ns");
  for (auto& [t, set] : twins) set.WaitForCompaction();
  EndStage();
}

void Ladder::Ledger() {
  // Self time of each rung: its increment over the rung below.
  const std::pair<const char*, const char*> ladder[] = {
      {"simd.pair", nullptr},        {"core.best", "simd.pair"},
      {"api.exec", "core.best"},     {"serve.s1", "api.exec"},
      {"serve.sN", "serve.s1"},      {"index.query", "index.engine_query"},
      {"mutable.query", "mutable.compacted"}};
  const double best = Mean(best_ns_);
  auto mean = [&](const char* rung) {
    return std::string_view(rung) == "core.best" ? best : MeanNs(rung);
  };
  for (const auto& [rung, below] : ladder) {
    const double self = mean(rung) - (below ? mean(below) : 0.0);
    char line[160];
    std::snprintf(line, sizeof(line), "ledger %-18s mean %12.1f ns  self %12.1f ns",
                  rung, mean(rung), self);
    report_->Note(line);
  }
}

void Ladder::Run() {
  const std::int64_t start = NowNs();
  MakeSample();
  Set("workload.repeat_share", RepeatShare(data_.log), "ratio");
  Set("workload.result_elems", s_.mean_result, "count");
  KernelStage();
  Set("simd.pair_ns", MeanNs("simd.pair"), "ns");
  Set("simd.pair_cold_ns", MeanNs("simd.pair.cold"), "ns");
  CoreStage();
  ApiStage();
  ServeStage();
  MutableStage();
  Ledger();
  rec_.WriteJsonl(opt_.out_dir + "/spans-" + opt_.workload + "-" +
                  std::to_string(opt_.seed) + ".jsonl");
  char line[96];
  std::snprintf(line, sizeof(line), "traced run: %.2fs",
                static_cast<double>(NowNs() - start) * 1e-9);
  report_->Note(line);
}

}  // namespace

void RunLadder(const Options& opt, const WorkloadData& data, Report* report) {
  Ladder(opt, data, report).Run();
}

}  // namespace perfbench
