// The untraced runs: one closed loop per workload, timed at the
// workload's top-level call, every output checked against the oracle.
//
// Each run repeats its workload on several fresh builds of the index
// (head: five builds, churn: eight episodes), because where a build's
// structures land in memory moves its speed.  Every replicate does the
// whole workload once; a metric is the median over the replicates of the
// replicate's own statistic (its p50, its p99, its rate), the way runs
// are summarized across seeds.  A burst of host CPU steal that hits one
// or two replicates then moves the metric by less than the burst, while a
// change that slows every replicate moves it fully.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>

#include "api/batch_runner.h"
#include "api/engine.h"
#include "bench.h"
#include "index/inverted_index.h"

namespace perfbench {
namespace {

using fsi::PreparedSet;

/// head: posting-list replacements per run, in replicates of equal mix.
constexpr std::size_t kUpdates = 5000;
constexpr std::size_t kUpdateReplicates = 5;
/// head: warm-up queries per measured build (the untimed build serves the
/// whole warm-up log).
constexpr std::size_t kHeadWarm = 500;
/// Churn: documents held out of the initial build and rotated in.
constexpr std::size_t kChurnHeldOut = 1024;
/// Churn: reads per erase/insert pair in the closed loop.
constexpr std::size_t kChurnReadsPerCycle = 8;

std::string Fmt(const char* fmt, double a, double b = 0, double c = 0) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), fmt, a, b, c);
  return buf;
}

double Seconds(std::int64_t from_ns) {
  return static_cast<double>(NowNs() - from_ns) * 1e-9;
}

/// Runs fn(i) for i in [0, n) on `threads` threads.
void ParallelFor(std::size_t n, std::size_t threads,
                 const std::function<void(std::size_t)>& fn) {
  std::atomic<std::size_t> next{0};
  auto work = [&] {
    for (std::size_t i = next++; i < n; i = next++) fn(i);
  };
  std::vector<std::thread> pool;
  for (std::size_t t = 1; t < std::max<std::size_t>(threads, 1); ++t) {
    pool.emplace_back(work);
  }
  work();
  for (std::thread& th : pool) th.join();
}

/// `<prefix>_p50_us` and `<prefix>_p99_us`: the medians over the
/// replicates of each replicate's p50 and p99.
void ReportLatency(const std::string& prefix,
                   const std::vector<std::vector<double>>& replicates,
                   Report* report) {
  std::vector<double> p50, p99, all;
  std::string per_replicate;
  for (const std::vector<double>& r : replicates) {
    p50.push_back(Percentile(r, 50));
    p99.push_back(Percentile(r, 99));
    per_replicate += Fmt(" %.1f/%.1f", p50.back(), p99.back());
    all.insert(all.end(), r.begin(), r.end());
  }
  report->Set(prefix + "_p50_us", Median(p50), "us");
  report->Set(prefix + "_p99_us", Median(p99), "us");
  report->Note(prefix + " latency: n=" + std::to_string(all.size()) + " in " +
               std::to_string(replicates.size()) + " replicates" +
               Fmt(", pooled p50=%.2fus p99=%.2fus max=%.2fus", Percentile(all, 50),
                   Percentile(all, 99), Percentile(all, 100)) +
               "; per-replicate p50/p99:" + per_replicate);
}

/// A throughput metric: the median over the replicates of each
/// replicate's operations over its time.
void ReportRate(const char* name, const std::vector<double>& ops,
                const std::vector<double>& seconds, Report* report) {
  std::vector<double> rates;
  std::string per_replicate;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    rates.push_back(ops[i] / seconds[i]);
    per_replicate += Fmt(" %.1f", rates.back());
  }
  report->Set(name, Median(rates), "1/s");
  report->Note(std::string(name) + " per replicate:" + per_replicate);
}

/// `ops_per_s`: closed-loop operations per second of waiting.
void ReportBusyRate(const std::vector<std::vector<double>>& replicates,
                    Report* report) {
  std::vector<double> ops, seconds;
  for (const std::vector<double>& r : replicates) {
    double busy_s = 0;
    for (double v : r) busy_s += v * 1e-6;
    ops.push_back(static_cast<double>(r.size()));
    seconds.push_back(busy_s);
  }
  ReportRate("ops_per_s", ops, seconds, report);
}

void ReportSetup(const std::vector<double>& setup_s, Report* report) {
  std::string all;
  for (double t : setup_s) all += Fmt(" %.4f", t);
  report->Note("setup_s samples:" + all);
  report->Set("setup_s", Median(setup_s), "s");
}

/// head's index: a planner Engine with every term prepared.
struct HeadIndex {
  std::unique_ptr<fsi::Engine> engine;
  std::vector<PreparedSet> sets;

  std::size_t Bytes() const {
    std::size_t words = 0;
    for (const PreparedSet& s : sets) words += s.SizeInWords();
    return words * 8;
  }
};

/// Builds head's index from the generated postings; returns the build
/// time in seconds (one setup_s sample).
double BuildHead(const Corpus& corpus, HeadIndex* index) {
  index->sets.clear();
  index->engine.reset();
  std::int64_t start = NowNs();
  index->engine = std::make_unique<fsi::Engine>(kPlannerSpec);
  index->sets.reserve(corpus.postings.size());
  for (const ElemList& p : corpus.postings) {
    index->sets.push_back(index->engine->Prepare(p));
  }
  return Seconds(start);
}

void ReportBytes(const Corpus& corpus, const HeadIndex& index,
                 Report* report) {
  report->Set("bytes_per_posting",
              static_cast<double>(index.Bytes()) /
                  static_cast<double>(corpus.TotalPostings()),
              "B");
  report->Note(Fmt("index: %.1f MiB of prepared structures for %.0f postings",
                   static_cast<double>(index.Bytes()) / (1 << 20),
                   static_cast<double>(corpus.TotalPostings())));
}

/// Compares recorded result digests with oracle digests.
void CheckDigests(const std::vector<std::uint64_t>& got,
                  const std::vector<std::uint64_t>& want,
                  const std::vector<char>& ran, const char* what,
                  Report* report) {
  std::size_t checked = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (!ran[i]) continue;
    ++checked;
    if (got[i] != want[i]) {
      report->Mismatch(std::string(what) + " query " + std::to_string(i));
    }
  }
  report->Note(std::string(what) + ": " + std::to_string(checked) +
               " results checked against the oracle");
}

/// Digest of a result, dropping its last element once when the
/// self-check asks for a corrupted result.
std::uint64_t ResultDigest(const ElemList& elems, bool* corrupt_pending) {
  if (*corrupt_pending && !elems.empty()) {
    *corrupt_pending = false;
    return Digest(std::span<const Elem>(elems.data(), elems.size() - 1));
  }
  return Digest(elems);
}

/// head's update_* metrics: a probe of Engine::Prepare latency, not served
/// traffic.  A term's posting list is replaced by preparing its edited
/// list (one document removed, one added) — the only way to change an
/// immutable set.  Update i of `total` edits the term at rank
/// vocab/500 + i * (vocab/50 - vocab/500) / total (lists of about a
/// thousand to ten thousand postings, so the per-posting work outweighs
/// the fixed allocations), and every seed updates lists of the same sizes;
/// this call runs the updates i = replicate (mod replicates), each
/// replicate an equal mix.  Each replacement is read back through a query
/// and checked.
void ReplacePostings(const Options& opt, const Corpus& corpus,
                     HeadIndex& index, std::size_t total,
                     std::size_t replicates, std::size_t replicate,
                     std::vector<double>* lat_us, Report* report) {
  Rng rng(SubSeed(SubSeed(opt.seed, 7), replicate));
  std::size_t mismatches = 0;
  const std::size_t vocab = corpus.postings.size();
  const std::size_t first = vocab / 500;
  for (std::size_t i = replicate; i < total; i += replicates) {
    const ElemList& old = corpus.postings[first + i * (vocab / 50 - first) / total];
    ElemList edited = old;
    edited.erase(edited.begin() + static_cast<long>(rng.Below(edited.size())));
    Elem add = 0;
    do {
      add = static_cast<Elem>(rng.Below(corpus.num_docs));
    } while (std::binary_search(old.begin(), old.end(), add));
    edited.insert(std::upper_bound(edited.begin(), edited.end(), add), add);
    PreparedSet fresh;
    bool ok = true;
    std::int64_t start = NowNs();
    try {
      fresh = index.engine->Prepare(edited);
    } catch (const std::exception&) {
      ok = false;
    }
    std::int64_t end = NowNs();
    report->Attempt(ok);
    if (!ok) continue;
    lat_us->push_back(static_cast<double>(end - start) * 1e-3);
    const PreparedSet* read[] = {&fresh};
    if (Digest(index.engine->Query(read).Materialize()) != Digest(edited)) ++mismatches;
  }
  if (mismatches > 0) {
    report->Mismatch(std::to_string(mismatches) + " posting replacements");
  }
}

}  // namespace

void RunHead(const Options& opt, const WorkloadData& data, Report* report) {
  const Corpus& corpus = data.corpus;
  report->Note(Fmt("head: %.0f queries, repeat share %.4f, %.0f warm-up queries",
                   static_cast<double>(data.log.size()), RepeatShare(data.log),
                   static_cast<double>(data.warm.size())));
  // The index is built several times and every build does the same work
  // (one replicate per build).
  const std::size_t builds = opt.tiny() ? 2 : 5;
  const std::size_t updates = opt.tiny() ? 400 : kUpdates;
  // Fixed work, not a time budget: one pass over the log per build per
  // 10 s of --seconds.
  const auto passes = static_cast<std::size_t>(std::max(1.0, opt.seconds / 10.0 + 0.5));
  const std::size_t n = data.log.size();
  HeadIndex index;
  auto resolve = [&](const TermQuery& q) {
    fsi::BatchQuery sets;
    for (std::uint32_t t : q) sets.push_back(&index.sets[t]);
    return sets;
  };
  std::vector<double> setup_s, batch_ops, batch_seconds;
  std::vector<std::vector<double>> lat_us(builds), update_us(kUpdateReplicates);
  std::vector<std::uint64_t> got(n, 0);
  std::vector<char> ran(n, 0);
  bool corrupt = opt.corrupt;
  auto record = [&](std::size_t i, std::uint64_t d) {
    if (ran[i] && got[i] != d) {
      report->Mismatch("head query " + std::to_string(i) + " differs between runs");
    }
    got[i] = d;
    ran[i] = 1;
  };
  // One more build first, whose queries are not timed: the first build of
  // a process serves measurably slower than later ones.
  setup_s.push_back(BuildHead(corpus, &index));
  for (const TermQuery& q : data.warm) index.engine->Query(resolve(q)).Materialize();
  for (std::size_t b = 0; b < builds; ++b) {
    setup_s.push_back(BuildHead(corpus, &index));
    for (std::size_t s = b; s < kUpdateReplicates; s += builds) {
      ReplacePostings(opt, corpus, index, updates, kUpdateReplicates, s, &update_us[s], report);
    }
    for (std::size_t i = 0; i < std::min(kHeadWarm, data.warm.size()); ++i) {
      index.engine->Query(resolve(data.warm[i])).Materialize();
    }

    // Closed loop: one client, whole passes over the log.
    for (std::size_t pass = 0; pass < passes; ++pass) {
      for (std::size_t i = 0; i < n; ++i) {
        const fsi::BatchQuery sets = resolve(data.log[i]);
        ElemList result;
        bool ok = true;
        std::int64_t start = NowNs();
        try {
          result = index.engine->Query(sets).Materialize();
        } catch (const std::exception&) {
          ok = false;
        }
        std::int64_t end = NowNs();
        report->Attempt(ok);
        if (!ok) continue;
        lat_us[b].push_back(static_cast<double>(end - start) * 1e-3);
        record(i, ResultDigest(result, &corrupt));
      }
    }

    // Throughput: BatchRunner on the --pool-threads workers over the log
    // in chunks of 250 queries (chunks keep the materialized results
    // small).
    fsi::BatchRunner runner(*index.engine, {.num_threads = opt.pool_threads});
    double batch_s = 0;
    std::size_t batch_n = 0;
    for (std::size_t lo = 0; lo < n; lo += 250) {
      std::vector<fsi::BatchQuery> batch;
      for (std::size_t i = lo; i < std::min(n, lo + 250); ++i) {
        batch.push_back(resolve(data.log[i]));
      }
      std::vector<ElemList> results;
      bool ok = true;
      std::int64_t start = NowNs();
      try {
        results = runner.Materialize(batch);
      } catch (const std::exception&) {
        ok = false;
      }
      batch_s += Seconds(start);
      batch_n += batch.size();
      for (std::size_t j = 0; j < batch.size(); ++j) {
        bool one_ok = ok && j < results.size();
        report->Attempt(one_ok);
        if (!one_ok) continue;
        record(lo + j, Digest(results[j]));
      }
    }
    batch_ops.push_back(static_cast<double>(batch_n));
    batch_seconds.push_back(batch_s);
  }
  ReportSetup(setup_s, report);
  ReportBytes(corpus, index, report);
  ReportLatency("query", lat_us, report);
  ReportRate("query_qps", batch_ops, batch_seconds, report);
  ReportLatency("update", update_us, report);
  ReportBusyRate(lat_us, report);

  // The oracle, once per distinct query, after the timed phases.
  std::vector<std::uint64_t> want(n, 0);
  std::unordered_map<std::uint64_t, std::size_t> first;
  std::vector<std::size_t> distinct;
  for (std::size_t i = 0; i < n; ++i) {
    if (first.emplace(QueryKey(data.log[i]), i).second) distinct.push_back(i);
  }
  ParallelFor(distinct.size(), opt.nproc, [&](std::size_t j) {
    const TermQuery& q = data.log[distinct[j]];
    std::vector<const ElemList*> lists;
    for (std::uint32_t t : q) lists.push_back(&corpus.postings[t]);
    want[distinct[j]] = OracleAndDigest(lists);
  });
  for (std::size_t i = 0; i < n; ++i) {
    want[i] = want[first.at(QueryKey(data.log[i]))];
  }
  CheckDigests(got, want, ran, "head Query and BatchRunner", report);
}

namespace {

/// One operation of the churn loop, recorded for the replay oracle.
struct ChurnOp {
  enum Kind : std::uint8_t { kRead, kErase, kInsert } kind;
  std::uint32_t id;      // query index (reads) or document id
  std::uint64_t digest;  // reads: result digest; updates: lists changed
};

/// Replays `ops` on plain sorted vectors and checks every read, on
/// `threads` threads: each thread rebuilds the state at the start of its
/// chunk by applying the earlier updates.  Returns the mismatches and
/// leaves the state after the last operation in `final_state`.
std::size_t ReplayChurn(const std::vector<ElemList>& initial,
                        const std::vector<std::vector<std::uint32_t>>& doc_terms,
                        const std::vector<TermQuery>& log,
                        const std::vector<ChurnOp>& ops, std::size_t threads,
                        std::vector<ElemList>* final_state) {
  std::atomic<std::size_t> mismatches{0};
  const std::size_t chunks = std::max<std::size_t>(1, threads);
  std::vector<std::vector<ElemList>> states(chunks);
  ParallelFor(chunks, threads, [&](std::size_t c) {
    const std::size_t lo = ops.size() * c / chunks;
    const std::size_t hi = ops.size() * (c + 1) / chunks;
    std::vector<ElemList> state = initial;
    auto apply = [&](const ChurnOp& op) {
      std::size_t changed = 0;
      for (std::uint32_t t : doc_terms[op.id]) {
        ElemList& p = state[t];
        auto it = std::lower_bound(p.begin(), p.end(), op.id);
        bool present = it != p.end() && *it == op.id;
        if (op.kind == ChurnOp::kErase && present) {
          p.erase(it);
          ++changed;
        } else if (op.kind == ChurnOp::kInsert && !present) {
          p.insert(it, op.id);
          ++changed;
        }
      }
      return changed;
    };
    for (std::size_t i = 0; i < lo; ++i) {
      if (ops[i].kind != ChurnOp::kRead) apply(ops[i]);
    }
    for (std::size_t i = lo; i < hi; ++i) {
      const ChurnOp& op = ops[i];
      if (op.kind == ChurnOp::kRead) {
        std::vector<const ElemList*> lists;
        for (std::uint32_t t : log[op.id]) lists.push_back(&state[t]);
        if (OracleAndDigest(lists) != op.digest) ++mismatches;
      } else if (apply(op) != op.digest) {
        ++mismatches;
      }
    }
    if (c + 1 == chunks) states[c] = std::move(state);
  });
  *final_state = std::move(states.back());
  return mismatches.load();
}

}  // namespace

void RunChurn(const Options& opt, const WorkloadData& data, Report* report) {
  const Corpus& corpus = data.corpus;
  const std::vector<std::vector<std::uint32_t>> doc_terms = DocumentTerms(corpus);
  std::vector<std::string> names(corpus.postings.size());
  for (std::size_t t = 0; t < names.size(); ++t) names[t] = "t" + std::to_string(t);
  auto term_names = [&](const std::vector<std::uint32_t>& ids) {
    std::vector<std::string> out;
    out.reserve(ids.size());
    for (std::uint32_t t : ids) out.push_back(names[t]);
    return out;
  };

  // Documents that carry terms; kChurnHeldOut of them are left out of the
  // build and rotated in by the loop's inserts.
  Rng held_rng(SubSeed(opt.seed, 6));
  std::vector<std::uint32_t> present_at_build;
  for (std::size_t d = 0; d < doc_terms.size(); ++d) {
    if (!doc_terms[d].empty()) present_at_build.push_back(static_cast<std::uint32_t>(d));
  }
  std::deque<std::uint32_t> held_at_build;
  const std::size_t held_out = opt.tiny() ? 64 : kChurnHeldOut;
  for (std::size_t i = 0; i < held_out; ++i) {
    std::size_t j = held_rng.Below(present_at_build.size());
    held_at_build.push_back(present_at_build[j]);
    present_at_build[j] = present_at_build.back();
    present_at_build.pop_back();
  }
  std::vector<bool> is_held(corpus.num_docs, false);
  for (std::uint32_t d : held_at_build) is_held[d] = true;
  std::vector<ElemList> initial(corpus.postings.size());
  std::size_t postings = 0;
  for (std::size_t t = 0; t < initial.size(); ++t) {
    for (Elem d : corpus.postings[t]) {
      if (!is_held[d]) initial[t].push_back(d);
    }
    postings += initial[t].size();
  }

  // The run is cut into episodes, each on a fresh build of the same
  // initial state: every build places its structures anew in memory, and
  // one run averages over several placements.  An episode is one setup_s
  // sample, a closed loop of a fixed number of cycles (not a time budget:
  // the deltas grow as the loop runs, so a faster build must not be timed
  // on larger deltas) and BatchMatch rounds over the updated index.
  const std::size_t episodes = opt.tiny() ? 2 : 8;
  const auto cycles_per_episode =
      static_cast<std::size_t>(opt.tiny() ? 100 : 75 * opt.seconds);
  // BatchMatch runs on the threads left after the client and the
  // background compaction worker, over batches of 4000 reads.
  const std::size_t batch_n = opt.tiny() ? 300 : 4000;
  const std::size_t batch_rounds = opt.tiny() ? 1 : 2;
  const std::size_t batch_threads = std::max<std::size_t>(1, opt.nproc - 2);
  std::vector<double> setup_s, batch_ops, batch_seconds;
  // Per episode: read, update and all closed-loop latencies.
  std::vector<std::vector<double>> read_us(episodes), update_us(episodes), all_us(episodes);
  std::size_t cursor = 0, cycles = 0, checked = 0, bad = 0;
  bool corrupt = opt.corrupt;
  std::unique_ptr<fsi::InvertedIndex> index;
  for (std::size_t episode = 0; episode < episodes; ++episode) {
    index.reset();
    std::int64_t start = NowNs();
    index = std::make_unique<fsi::InvertedIndex>(fsi::Engine(kPlannerSpec));
    std::vector<std::string> buf;
    for (std::size_t d = 0; d < doc_terms.size(); ++d) {
      if (doc_terms[d].empty() || is_held[d]) continue;
      buf.clear();
      for (std::uint32_t t : doc_terms[d]) buf.push_back(names[t]);
      index->AddDocument(static_cast<Elem>(d), buf);
    }
    index->FinalizeUpdatable();
    setup_s.push_back(Seconds(start));
    if (episode == 0) {
      report->Set("bytes_per_posting",
                  static_cast<double>(index->SizeInWords() * 8) /
                      static_cast<double>(postings),
                  "B");
    }
    for (const TermQuery& q : data.warm) index->Query(term_names(q));

    // Closed loop: 8 reads around one erase and one insert per cycle; the
    // erased document is re-inserted kChurnHeldOut cycles later.
    Rng rng(SubSeed(SubSeed(opt.seed, 9), episode));
    std::vector<std::uint32_t> present = present_at_build;
    std::deque<std::uint32_t> held = held_at_build;
    std::vector<ChurnOp> ops;
    auto read = [&] {
      const auto qi = static_cast<std::uint32_t>(cursor++ % data.log.size());
      std::vector<std::string> terms = term_names(data.log[qi]);
      fsi::ElemList result;
      bool ok = true;
      std::int64_t begin = NowNs();
      try {
        result = index->Query(terms);
      } catch (const std::exception&) {
        ok = false;
      }
      std::int64_t end = NowNs();
      report->Attempt(ok);
      if (!ok) return;
      read_us[episode].push_back(static_cast<double>(end - begin) * 1e-3);
      all_us[episode].push_back(read_us[episode].back());
      ops.push_back({ChurnOp::kRead, qi, ResultDigest(result, &corrupt)});
    };
    auto update = [&](ChurnOp::Kind kind, std::uint32_t doc) {
      std::vector<std::string> terms = term_names(doc_terms[doc]);
      std::size_t changed = 0;
      bool ok = true;
      std::int64_t begin = NowNs();
      try {
        changed = kind == ChurnOp::kErase ? index->EraseDocument(doc, terms)
                                          : index->InsertDocument(doc, terms);
      } catch (const std::exception&) {
        ok = false;
      }
      std::int64_t end = NowNs();
      report->Attempt(ok);
      if (!ok) return;
      update_us[episode].push_back(static_cast<double>(end - begin) * 1e-3);
      all_us[episode].push_back(update_us[episode].back());
      ops.push_back({kind, doc, changed});
    };
    for (std::size_t c = 0; c < cycles_per_episode; ++c, ++cycles) {
      for (std::size_t r = 0; r < kChurnReadsPerCycle / 2; ++r) read();
      std::size_t j = rng.Below(present.size());
      const std::uint32_t victim = present[j];
      present[j] = present.back();
      present.pop_back();
      update(ChurnOp::kErase, victim);
      held.push_back(victim);
      for (std::size_t r = 0; r < kChurnReadsPerCycle / 2; ++r) read();
      const std::uint32_t back = held.front();
      held.pop_front();
      update(ChurnOp::kInsert, back);
      present.push_back(back);
    }

    // Read throughput over the updated index.  Each round's results are
    // kept as digests only: holding every round's results would grow the
    // heap round after round.
    std::vector<TermQuery> batch_queries;
    std::vector<std::vector<std::string>> batch;
    for (std::size_t i = 0; i < batch_n; ++i) {
      batch_queries.push_back(data.log[cursor++ % data.log.size()]);
      batch.push_back(term_names(batch_queries.back()));
    }
    std::vector<std::vector<std::uint64_t>> batch_digests;
    double batch_s = 0;
    for (std::size_t round = 0; round < batch_rounds; ++round) {
      std::vector<ElemList> results;
      bool ok = true;
      std::int64_t begin = NowNs();
      try {
        results = index->BatchMatch(batch, {.num_threads = batch_threads});
      } catch (const std::exception&) {
        ok = false;
      }
      batch_s += Seconds(begin);
      for (std::size_t i = 0; i < batch_n; ++i) report->Attempt(ok && i < results.size());
      if (!ok) continue;
      std::vector<std::uint64_t>& digests = batch_digests.emplace_back();
      for (const ElemList& r : results) digests.push_back(Digest(r));
    }

    batch_ops.push_back(static_cast<double>(batch_n * batch_rounds));
    batch_seconds.push_back(batch_s);

    // The oracle for the episode, outside the timed regions.
    std::vector<ElemList> final_state;
    bad += ReplayChurn(initial, doc_terms, data.log, ops, opt.nproc, &final_state);
    std::vector<std::uint64_t> want(batch_n);
    ParallelFor(batch_n, opt.nproc, [&](std::size_t i) {
      std::vector<const ElemList*> lists;
      for (std::uint32_t t : batch_queries[i]) lists.push_back(&final_state[t]);
      want[i] = OracleAndDigest(lists);
    });
    for (const std::vector<std::uint64_t>& digests : batch_digests) {
      for (std::size_t i = 0; i < batch_n; ++i) bad += want[i] != digests[i];
    }
    checked += ops.size() + batch_n * batch_digests.size();
  }
  ReportSetup(setup_s, report);
  ReportLatency("query", read_us, report);
  ReportLatency("update", update_us, report);
  ReportBusyRate(all_us, report);
  ReportRate("query_qps", batch_ops, batch_seconds, report);
  report->Note("churn: " + std::to_string(episodes) + " episodes, " +
               std::to_string(cycles) + " cycles, " +
               std::to_string(read_us[0].size()) + " reads and " +
               std::to_string(update_us[0].size()) + " updates per episode, BatchMatch on " +
               std::to_string(batch_threads) + " threads" +
               Fmt(", read-log repeat share %.4f", RepeatShare(data.log)));
  if (bad > 0) report->Mismatch(std::to_string(bad) + " churn operations");
  report->Note("churn: " + std::to_string(checked) +
               " operations replayed against the oracle");
}

}  // namespace perfbench
