#include "gen.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>
#include <unordered_set>

namespace perfbench {
namespace {

std::uint64_t SplitMix(std::uint64_t* state) {
  std::uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t Rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

/// Inverse-CDF sampler of the continuous document-popularity law
/// weight(j) ~ (j + 1)^-s over [0, n): O(1) per draw.
class PopularitySampler {
 public:
  PopularitySampler(std::size_t n, double s)
      : n_(n), e_(1.0 - s), span_(std::pow(static_cast<double>(n) + 1.0, e_) - 1.0) {}
  Elem Draw(Rng& rng) const {
    double x = std::pow(1.0 + rng.Unit() * span_, 1.0 / e_);
    auto doc = static_cast<std::size_t>(x) - 1;
    return static_cast<Elem>(std::min(doc, n_ - 1));
  }

 private:
  std::size_t n_;
  double e_;
  double span_;
};

/// Discrete Zipf(s) over ranks [0, n) by inverse-CDF binary search.
class ZipfRanks {
 public:
  ZipfRanks(std::size_t n, double s) : cdf_(n) {
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      acc += std::pow(static_cast<double>(i + 1), -s);
      cdf_[i] = acc;
    }
    for (double& c : cdf_) c /= acc;
  }
  std::uint32_t Draw(Rng& rng) const {
    auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng.Unit());
    if (it == cdf_.end()) --it;
    return static_cast<std::uint32_t>(it - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

/// Writes the elements of `small` that are also in `large` to `out`:
/// std::set_intersection when the sizes are within 16x of each other, one
/// std::lower_bound probe per element of `small` otherwise (the oracle
/// replays every read of a churn run, mostly over very unequal lists).
template <class Out>
void IntersectInto(const ElemList& small, const ElemList& large, Out out) {
  if (small.size() > large.size() / 16) {
    std::set_intersection(small.begin(), small.end(), large.begin(), large.end(), out);
    return;
  }
  auto from = large.begin();
  for (Elem e : small) {
    from = std::lower_bound(from, large.end(), e);
    if (from == large.end()) return;
    if (*from == e) *out++ = e;
  }
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  for (auto& word : s_) word = SplitMix(&seed);
}

std::uint64_t Rng::Next() {
  const std::uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::Below(std::uint64_t bound) {
  return static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(Next()) * bound) >> 64);
}

double Rng::Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

std::uint64_t SubSeed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t state = seed ^ Rotl(stream * 0xd1342543de82ef95ULL, 17);
  SplitMix(&state);
  return SplitMix(&state);
}

std::size_t Corpus::TotalPostings() const {
  std::size_t total = 0;
  for (const ElemList& p : postings) total += p.size();
  return total;
}

Corpus GenerateCorpus(const CorpusSpec& spec, std::uint64_t seed,
                      unsigned threads) {
  Corpus corpus;
  corpus.num_docs = spec.num_docs;
  corpus.postings.resize(spec.vocabulary);
  const PopularitySampler docs(spec.num_docs, spec.doc_zipf);
  const auto max_df = static_cast<std::size_t>(
      spec.max_df_fraction * static_cast<double>(spec.num_docs));
  std::atomic<std::size_t> next{0};
  auto work = [&] {
    ElemList fresh;
    for (std::size_t t = next++; t < spec.vocabulary; t = next++) {
      double raw = static_cast<double>(max_df) *
                   std::pow(static_cast<double>(t + 1), -spec.term_zipf);
      std::size_t df = std::clamp(static_cast<std::size_t>(raw), spec.min_df,
                                  max_df);
      Rng rng(SubSeed(seed, t));
      ElemList& list = corpus.postings[t];
      // Draw exactly the deficit each round, so the list never overshoots.
      while (list.size() < df) {
        fresh.resize(df - list.size());
        for (Elem& e : fresh) e = docs.Draw(rng);
        std::sort(fresh.begin(), fresh.end());
        std::size_t mid = list.size();
        list.insert(list.end(), fresh.begin(), fresh.end());
        std::inplace_merge(list.begin(), list.begin() + static_cast<long>(mid),
                           list.end());
        list.erase(std::unique(list.begin(), list.end()), list.end());
      }
    }
  };
  std::vector<std::thread> pool;
  for (unsigned i = 1; i < threads; ++i) pool.emplace_back(work);
  work();
  for (std::thread& th : pool) th.join();
  return corpus;
}

std::vector<TermQuery> GenerateKeywordLog(const Corpus& corpus, std::size_t n,
                                          std::uint64_t seed) {
  const ZipfRanks ranks(corpus.postings.size(), 1.3);
  Rng rng(seed);
  std::vector<TermQuery> log;
  log.reserve(n);
  while (log.size() < n) {
    double u = rng.Unit();
    std::size_t k = u < 0.68 ? 2 : u < 0.91 ? 3 : u < 0.97 ? 4 : 5;
    TermQuery q;
    while (q.size() < k) {
      std::uint32_t t = ranks.Draw(rng);
      if (std::find(q.begin(), q.end(), t) == q.end()) q.push_back(t);
    }
    log.push_back(std::move(q));
  }
  return log;
}

std::uint64_t QueryKey(const TermQuery& q) {
  TermQuery key = q;
  std::sort(key.begin(), key.end());
  return Digest(key);
}

double RepeatShare(std::span<const TermQuery> log) {
  if (log.empty()) return 0.0;
  std::unordered_set<std::uint64_t> seen;
  std::size_t repeats = 0;
  for (const TermQuery& q : log) repeats += !seen.insert(QueryKey(q)).second;
  return static_cast<double>(repeats) / static_cast<double>(log.size());
}

std::vector<std::vector<std::uint32_t>> DocumentTerms(const Corpus& corpus) {
  std::vector<std::vector<std::uint32_t>> terms(corpus.num_docs);
  for (std::size_t t = 0; t < corpus.postings.size(); ++t) {
    for (Elem d : corpus.postings[t]) {
      terms[d].push_back(static_cast<std::uint32_t>(t));
    }
  }
  return terms;
}

std::uint64_t OracleAndDigest(std::span<const ElemList* const> lists,
                              std::size_t* size) {
  Digester digest;
  if (size != nullptr) *size = 0;
  if (lists.empty()) return digest.Finish();
  std::vector<const ElemList*> order(lists.begin(), lists.end());
  std::sort(order.begin(), order.end(), [](const ElemList* a, const ElemList* b) {
    return a->size() < b->size();
  });
  if (order.size() == 1) {
    for (Elem e : *order[0]) digest.Add(e);
    if (size != nullptr) *size = digest.size();
    return digest.Finish();
  }
  // Every step but the last materializes; the last streams into the digest.
  ElemList acc, next;
  const ElemList* left = order[0];
  for (std::size_t i = 1; i + 1 < order.size(); ++i) {
    next.clear();
    IntersectInto(*left, *order[i], std::back_inserter(next));
    acc.swap(next);
    left = &acc;
  }
  IntersectInto(*left, *order.back(), digest.Inserter());
  if (size != nullptr) *size = digest.size();
  return digest.Finish();
}

void Digester::Add(Elem e) {
  h_ = Rotl(h_ ^ (e * 0x9e3779b97f4a7c15ULL), 29) * 0xbf58476d1ce4e5b9ULL;
  ++n_;
}

std::uint64_t Digester::Finish() const {
  std::uint64_t h = h_ ^ (n_ * 0x94d049bb133111ebULL);
  return h ^ (h >> 31);
}

std::uint64_t Digest(std::span<const Elem> elems) {
  Digester digest;
  for (Elem e : elems) digest.Add(e);
  return digest.Finish();
}

}  // namespace perfbench
