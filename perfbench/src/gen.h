// Input generation for the benchmark workloads.
//
// The benchmark owns its generators (rather than calling the library's
// workload/ module) so that the inputs of a given --seed stay the same
// while the library under test changes.  The corpus reproduces the
// statistics of the library's Bing/Wikipedia stand-in (the fig07 corpus):
// Zipf(1.05) term document frequencies clamped to [64, 20% of the docs],
// postings drawn with a Zipf(0.6) document-popularity tilt, and a query
// log of 2-5 keywords in a 68/23/6/3% mix with Zipf(1.3)-biased terms.

#ifndef PERFBENCH_GEN_H_
#define PERFBENCH_GEN_H_

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <span>
#include <vector>

#include "core/algorithm.h"

namespace perfbench {

using fsi::Elem;
using fsi::ElemList;

/// xoshiro256** seeded through splitmix64.
class Rng {
 public:
  explicit Rng(std::uint64_t seed);
  std::uint64_t Next();
  /// Uniform in [0, bound).
  std::uint64_t Below(std::uint64_t bound);
  /// Uniform in [0, 1).
  double Unit();

 private:
  std::uint64_t s_[4];
};

/// A seed for the independent stream `stream` of a run seeded `seed`.
std::uint64_t SubSeed(std::uint64_t seed, std::uint64_t stream);

struct CorpusSpec {
  std::size_t num_docs = 1u << 20;
  std::size_t vocabulary = 10000;
  double term_zipf = 1.05;
  double max_df_fraction = 0.20;
  std::size_t min_df = 64;
  double doc_zipf = 0.6;
};

/// Posting lists, one per term; term ids are ranks (0 = most frequent).
struct Corpus {
  std::size_t num_docs = 0;
  std::vector<ElemList> postings;
  std::size_t TotalPostings() const;
};

/// Generates the corpus on `threads` threads; the result depends only on
/// (spec, seed).
Corpus GenerateCorpus(const CorpusSpec& spec, std::uint64_t seed,
                      unsigned threads);

/// One conjunctive keyword query: distinct term ids.
using TermQuery = std::vector<std::uint32_t>;

/// The Bing-like query log: `n` queries of 2-5 keywords.
std::vector<TermQuery> GenerateKeywordLog(const Corpus& corpus, std::size_t n,
                                          std::uint64_t seed);

/// Order-insensitive key of a query (its sorted terms, digested).
std::uint64_t QueryKey(const TermQuery& q);

/// Share of queries in `log` that repeat an earlier query of the log.
double RepeatShare(std::span<const TermQuery> log);

/// Term ids of every document (the forward index), from the postings.
std::vector<std::vector<std::uint32_t>> DocumentTerms(const Corpus& corpus);

// The oracle: std::set_intersection and std::lower_bound over plain
// sorted vectors, independent of every library code path.

/// Digest of the intersection of `lists` (smallest-first chain of
/// pairwise intersections; the last step streams into the digest).
/// `size`, when given, receives the result size.
std::uint64_t OracleAndDigest(std::span<const ElemList* const> lists,
                              std::size_t* size = nullptr);

/// Order-sensitive 64-bit digest of a result list, built one element at
/// a time (Inserter() feeds it from a std:: set algorithm).
class Digester {
 public:
  void Add(Elem e);
  std::uint64_t Finish() const;
  std::size_t size() const { return static_cast<std::size_t>(n_); }

  struct Sink {
    Digester* d;
    using iterator_category = std::output_iterator_tag;
    using value_type = void;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = void;
    Sink& operator=(Elem e) {
      d->Add(e);
      return *this;
    }
    Sink& operator*() { return *this; }
    Sink& operator++() { return *this; }
    Sink operator++(int) { return *this; }
  };
  Sink Inserter() { return Sink{this}; }

 private:
  std::uint64_t h_ = 0x243f6a8885a308d3ULL;
  std::uint64_t n_ = 0;
};

std::uint64_t Digest(std::span<const Elem> elems);

}  // namespace perfbench

#endif  // PERFBENCH_GEN_H_
