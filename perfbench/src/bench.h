// Shared pieces of the benchmark program: run options, the metric report,
// the span recorder, the workload data and the two run modes.
//
//   untraced (--trace 0): RunHead / RunChurn — the closed-loop
//       end-to-end metrics of one workload (workloads.cc);
//   traced (--trace 1):   RunLadder — the same workload's queries timed at
//       each layer's public entry point, warm and cold (ladder.cc).

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "gen.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// "full" (the declared input sizes) or "tiny" (the self-check).
  std::string scale = "full";
  std::size_t shards = 4;
  std::size_t pool_threads = 2;
  /// Self-check only: drop one element of one result before the oracle
  /// comparison, which must then fail the run.
  bool corrupt = false;
  /// Where spans and the fingerprint are written.
  std::string out_dir = ".";
  /// Hardware threads (pool threads + client threads never exceed it).
  std::size_t nproc = 4;
  bool tiny() const { return scale == "tiny"; }
};

/// Monotonic nanoseconds.
inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Metrics of one run plus the pass/fail ledger.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// A human-readable line printed before the result (sample counts,
  /// fingerprint, sizes).
  void Note(const std::string& line) { notes_.push_back(line); }
  /// Counts one attempted operation; `ok` false counts it as failed.
  void Attempt(bool ok) {
    ++attempted_;
    failed_ += !ok;
  }
  /// Records an oracle mismatch (fails the run).
  void Mismatch(const std::string& what);
  bool correct() const { return mismatches_ == 0; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  /// Prints the notes, then the result object as the last line.
  void Print() const;

 private:
  struct Metric {
    double value;
    std::string unit;
  };
  std::map<std::string, Metric> metrics_;
  std::vector<std::string> notes_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t mismatches_ = 0;
};

/// In-memory span log, written out when the run ends.  A span is one
/// timed call: name, start, end, parent span and query id.
class SpanRecorder {
 public:
  struct Span {
    std::uint32_t name;
    std::int32_t parent;
    std::int64_t query;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  std::uint32_t Intern(std::string_view name);
  std::int32_t Begin(std::uint32_t name, std::int64_t query,
                     std::int32_t parent = -1);
  void End(std::int32_t span) { spans_[span].end_ns = NowNs(); }
  double DurationNs(std::int32_t span) const {
    return static_cast<double>(spans_[span].end_ns - spans_[span].start_ns);
  }
  /// Durations (ns) of every span named `name`, in recording order.
  std::vector<double> Durations(std::string_view name) const;
  double MeanNs(std::string_view name) const;
  /// One JSON object per line.
  void WriteJsonl(const std::string& path) const;

 private:
  std::vector<std::string> names_;
  std::vector<Span> spans_;
};

/// Aggregate CPU time counters of the host's /proc/stat: all states, and
/// the time a hypervisor gave to other guests (steal).  Zero when
/// /proc/stat is unreadable.
struct CpuTicks {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
CpuTicks ReadCpuTicks();

/// Percentile by nearest rank over a copy of `v` (p in [0, 100]).
double Percentile(std::vector<double> v, double p);
double Mean(const std::vector<double>& v);
double Median(std::vector<double> v);

/// Touches a buffer of twice the last-level cache, evicting the working
/// set (the cold-sample rungs run right after it).
class CacheBuster {
 public:
  CacheBuster();
  void Bust();
  std::size_t bytes() const { return buf_.size() * sizeof(std::uint64_t); }

 private:
  std::vector<std::uint64_t> buf_;
  std::uint64_t sink_ = 0;
};

/// The generated inputs of one workload.
struct WorkloadData {
  CorpusSpec spec;
  Corpus corpus;
  /// The conjunctive keyword log (churn: its read stream).
  std::vector<TermQuery> log;
  /// Warm-up queries whose keys do not occur in `log`.
  std::vector<TermQuery> warm;
  /// An order-sensitive digest of every generated input.
  std::uint64_t digest = 0;
};

WorkloadData MakeWorkload(const Options& opt);

/// The machine fingerprint and input sizes, as notes on `report` and
/// written to `<out_dir>/fingerprint-<workload>-<seed>.json`.
void Fingerprint(const Options& opt, const WorkloadData& data, Report* report);

void RunHead(const Options& opt, const WorkloadData& data, Report* report);
void RunChurn(const Options& opt, const WorkloadData& data, Report* report);
void RunLadder(const Options& opt, const WorkloadData& data, Report* report);

/// The planner spec every engine of the benchmark uses: calibration
/// pinned to the built-in constants, so plans repeat across processes.
inline constexpr const char* kPlannerSpec = "Planner:calibration=off";

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
