#include "bench.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <stdexcept>
#include <unordered_set>

#include "api/engine.h"
#include "api/planner.h"
#include "simd/cpu_features.h"

namespace perfbench {
namespace {

std::string JsonEscape(std::string_view s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out.push_back(c);
  }
  return out;
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::size_t LastLevelCacheBytes() {
  long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (l3 > 0) return static_cast<std::size_t>(l3);
  long l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
  if (l2 > 0) return static_cast<std::size_t>(l2);
  return std::size_t{32} << 20;
}

}  // namespace

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  if (!std::isfinite(value)) {
    throw std::runtime_error("metric " + name + " is not finite");
  }
  metrics_[name] = {value, unit};
}

void Report::Mismatch(const std::string& what) {
  if (mismatches_ < 8) notes_.push_back("oracle mismatch: " + what);
  ++mismatches_;
}

void Report::Print() const {
  for (const std::string& line : notes_) std::printf("%s\n", line.c_str());
  if (mismatches_ > 0) {
    std::printf("oracle mismatches: %llu\n",
                static_cast<unsigned long long>(mismatches_));
  }
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + JsonEscape(name) + "\": {\"value\": " + Num(m.value) +
           ", \"unit\": \"" + JsonEscape(m.unit) + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

std::uint32_t SpanRecorder::Intern(std::string_view name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  }
  names_.emplace_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::int32_t SpanRecorder::Begin(std::uint32_t name, std::int64_t query,
                                 std::int32_t parent) {
  spans_.push_back({name, parent, query, NowNs(), 0});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

std::vector<double> SpanRecorder::Durations(std::string_view name) const {
  std::vector<double> out;
  auto it = std::find(names_.begin(), names_.end(), name);
  if (it == names_.end()) return out;
  auto id = static_cast<std::uint32_t>(it - names_.begin());
  for (const Span& s : spans_) {
    if (s.name == id) out.push_back(static_cast<double>(s.end_ns - s.start_ns));
  }
  return out;
}

double SpanRecorder::MeanNs(std::string_view name) const {
  return Mean(Durations(name));
}

void SpanRecorder::WriteJsonl(const std::string& path) const {
  std::ofstream out(path);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\": " << i << ", \"name\": \"" << names_[s.name]
        << "\", \"parent\": " << s.parent << ", \"query\": " << s.query
        << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << "}\n";
  }
}

CpuTicks ReadCpuTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  CpuTicks ticks;
  if (!(in >> cpu) || cpu != "cpu") return ticks;
  // user nice system idle iowait irq softirq steal ...
  std::uint64_t v = 0;
  for (int i = 0; i < 8 && in >> v; ++i) {
    ticks.total += v;
    if (i == 7) ticks.steal = v;
  }
  return ticks;
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50.0); }

CacheBuster::CacheBuster()
    : buf_(2 * LastLevelCacheBytes() / sizeof(std::uint64_t) + 1, 1) {}

void CacheBuster::Bust() {
  for (std::size_t i = 0; i < buf_.size(); i += 8) {
    buf_[i] += sink_;
    sink_ += buf_[i] >> 3;
  }
}

WorkloadData MakeWorkload(const Options& opt) {
  WorkloadData data;
  const bool tiny = opt.tiny();
  // Both workloads use the fig07-scale corpus, whose prepared structures
  // fit in the last-level cache.
  if (opt.workload == "head" || opt.workload == "churn") {
    data.spec.num_docs = tiny ? (1u << 16) : (1u << 20);
    data.spec.vocabulary = tiny ? 2000 : 10000;
  } else {
    throw std::invalid_argument("unknown workload '" + opt.workload + "'");
  }
  data.corpus = GenerateCorpus(data.spec, SubSeed(opt.seed, 1),
                               static_cast<unsigned>(opt.nproc));
  std::size_t n = opt.workload == "head" ? (tiny ? 1000 : 10000)
                                         : (tiny ? 3000 : 100000);
  data.log = GenerateKeywordLog(data.corpus, n, SubSeed(opt.seed, 2));
  std::unordered_set<std::uint64_t> keys;
  for (const TermQuery& q : data.log) keys.insert(QueryKey(q));
  for (TermQuery& q : GenerateKeywordLog(data.corpus, tiny ? 300 : 3000,
                                         SubSeed(opt.seed, 3))) {
    if (keys.insert(QueryKey(q)).second) data.warm.push_back(std::move(q));
  }
  Digester digest;
  for (const ElemList& p : data.corpus.postings) {
    digest.Add(static_cast<Elem>(p.size()));
    for (Elem e : p) digest.Add(e);
  }
  for (const auto* log : {&data.log, &data.warm}) {
    for (const TermQuery& q : *log) {
      for (std::uint32_t t : q) digest.Add(t);
    }
  }
  data.digest = digest.Finish();
  return data;
}

void Fingerprint(const Options& opt, const WorkloadData& data,
                 Report* report) {
  fsi::Engine engine(kPlannerSpec);
  const auto* planner =
      dynamic_cast<const fsi::PlannerAlgorithm*>(&engine.algorithm());
  fsi::PlannerCalibration calibration;
  if (planner != nullptr) {
    calibration.constants = planner->constants();
    calibration.source = std::string(planner->calibration_source());
  }
  char digest[32];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(data.digest));
  std::string json =
      "{\"workload\": \"" + opt.workload + "\", \"seed\": " +
      std::to_string(opt.seed) + ", \"scale\": \"" + opt.scale +
      "\", \"cpu\": \"" + JsonEscape(CpuModel()) + "\", \"nproc\": " +
      std::to_string(opt.nproc) + ", \"llc_bytes\": " +
      std::to_string(LastLevelCacheBytes()) + ", \"kernel_tier\": \"" +
      std::string(fsi::simd::LevelName(fsi::simd::ActiveLevel())) +
      "\", \"planner_spec\": \"" + kPlannerSpec +
      "\", \"calibration_source\": \"" + JsonEscape(calibration.source) +
      "\", \"calibration\": " + calibration.ToJson() +
      ", \"shards\": " + std::to_string(opt.shards) +
      ", \"pool_threads\": " + std::to_string(opt.pool_threads) +
      ", \"docs\": " + std::to_string(data.corpus.num_docs) +
      ", \"terms\": " + std::to_string(data.corpus.postings.size()) +
      ", \"postings\": " + std::to_string(data.corpus.TotalPostings()) +
      ", \"log_queries\": " +
      std::to_string(data.log.size()) +
      ", \"warm_queries\": " +
      std::to_string(data.warm.size()) +
      ", \"inputs_digest\": \"" + digest + "\"}";
  report->Note("fingerprint " + json);
  std::ofstream(opt.out_dir + "/fingerprint-" + opt.workload + "-" +
                std::to_string(opt.seed) + ".json")
      << json << "\n";
}

}  // namespace perfbench
