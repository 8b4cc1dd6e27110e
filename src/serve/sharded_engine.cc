#include "serve/sharded_engine.h"

#include <algorithm>
#include <condition_variable>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <mutex>
#include <random>
#include <type_traits>
#include <utility>

#include "storage/mapped_file.h"
#include "storage/snapshot.h"
#include "util/timer.h"

namespace fsi {

namespace {

using Clock = std::chrono::steady_clock;

/// The kSectionShardMap record of one shard image: which save it
/// belongs to and where it sits in it.  Fields keep their in-memory
/// widths, so no value truncates on the way through the file.
struct ShardMapRecord {
  std::uint64_t num_shards = 0;
  std::uint64_t shard = 0;
  Elem universe_bound = 0;
  std::uint32_t reserved = 0;
  std::uint64_t num_sets = 0;
  std::uint64_t save_id = 0;  // fresh per SaveSnapshot call

  bool operator==(const ShardMapRecord&) const = default;
};
static_assert(sizeof(ShardMapRecord) == 40 &&
              std::is_trivially_copyable_v<ShardMapRecord>);

std::string ShardPath(const std::string& path, std::size_t shard) {
  return path + ".shard" + std::to_string(shard);
}

double Micros(const Timer& timer) {
  return static_cast<double>(timer.ElapsedNanos()) * 1e-3;
}

}  // namespace

std::string_view ToString(ServeStatus status) {
  switch (status) {
    case ServeStatus::kOk:
      return "ok";
    case ServeStatus::kPartial:
      return "partial";
    case ServeStatus::kExpired:
      return "expired";
    case ServeStatus::kRejected:
      return "rejected";
  }
  return "unknown";
}

/// The shared state of one scattered query.  Owned by shared_ptr: the
/// gather may abandon it at the deadline while shard tasks are still
/// queued, so the tasks (which each hold a reference) must outlive the
/// Serve call that spawned them.  Everything below `mutex` is guarded
/// by it; `make_query` is written once before scatter and read-only
/// afterwards.
struct ShardedEngine::QueryState {
  /// Builds shard s's query on the pool thread that runs it, so the
  /// shards plan in parallel.  Holds shared ownership of the per-shard
  /// inputs, so a late task never touches caller-owned ShardedSet or
  /// ShardedExpr objects after a partial gather returned.
  std::function<fsi::Query(std::size_t shard)> make_query;

  std::mutex mutex;
  std::condition_variable cv;
  std::size_t remaining = 0;
  /// Set by the gather once it stops listening (complete or deadline):
  /// tasks that observe it skip their work entirely.
  bool finalized = false;
  std::exception_ptr error;

  struct Slot {
    ElemList elems;
    QueryStats stats;
    bool computed = false;
  };
  std::vector<Slot> slots;
};

ShardedEngine::ShardedEngine(ShardedEngineOptions options)
    : options_(std::move(options)),
      map_(options_.num_shards, options_.universe_bound),
      tag_(std::make_shared<int>(0)),
      pool_(options_.num_threads),
      admission_(options_.max_in_flight) {
  // Even split of the space budget; a tiny non-zero total still rounds
  // up to 1 per shard so it means "compress aggressively", not "off".
  std::size_t per_shard_budget =
      options_.space_budget_bytes / map_.num_shards();
  if (options_.space_budget_bytes != 0 && per_shard_budget == 0) {
    per_shard_budget = 1;
  }
  engines_.reserve(map_.num_shards());
  for (std::size_t s = 0; s < map_.num_shards(); ++s) {
    engines_.emplace_back(
        options_.spec,
        EngineOptions{.seed = options_.seed,
                      .validation = options_.validation,
                      .space_budget_bytes = per_shard_budget,
                      .min_compress_size = options_.min_compress_size});
  }
}

ShardedEngine::ShardedEngine(ShardedEngineOptions options,
                             std::vector<Engine> engines,
                             std::shared_ptr<const int> tag)
    : options_(std::move(options)),
      map_(options_.num_shards, options_.universe_bound),
      engines_(std::move(engines)),
      tag_(std::move(tag)),
      pool_(options_.num_threads),
      admission_(options_.max_in_flight) {}

ShardedSet ShardedEngine::Prepare(std::span<const Elem> set) const {
  // Split assumes sorted input, so the whole-set check runs up front
  // (per-shard Prepare re-checks each slice under the same policy).
  if (ValidationEnabled(options_.validation)) {
    CheckSortedUnique(set, "ShardedEngine::Prepare");
  }
  std::vector<ElemList> slices = map_.Split(set);
  std::vector<PreparedSet> shards;
  shards.reserve(slices.size());
  for (std::size_t s = 0; s < slices.size(); ++s) {
    shards.push_back(engines_[s].Prepare(slices[s]));
  }
  return ShardedSet(tag_, std::move(shards), set.size());
}

template <typename Handle>
void ShardedEngine::CheckHandle(const Handle* handle) const {
  if (handle == nullptr || handle->empty_handle()) {
    throw std::invalid_argument("ShardedEngine: empty handle");
  }
  // A leafless expression (None) carries no tag and fits every engine.
  if (handle->tag_ != nullptr && handle->tag_ != tag_) {
    throw std::invalid_argument(
        "ShardedEngine: input was prepared by a different ShardedEngine");
  }
}

// --- ShardedExpr -----------------------------------------------------------

Expr ShardedExpr::Shard(std::size_t s) const {
  if (tag_ != nullptr) return shards_[s];
  return none_ ? Expr::None() : Expr();
}

template <typename Build>
ShardedExpr ShardedExpr::Combine(const std::vector<ShardedExpr>& children,
                                 Build build) {
  const ShardedExpr* tagged = nullptr;
  for (const ShardedExpr& c : children) {
    if (c.tag_ == nullptr) continue;
    if (tagged != nullptr && c.tag_ != tagged->tag_) {
      throw std::invalid_argument(
          "ShardedExpr: children were prepared by different ShardedEngines");
    }
    tagged = &c;
  }
  ShardedExpr out;
  const std::size_t num_shards = tagged != nullptr ? tagged->shards_.size() : 1;
  out.shards_.reserve(num_shards);
  for (std::size_t s = 0; s < num_shards; ++s) {
    std::vector<Expr> shard_children;
    shard_children.reserve(children.size());
    for (const ShardedExpr& c : children) shard_children.push_back(c.Shard(s));
    out.shards_.push_back(build(std::move(shard_children)));
  }
  // No leaf anywhere below: every such tree is the empty set.
  if (tagged == nullptr) return None();
  out.tag_ = tagged->tag_;
  return out;
}

ShardedExpr ShardedExpr::Set(const ShardedSet& set) {
  if (set.empty_handle()) {
    throw std::invalid_argument("ShardedExpr::Set: empty ShardedSet handle");
  }
  ShardedExpr out;
  out.tag_ = set.tag_;
  out.shards_.reserve(set.num_shards());
  for (std::size_t s = 0; s < set.num_shards(); ++s) {
    out.shards_.push_back(Expr::Set(set.shard(s)));
  }
  return out;
}

ShardedExpr ShardedExpr::And(std::vector<ShardedExpr> children) {
  return Combine(children, [](std::vector<Expr> c) {
    return Expr::And(std::move(c));
  });
}

ShardedExpr ShardedExpr::Or(std::vector<ShardedExpr> children) {
  return Combine(children, [](std::vector<Expr> c) {
    return Expr::Or(std::move(c));
  });
}

ShardedExpr ShardedExpr::Diff(ShardedExpr include, ShardedExpr exclude) {
  return Combine({std::move(include), std::move(exclude)},
                 [](std::vector<Expr> c) {
                   return Expr::Diff(std::move(c[0]), std::move(c[1]));
                 });
}

ShardedExpr ShardedExpr::AtLeast(std::size_t threshold,
                                 std::vector<ShardedExpr> children) {
  return Combine(children, [threshold](std::vector<Expr> c) {
    return Expr::AtLeast(threshold, std::move(c));
  });
}

ShardedExpr ShardedExpr::None() {
  ShardedExpr out;
  out.none_ = true;
  return out;
}

// --- Serve -----------------------------------------------------------------

ServeResult ShardedEngine::Serve(std::span<const ShardedSet* const> sets,
                                 ServeOptions options) const {
  Timer wall;
  for (const ShardedSet* set : sets) CheckHandle(set);
  const std::size_t max_arity = engines_.front().max_query_sets();
  if (sets.size() > max_arity) {
    throw std::invalid_argument(
        "ShardedEngine::Serve: query has " + std::to_string(sets.size()) +
        " sets but the per-shard algorithm supports at most " +
        std::to_string(max_arity));
  }
  // Per-shard copies of the input handles: [shard][set].
  const std::size_t num_shards = map_.num_shards();
  std::vector<std::vector<PreparedSet>> inputs(num_shards);
  for (std::size_t s = 0; s < num_shards; ++s) {
    inputs[s].reserve(sets.size());
    for (const ShardedSet* set : sets) inputs[s].push_back(set->shards_[s]);
  }
  auto state = std::make_shared<QueryState>();
  state->make_query = [this, inputs = std::move(inputs)](std::size_t s) {
    return engines_[s].Query(std::span<const PreparedSet>(inputs[s]));
  };
  return ServeScattered(std::move(state), options, wall);
}

ServeResult ShardedEngine::Serve(const ShardedExpr& expr,
                                 ServeOptions options) const {
  Timer wall;
  CheckHandle(&expr);
  auto state = std::make_shared<QueryState>();
  state->make_query = [this, expr](std::size_t s) {
    return engines_[s].Query(expr.Shard(s));
  };
  return ServeScattered(std::move(state), options, wall);
}

ServeResult ShardedEngine::ServeScattered(std::shared_ptr<QueryState> state,
                                          ServeOptions options,
                                          Timer& wall) const {
  const std::size_t num_shards = map_.num_shards();
  ServeResult out;

  AdmissionTicket ticket(admission_.TryAdmit() ? &admission_ : nullptr);
  if (!ticket.admitted()) {
    out.status = ServeStatus::kRejected;
    out.shards_missed = num_shards;
    out.wall_micros = Micros(wall);
    return out;
  }

  // Resolve the deadline: per-query value, else the engine default.
  std::optional<Clock::time_point> deadline;
  const std::chrono::microseconds relative =
      options.deadline.value_or(options_.default_deadline);
  const bool has_deadline =
      options.deadline.has_value() || options_.default_deadline.count() > 0;
  if (has_deadline) {
    if (relative.count() <= 0) {
      // Zero or negative budget: expired at admission, nothing scattered.
      deadline_misses_.fetch_add(1, std::memory_order_relaxed);
      out.status = ServeStatus::kExpired;
      out.shards_missed = num_shards;
      out.wall_micros = Micros(wall);
      return out;
    }
    deadline = Clock::now() + relative;
  }

  state->slots.resize(num_shards);
  state->remaining = num_shards;

  auto run_shard = [this, state, options, deadline](std::size_t s) {
    {
      std::lock_guard<std::mutex> lock(state->mutex);
      if (state->finalized) {
        // The gather already returned (deadline) — don't burn pool time
        // computing a result nobody will read.
        --state->remaining;
        return;
      }
    }
    QueryState::Slot slot;
    try {
      if (!deadline || Clock::now() < *deadline) {
        fsi::Query query = state->make_query(s);
        if (!options.ordered || options.count_only) query.Unordered();
        query.Limit(options.limit);
        if (options.count_only) {
          query.CountOnly();
          slot.stats = query.Execute();
        } else {
          slot.stats = query.ExecuteInto(&slot.elems);
        }
        slot.computed = true;
      }
      // else: the deadline fired before this task started — report the
      // shard as missed (computing anyway could not make the gather).
    } catch (...) {
      std::lock_guard<std::mutex> lock(state->mutex);
      if (!state->error) state->error = std::current_exception();
      slot.computed = false;
    }
    {
      std::lock_guard<std::mutex> lock(state->mutex);
      if (slot.computed) state->slots[s] = std::move(slot);
      --state->remaining;
    }
    state->cv.notify_all();
  };

  // Scatter.  If a Submit itself throws (allocation failure), never
  // unwind past tasks already in flight: balance `remaining` for the
  // unsubmitted shards, drain, rethrow.
  std::size_t submitted = 0;
  try {
    for (; submitted < num_shards; ++submitted) {
      pool_.Submit([run_shard, submitted] { run_shard(submitted); });
    }
  } catch (...) {
    std::unique_lock<std::mutex> lock(state->mutex);
    state->finalized = true;
    state->remaining -= num_shards - submitted;
    state->cv.wait(lock, [&] { return state->remaining == 0; });
    throw;
  }

  // Gather: all shards, or as many as the deadline allows.
  std::unique_lock<std::mutex> lock(state->mutex);
  if (deadline) {
    state->cv.wait_until(lock, *deadline,
                         [&] { return state->remaining == 0; });
  } else {
    state->cv.wait(lock, [&] { return state->remaining == 0; });
  }
  state->finalized = true;
  if (state->error) std::rethrow_exception(state->error);

  std::size_t count_sum = 0;
  for (std::size_t s = 0; s < num_shards; ++s) {
    QueryState::Slot& slot = state->slots[s];
    if (!slot.computed) {
      ++out.shards_missed;
      continue;
    }
    ++out.shards_answered;
    count_sum += slot.stats.result_size;
    out.elements_scanned += slot.stats.elements_scanned;
    out.predicted_micros += slot.stats.predicted_micros;
    if (!options.count_only && !slot.elems.empty()) {
      // Shards own contiguous id ranges, so appending in shard order
      // keeps the gathered result globally sorted (ordered mode).
      out.elems.insert(out.elems.end(), slot.elems.begin(), slot.elems.end());
    }
  }
  lock.unlock();

  if (!options.count_only && out.elems.size() > options.limit) {
    out.elems.resize(options.limit);
  }
  out.result_size = options.count_only ? std::min(count_sum, options.limit)
                                       : out.elems.size();
  if (out.shards_missed > 0) {
    out.status = ServeStatus::kPartial;
    deadline_misses_.fetch_add(1, std::memory_order_relaxed);
  }
  served_.fetch_add(1, std::memory_order_relaxed);
  out.wall_micros = Micros(wall);
  return out;
}

ServeCounters ShardedEngine::counters() const {
  ServeCounters counters;
  counters.admitted = admission_.admitted();
  counters.rejected = admission_.rejected();
  counters.deadline_misses =
      deadline_misses_.load(std::memory_order_relaxed);
  counters.served = served_.load(std::memory_order_relaxed);
  counters.in_flight = admission_.in_flight();
  return counters;
}

void ShardedEngine::SaveSnapshot(
    const std::string& path,
    std::span<const ShardedSet* const> sets) const {
  for (const ShardedSet* set : sets) CheckHandle(set);
  std::random_device entropy;
  ShardMapRecord record;
  record.num_shards = map_.num_shards();
  record.num_sets = sets.size();
  record.save_id = (std::uint64_t{entropy()} << 32) | entropy();
  record.universe_bound = options_.universe_bound;
  // One independent, self-describing engine image per shard.
  std::vector<const PreparedSet*> shard_sets(sets.size());
  for (std::size_t s = 0; s < map_.num_shards(); ++s) {
    for (std::size_t j = 0; j < sets.size(); ++j) {
      shard_sets[j] = &sets[j]->shards_[s];
    }
    record.shard = s;
    const std::string shard_path = ShardPath(path, s);
    std::ofstream out(shard_path, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw storage::SnapshotError(
          storage::SnapshotErrorCode::kIo,
          "snapshot: cannot open '" + shard_path + "' for writing");
    }
    storage::SnapshotWriter writer(out);
    engines_[s].WriteSnapshotSections(writer, shard_sets);
    writer.AddSection(storage::kSectionShardMap,
                      std::as_bytes(std::span(&record, 1)),
                      storage::kSectionFlagCritical);
    writer.Finish();
  }
}

LoadedShardedSnapshot ShardedEngine::LoadSnapshot(const std::string& path,
                                                  LoadOptions options) {
  using storage::SnapshotError;
  using storage::SnapshotErrorCode;

  ShardMapRecord first;  // shard 0's record: what every image must match
  std::size_t num_shards = 1;  // until shard 0's record says otherwise
  std::vector<Engine> engines;
  std::vector<std::vector<PreparedSet>> per_shard_sets;
  std::vector<SnapshotInfo> infos;
  for (std::size_t s = 0; s < num_shards; ++s) {
    const std::string shard_path = ShardPath(path, s);
    auto backing = std::make_shared<const storage::MappedFile>(
        shard_path, /*prefault=*/options.snapshot.verify_checksums);
    storage::SnapshotReader reader(
        backing->bytes(),
        storage::SnapshotReader::Options{options.snapshot.verify_checksums});
    const auto section =
        reader.RequireSection(storage::kSectionShardMap, "shard map");
    ShardMapRecord record;
    if (section.size() != sizeof(record)) {
      throw SnapshotError(SnapshotErrorCode::kCorrupt,
                          shard_path + ": shard-map section of " +
                              std::to_string(section.size()) + " bytes");
    }
    std::memcpy(&record, section.data(), sizeof(record));
    if (s == 0) {
      // The shard count sizes everything below: check it first.
      try {
        static_cast<void>(ShardMap(record.num_shards, record.universe_bound));
      } catch (const std::invalid_argument& error) {
        throw SnapshotError(SnapshotErrorCode::kCorrupt,
                            shard_path + ": " + error.what());
      }
      first = record;
      num_shards = record.num_shards;
    }
    ShardMapRecord expected = first;
    expected.shard = s;
    if (record != expected) {
      throw SnapshotError(
          SnapshotErrorCode::kCorrupt,
          shard_path + ": not shard " + std::to_string(s) + " of the save " +
              ShardPath(path, 0) + " belongs to");
    }
    LoadedSnapshot loaded = Engine::LoadSnapshotSections(
        reader, std::move(backing), options.snapshot);
    if (loaded.sets.size() != record.num_sets) {
      throw SnapshotError(
          SnapshotErrorCode::kCorrupt,
          shard_path + ": expected " + std::to_string(record.num_sets) +
              " sets per its shard map, found " +
              std::to_string(loaded.sets.size()));
    }
    engines.push_back(std::move(loaded.engine));
    per_shard_sets.push_back(std::move(loaded.sets));
    infos.push_back(std::move(loaded.info));
  }

  ShardedEngineOptions engine_options{
      .num_shards = num_shards,
      .universe_bound = first.universe_bound,
      .spec = engines.front().spec(),
      .seed = engines.front().seed(),
      .validation = options.snapshot.validation,
      .num_threads = options.num_threads,
      .max_in_flight = options.max_in_flight,
      .default_deadline = options.default_deadline};

  auto tag = std::make_shared<const int>(0);
  std::vector<ShardedSet> sets;
  sets.reserve(first.num_sets);
  for (std::size_t j = 0; j < first.num_sets; ++j) {
    std::vector<PreparedSet> shards;
    shards.reserve(num_shards);
    std::size_t total = 0;
    for (std::size_t s = 0; s < num_shards; ++s) {
      total += per_shard_sets[s][j].size();
      shards.push_back(std::move(per_shard_sets[s][j]));
    }
    sets.push_back(ShardedSet(tag, std::move(shards), total));
  }

  return LoadedShardedSnapshot{
      ShardedEngine(std::move(engine_options), std::move(engines), tag),
      std::move(sets), std::move(infos)};
}

}  // namespace fsi
