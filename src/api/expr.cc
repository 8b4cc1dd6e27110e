#include "api/expr.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "api/epoch.h"
#include "api/planner.h"
#include "baseline/plain_set.h"
#include "baseline/svs.h"
#include "core/delta_set.h"
#include "core/threshold.h"
#include "simd/intersect_kernels.h"

namespace fsi {

namespace expr_internal {

/// The evaluator's keyhole into PreparedSet's shared ownership (the
/// public surface deliberately hides the raw shared_ptrs).
struct Access {
  static const std::shared_ptr<const PreprocessedSet>& set(
      const PreparedSet& s) {
    return s.set_;
  }
  static const std::shared_ptr<MutableSetCore>& core(const PreparedSet& s) {
    return s.core_;
  }
  static const std::shared_ptr<const IntersectionAlgorithm>& algorithm(
      const PreparedSet& s) {
    return s.algorithm_;
  }
};

}  // namespace expr_internal

namespace {

using expr_internal::Access;

std::shared_ptr<const ExprNode> MakeNode(ExprNode node) {
  return std::make_shared<const ExprNode>(std::move(node));
}

void CheckChildren(const char* builder, const std::vector<Expr>& children,
                   bool require_nonempty) {
  if (require_nonempty && children.empty()) {
    throw std::invalid_argument(std::string("Expr::") + builder +
                                ": at least one child required");
  }
  for (const Expr& c : children) {
    if (c.empty_handle()) {
      throw std::invalid_argument(std::string("Expr::") + builder +
                                  ": empty Expr handle among children");
    }
  }
}

// ---------------------------------------------------------------------------
// Structural fingerprints.
//
// splitmix64-style mixing; 128 bits as two independent chains so that a
// colliding pair would have to collide in both.  Leaf identity is the
// owning shared object's address (structure for immutable handles, the
// mutable core otherwise) — cache entries pin those objects, so a live
// fingerprint can never alias a recycled address.  `with_versions` mixes
// every mutable leaf's version in: the memoization key (a mutation makes
// the old key unreachable); without versions the fingerprint is the
// *structural* identity used for idempotent dedup.
// ---------------------------------------------------------------------------

std::uint64_t Mix(std::uint64_t h, std::uint64_t v) {
  v += 0x9e3779b97f4a7c15ULL + h;
  v = (v ^ (v >> 30)) * 0xbf58476d1ce4e5b9ULL;
  v = (v ^ (v >> 27)) * 0x94d049bb133111ebULL;
  return v ^ (v >> 31);
}

ExprKey MixKey(ExprKey h, std::uint64_t v) {
  return ExprKey{Mix(h.hi, v), Mix(h.lo, v ^ 0xd6e8feb86659fd93ULL)};
}

/// Fingerprint of a subtree.  `version_of` supplies the version to mix in
/// for mutable leaves (0 disables); the evaluator passes the version of
/// the snapshot it actually took, so key and data always agree.
template <typename VersionFn>
ExprKey Fingerprint(const ExprNode* n, const VersionFn& version_of) {
  ExprKey key{0x243f6a8885a308d3ULL, 0x13198a2e03707344ULL};
  key = MixKey(key, static_cast<std::uint64_t>(n->kind));
  switch (n->kind) {
    case ExprKind::kSet: {
      const PreparedSet& leaf = n->leaf;
      const void* identity = leaf.is_mutable()
                                 ? static_cast<const void*>(
                                       Access::core(leaf).get())
                                 : static_cast<const void*>(
                                       Access::set(leaf).get());
      key = MixKey(key, reinterpret_cast<std::uintptr_t>(identity));
      if (leaf.is_mutable()) key = MixKey(key, version_of(leaf));
      break;
    }
    case ExprKind::kAtLeast:
      key = MixKey(key, n->threshold);
      [[fallthrough]];
    case ExprKind::kAnd:
    case ExprKind::kOr:
    case ExprKind::kDiff:
      for (const Expr& c : n->children) {
        ExprKey ck = Fingerprint(c.node(), version_of);
        key = MixKey(key, ck.hi);
        key = MixKey(key, ck.lo);
      }
      break;
    case ExprKind::kNone:
      break;
  }
  return key;
}

ExprKey StructuralKey(const ExprNode* n) {
  return Fingerprint(n, [](const PreparedSet&) { return std::uint64_t{0}; });
}

bool StructurallyEqual(const Expr& a, const Expr& b) {
  if (a.node() == b.node()) return true;
  return StructuralKey(a.node()) == StructuralKey(b.node());
}

// ---------------------------------------------------------------------------
// The rewrite pass.  Helpers assume already-optimized inputs and return
// optimized trees, so rewrites compose without re-walking.
// ---------------------------------------------------------------------------

Expr OptimizedNode(const Expr& e);
Expr OptAnd(std::vector<Expr> children);
Expr OptOr(std::vector<Expr> children);
Expr OptDiff(Expr include, Expr exclude);
Expr OptAtLeast(std::size_t threshold, std::vector<Expr> children);

/// Order-preserving structural dedup (And/Or idempotence).
void DedupChildren(std::vector<Expr>* children) {
  std::vector<Expr> unique;
  std::vector<ExprKey> keys;
  unique.reserve(children->size());
  for (Expr& c : *children) {
    ExprKey key = StructuralKey(c.node());
    bool seen = false;
    for (const ExprKey& k : keys) {
      if (k == key) {
        seen = true;
        break;
      }
    }
    if (!seen) {
      keys.push_back(key);
      unique.push_back(std::move(c));
    }
  }
  children->swap(unique);
}

Expr OptAnd(std::vector<Expr> children) {
  // Flatten nested Ands; None absorbs the conjunction.
  std::vector<Expr> flat;
  for (Expr& c : children) {
    if (c.kind() == ExprKind::kNone) return Expr::None();
    if (c.kind() == ExprKind::kAnd) {
      for (std::size_t i = 0; i < c.num_children(); ++i) {
        flat.push_back(c.child(i));
      }
    } else {
      flat.push_back(std::move(c));
    }
  }
  // Difference pushdown: ∩ᵢ xᵢ ∩ ∩ⱼ (aⱼ \ bⱼ)  ==  (∩ xᵢ ∩ ∩ aⱼ) \ ∪ bⱼ.
  std::vector<Expr> positives;
  std::vector<Expr> negatives;
  for (Expr& c : flat) {
    if (c.kind() == ExprKind::kDiff) {
      positives.push_back(c.child(0));
      negatives.push_back(c.child(1));
    } else {
      positives.push_back(std::move(c));
    }
  }
  // Diff includes may themselves be conjunctions — re-flatten once.
  std::vector<Expr> expanded;
  for (Expr& p : positives) {
    if (p.kind() == ExprKind::kAnd) {
      for (std::size_t i = 0; i < p.num_children(); ++i) {
        expanded.push_back(p.child(i));
      }
    } else {
      expanded.push_back(std::move(p));
    }
  }
  DedupChildren(&expanded);
  Expr conjunction =
      expanded.size() == 1 ? std::move(expanded[0]) : Expr::And(expanded);
  if (negatives.empty()) return conjunction;
  return OptDiff(std::move(conjunction), OptOr(std::move(negatives)));
}

Expr OptOr(std::vector<Expr> children) {
  std::vector<Expr> flat;
  for (Expr& c : children) {
    if (c.kind() == ExprKind::kNone) continue;  // ∅ drops out of a union
    if (c.kind() == ExprKind::kOr) {
      for (std::size_t i = 0; i < c.num_children(); ++i) {
        flat.push_back(c.child(i));
      }
    } else {
      flat.push_back(std::move(c));
    }
  }
  if (flat.empty()) return Expr::None();
  DedupChildren(&flat);
  if (flat.size() == 1) return flat[0];
  return Expr::Or(std::move(flat));
}

Expr OptDiff(Expr include, Expr exclude) {
  if (include.kind() == ExprKind::kNone) return Expr::None();
  if (exclude.kind() == ExprKind::kNone) return include;
  if (StructurallyEqual(include, exclude)) return Expr::None();
  if (include.kind() == ExprKind::kDiff) {
    // (a \ b) \ c == a \ (b ∪ c): one subtraction at the top.
    Expr a = include.child(0);
    Expr merged = OptOr({include.child(1), std::move(exclude)});
    return OptDiff(std::move(a), std::move(merged));
  }
  return Expr::Diff(std::move(include), std::move(exclude));
}

Expr OptAtLeast(std::size_t threshold, std::vector<Expr> children) {
  // An empty operand can never contribute to an element's count, so it
  // leaves both the census and the threshold unchanged when dropped.
  std::vector<Expr> live;
  for (Expr& c : children) {
    if (c.kind() != ExprKind::kNone) live.push_back(std::move(c));
  }
  if (threshold > live.size()) return Expr::None();
  if (threshold == live.size()) return OptAnd(std::move(live));
  if (threshold == 1) return OptOr(std::move(live));
  return Expr::AtLeast(threshold, std::move(live));
}

Expr OptimizedNode(const Expr& e) {
  switch (e.kind()) {
    case ExprKind::kNone:
      return e;
    case ExprKind::kSet:
      // A *mutable* empty leaf can grow later — never fold it.
      if (!e.leaf().is_mutable() && e.leaf().size() == 0) return Expr::None();
      return e;
    case ExprKind::kAnd:
    case ExprKind::kOr:
    case ExprKind::kAtLeast: {
      std::vector<Expr> children;
      children.reserve(e.num_children());
      for (std::size_t i = 0; i < e.num_children(); ++i) {
        children.push_back(OptimizedNode(e.child(i)));
      }
      if (e.kind() == ExprKind::kAnd) return OptAnd(std::move(children));
      if (e.kind() == ExprKind::kOr) return OptOr(std::move(children));
      return OptAtLeast(e.threshold(), std::move(children));
    }
    case ExprKind::kDiff:
      return OptDiff(OptimizedNode(e.child(0)), OptimizedNode(e.child(1)));
  }
  return e;
}

}  // namespace

// ---------------------------------------------------------------------------
// Expr builders.
// ---------------------------------------------------------------------------

std::string_view ToString(ExprKind kind) {
  switch (kind) {
    case ExprKind::kSet:
      return "set";
    case ExprKind::kAnd:
      return "and";
    case ExprKind::kOr:
      return "or";
    case ExprKind::kDiff:
      return "diff";
    case ExprKind::kAtLeast:
      return "at-least";
    case ExprKind::kNone:
      return "none";
  }
  return "unknown";
}

Expr Expr::Set(const PreparedSet& set) {
  if (set.empty_handle()) {
    throw std::invalid_argument("Expr::Set: empty PreparedSet handle");
  }
  ExprNode node;
  node.kind = ExprKind::kSet;
  node.leaf = set;
  return Expr(MakeNode(std::move(node)));
}

Expr Expr::And(std::vector<Expr> children) {
  CheckChildren("And", children, /*require_nonempty=*/true);
  ExprNode node;
  node.kind = ExprKind::kAnd;
  node.children = std::move(children);
  return Expr(MakeNode(std::move(node)));
}

Expr Expr::Or(std::vector<Expr> children) {
  CheckChildren("Or", children, /*require_nonempty=*/true);
  ExprNode node;
  node.kind = ExprKind::kOr;
  node.children = std::move(children);
  return Expr(MakeNode(std::move(node)));
}

Expr Expr::Diff(Expr include, Expr exclude) {
  if (include.empty_handle() || exclude.empty_handle()) {
    throw std::invalid_argument("Expr::Diff: empty Expr handle");
  }
  ExprNode node;
  node.kind = ExprKind::kDiff;
  node.children.push_back(std::move(include));
  node.children.push_back(std::move(exclude));
  return Expr(MakeNode(std::move(node)));
}

Expr Expr::AtLeast(std::size_t threshold, std::vector<Expr> children) {
  if (threshold == 0) {
    throw std::invalid_argument(
        "Expr::AtLeast: threshold must be >= 1 (t = 0 would be the whole "
        "universe, which prepared sets cannot represent)");
  }
  CheckChildren("AtLeast", children, /*require_nonempty=*/true);
  ExprNode node;
  node.kind = ExprKind::kAtLeast;
  node.threshold = threshold;
  node.children = std::move(children);
  return Expr(MakeNode(std::move(node)));
}

Expr Expr::None() {
  ExprNode node;
  node.kind = ExprKind::kNone;
  return Expr(MakeNode(std::move(node)));
}

std::size_t Expr::num_leaves() const {
  if (node_ == nullptr) return 0;
  if (node_->kind == ExprKind::kSet) return 1;
  std::size_t total = 0;
  for (const Expr& c : node_->children) total += c.num_leaves();
  return total;
}

std::string Expr::ToString() const {
  if (node_ == nullptr) return "<empty>";
  std::ostringstream os;
  os << fsi::ToString(node_->kind);
  if (node_->kind == ExprKind::kAtLeast) os << '(' << node_->threshold << ')';
  if (!node_->children.empty()) {
    os << '(';
    for (std::size_t i = 0; i < node_->children.size(); ++i) {
      if (i > 0) os << ", ";
      os << node_->children[i].ToString();
    }
    os << ')';
  }
  return os.str();
}

Expr OptimizeExpr(const Expr& expr) {
  if (expr.empty_handle()) {
    throw std::invalid_argument("OptimizeExpr: empty Expr handle");
  }
  return OptimizedNode(expr);
}

// ---------------------------------------------------------------------------
// ExprCache.
// ---------------------------------------------------------------------------

namespace {
/// Bookkeeping overhead per entry (list/map nodes, pins) — keeps the
/// byte bound honest for many tiny results.
constexpr std::size_t kEntryOverheadBytes = 128;
}  // namespace

std::shared_ptr<const ElemList> ExprCache::Lookup(const ExprKey& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
  return it->second->elems;
}

void ExprCache::Insert(const ExprKey& key,
                       std::shared_ptr<const ElemList> elems,
                       std::vector<std::shared_ptr<const void>> pins) {
  const std::size_t bytes =
      elems->size() * sizeof(Elem) + pins.size() * sizeof(void*) +
      kEntryOverheadBytes;
  if (bytes > max_bytes_) return;  // larger than the whole cache
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    // Raced with another worker computing the same node: keep the
    // incumbent (bitwise-identical by construction), refresh recency.
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(Entry{key, std::move(elems), std::move(pins), bytes});
  index_.emplace(key, lru_.begin());
  bytes_ += bytes;
  ++stats_.insertions;
  while (bytes_ > max_bytes_ && !lru_.empty()) {
    Entry& victim = lru_.back();
    bytes_ -= victim.bytes;
    index_.erase(victim.key);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

ExprCacheStats ExprCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  ExprCacheStats out = stats_;
  out.entries = index_.size();
  out.bytes = bytes_;
  return out;
}

void ExprCache::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  lru_.clear();
  index_.clear();
  bytes_ = 0;
}

// ---------------------------------------------------------------------------
// Evaluation.
// ---------------------------------------------------------------------------

namespace expr_internal {
namespace {

/// Sorted k-way count-merge: emits every element present in at least
/// `threshold` of the lists (counted with multiplicity).  The generic
/// AtLeast path; the all-leaf grouped path runs core/threshold.h instead.
void AtLeastMerge(const std::vector<std::span<const Elem>>& lists,
                  std::size_t threshold, ElemList* out) {
  std::vector<std::size_t> pos(lists.size(), 0);
  for (;;) {
    bool any = false;
    Elem head = 0;
    for (std::size_t i = 0; i < lists.size(); ++i) {
      if (pos[i] < lists[i].size()) {
        if (!any || lists[i][pos[i]] < head) head = lists[i][pos[i]];
        any = true;
      }
    }
    if (!any) break;
    std::size_t count = 0;
    for (std::size_t i = 0; i < lists.size(); ++i) {
      if (pos[i] < lists[i].size() && lists[i][pos[i]] == head) {
        ++count;
        ++pos[i];
      }
    }
    if (count >= threshold) out->push_back(head);
  }
}

/// Sorted union of two lists into *out (cleared).
void UnionPair(std::span<const Elem> a, std::span<const Elem> b,
               ElemList* out) {
  out->clear();
  out->reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(*out));
}

/// The sorted element view of an immutable structure, when it exposes one.
std::optional<std::span<const Elem>> StructureElems(
    const PreprocessedSet* set) {
  if (const auto* planned = dynamic_cast<const PlannedSet*>(set)) {
    // Compressed sets carry no raw array; the caller's generic path
    // materializes them through the algorithm (which decodes on demand).
    if (!planned->has_plain()) return std::nullopt;
    return planned->elems();
  }
  if (const auto* plain = dynamic_cast<const PlainSet*>(set)) {
    return plain->elems();
  }
  return std::nullopt;
}

struct NodeState {
  ExprKey key;
  std::optional<MutableSetState> snapshot;  // mutable leaves only
  /// The leaf objects of this node's subtree, each once: what a cache
  /// entry for the node keeps alive.  Collected only when memoizing.
  std::vector<std::shared_ptr<const void>> pins;
  bool evaluated = false;
  std::span<const Elem> view;
  /// Keeps `view` alive: the leaf structure, the snapshot base array, or
  /// the owned/cached result vector.
  std::shared_ptr<const void> owner;
};

/// An And node whose children are all leaves, resolved against the run's
/// snapshots: the input of one native k-way call and the delta fixup.
struct LeafConjunction {
  /// Index-aligned with the children: the structure to intersect (the
  /// snapshot structure for a mutable leaf) and the snapshot (null for an
  /// immutable leaf).
  std::vector<const PreprocessedSet*> views;
  std::vector<const MutableSetState*> snapshots;
  bool any_mutable = false;
  std::size_t total_inserts = 0;
  std::size_t total_erases = 0;
  std::size_t max_base_size = 0;
  bool has_delta() const { return total_inserts + total_erases > 0; }
};

/// One run's view of a tree: a consistent snapshot per mutable leaf, taken
/// once (so fingerprints, plans and data agree for the whole run — the key
/// mixes the version of the snapshot this run actually evaluates, not the
/// live version a concurrent writer may have advanced), each node's
/// memoization key, and the pins its cache entry must retain.  Shared by
/// evaluation and Explain.
class PreparedTree {
 public:
  PreparedTree(const EvalContext& ctx, const ExprNode* root,
               bool collect_pins)
      : ctx_(ctx), collect_pins_(collect_pins) {
    Prepare(root);
  }

  const EvalContext& ctx() const { return ctx_; }
  NodeState& state(const ExprNode* n) { return states_.at(n); }
  const NodeState& state(const ExprNode* n) const { return states_.at(n); }

  /// Resolves `n` when it is an And over leaves that the engine runs as
  /// one k-way call (always on the planner; within the algorithm's arity
  /// on an explicit engine — wider conjunctions run the pairwise chain).
  bool ResolveConjunction(const ExprNode* n, LeafConjunction* c) const {
    if (n->kind != ExprKind::kAnd) return false;
    for (const Expr& child : n->children) {
      if (child.kind() != ExprKind::kSet) return false;
    }
    if (ctx_.planner == nullptr &&
        n->children.size() > ctx_.algorithm->max_query_sets()) {
      return false;
    }
    c->views.reserve(n->children.size());
    c->snapshots.reserve(n->children.size());
    for (const Expr& child : n->children) {
      const NodeState& s = state(child.node());
      const PreprocessedSet* view = Access::set(child.leaf()).get();
      const MutableSetState* snapshot = nullptr;
      if (s.snapshot) {
        snapshot = &*s.snapshot;
        view = snapshot->structure.get();
        c->any_mutable = true;
        c->total_inserts += snapshot->delta.insert_span().size();
        c->total_erases += snapshot->delta.erase_span().size();
      }
      c->views.push_back(view);
      c->snapshots.push_back(snapshot);
      c->max_base_size = std::max(c->max_base_size, view->size());
    }
    return true;
  }

  /// The step plan of a resolved conjunction — the planner's plan, or the
  /// explicit algorithm's pseudo-plan priced by its cost hook — plus a
  /// DeltaMerge step pricing the fixup when a delta is non-empty.
  QueryPlan PlanConjunction(const LeafConjunction& c) const {
    QueryPlan plan =
        ctx_.planner != nullptr
            ? ctx_.planner->Plan(c.views)
            : PlanExplicit(*ctx_.algorithm, c.views, ctx_.cost_hook);
    if (!c.has_delta()) return plan;
    PlanStep step;
    step.algorithm = "DeltaMerge";
    step.left_size = static_cast<std::size_t>(plan.est_result);
    step.left_estimated = true;
    step.right_size = c.total_inserts + c.total_erases;
    step.est_result = plan.est_result;
    step.predicted_micros = DeltaFixupMicros(
        c.views.size(), plan.est_result, c.total_erases, c.total_inserts,
        c.max_base_size,
        ctx_.planner != nullptr ? ctx_.planner->constants()
                                : CostConstants{});
    plan.predicted_micros += step.predicted_micros;
    plan.steps.push_back(std::move(step));
    return plan;
  }

  /// Adds the structural stats of `n`'s subtree (a shared leaf counts once
  /// per use): the leaves, their element volume (base + delta for a
  /// mutable leaf) and the group count of the coarsest grouped structure.
  void AddStructure(const ExprNode* n, QueryStats* stats) const {
    if (n->kind == ExprKind::kSet) {
      const NodeState& s = state(n);
      const PreprocessedSet* structure =
          s.snapshot ? s.snapshot->structure.get()
                     : Access::set(n->leaf).get();
      ++stats->num_sets;
      stats->elements_scanned +=
          s.snapshot ? s.snapshot->base->size() + s.snapshot->delta.size()
                     : structure->size();
      const std::uint64_t groups = structure->NumGroups();
      if (groups > 0) {
        stats->groups_probed = stats->groups_probed == 0
                                   ? groups
                                   : std::min(stats->groups_probed, groups);
      }
    }
    for (const Expr& c : n->children) AddStructure(c.node(), stats);
  }

 private:
  const NodeState& Prepare(const ExprNode* n) {
    if (auto it = states_.find(n); it != states_.end()) {
      return it->second;  // shared subtree: one snapshot, one key
    }
    NodeState state;
    ExprKey key{0x243f6a8885a308d3ULL, 0x13198a2e03707344ULL};
    key = MixKey(key, static_cast<std::uint64_t>(n->kind));
    if (n->kind == ExprKind::kSet) {
      std::shared_ptr<const void> pin;
      if (n->leaf.is_mutable()) {
        state.snapshot = Access::core(n->leaf)->Snapshot();
        pin = Access::core(n->leaf);
        key = MixKey(key, reinterpret_cast<std::uintptr_t>(pin.get()));
        key = MixKey(key, state.snapshot->version);
      } else {
        pin = Access::set(n->leaf);
        key = MixKey(key, reinterpret_cast<std::uintptr_t>(pin.get()));
      }
      if (collect_pins_) state.pins.push_back(std::move(pin));
    }
    if (n->kind == ExprKind::kAtLeast) key = MixKey(key, n->threshold);
    for (const Expr& c : n->children) {
      // unordered_map references survive rehashing.
      const NodeState& child = Prepare(c.node());
      key = MixKey(key, child.key.hi);
      key = MixKey(key, child.key.lo);
      if (collect_pins_) {
        state.pins.insert(state.pins.end(), child.pins.begin(),
                          child.pins.end());
      }
    }
    if (collect_pins_ && n->children.size() > 1) {
      const std::less<const void*> before;
      std::sort(state.pins.begin(), state.pins.end(),
                [&](const auto& a, const auto& b) {
                  return before(a.get(), b.get());
                });
      state.pins.erase(
          std::unique(state.pins.begin(), state.pins.end(),
                      [](const auto& a, const auto& b) {
                        return a.get() == b.get();
                      }),
          state.pins.end());
    }
    state.key = key;
    return states_.emplace(n, std::move(state)).first->second;
  }

  const EvalContext& ctx_;
  const bool collect_pins_;
  std::unordered_map<const ExprNode*, NodeState> states_;
};

class Evaluator {
 public:
  explicit Evaluator(PreparedTree& tree)
      : tree_(tree),
        ctx_(tree.ctx()),
        constants_(ctx_.planner != nullptr ? ctx_.planner->constants()
                                           : CostConstants{}),
        kernels_(simd::DispatchedKernels()) {}

  /// Evaluates `root` into `*out`.  A composite root computes straight
  /// into the caller's buffer; only a memoized result is copied (into
  /// the cache).
  void Run(const ExprNode* root, bool ordered, const QueryPlan* root_plan,
           ElemList* out) {
    if (root->kind == ExprKind::kSet || root->kind == ExprKind::kNone) {
      const std::span<const Elem> view = Eval(root).view;
      out->assign(view.begin(), view.end());
      return;
    }
    NodeState& state = tree_.state(root);
    if (Lookup(&state)) {
      out->assign(state.view.begin(), state.view.end());
      return;
    }
    // A memoized result must be sorted: other queries may read it as an
    // inner node's input.
    Compute(root, ordered || ctx_.cache != nullptr, root_plan, out);
    if (ctx_.cache != nullptr) {
      ctx_.cache->Insert(state.key, std::make_shared<const ElemList>(*out),
                         state.pins);
    }
  }

 private:
  const NodeState& Eval(const ExprNode* n) {
    NodeState& state = tree_.state(n);
    if (state.evaluated) return state;
    if (n->kind == ExprKind::kSet) {
      EvalLeaf(n, &state);
    } else if (n->kind != ExprKind::kNone && !Lookup(&state)) {
      auto result = std::make_shared<ElemList>();
      Compute(n, /*ordered=*/true, /*plan=*/nullptr, result.get());
      state.view = std::span<const Elem>(*result);
      state.owner = result;
      if (ctx_.cache != nullptr) {
        ctx_.cache->Insert(state.key, std::move(result), state.pins);
      }
    }
    state.evaluated = true;
    return state;
  }

  bool Lookup(NodeState* state) {
    if (ctx_.cache == nullptr) return false;
    std::shared_ptr<const ElemList> cached = ctx_.cache->Lookup(state->key);
    if (cached == nullptr) return false;
    state->view = std::span<const Elem>(*cached);
    state->owner = std::move(cached);
    return true;
  }

  void Compute(const ExprNode* n, bool ordered, const QueryPlan* plan,
               ElemList* out) {
    switch (n->kind) {
      case ExprKind::kAnd:
        EvalAnd(n, ordered, plan, out);
        break;
      case ExprKind::kOr:
        EvalOr(n, out);
        break;
      case ExprKind::kDiff:
        EvalDiff(n, out);
        break;
      case ExprKind::kAtLeast:
        EvalAtLeast(n, out);
        break;
      default:
        break;
    }
  }

  void EvalLeaf(const ExprNode* n, NodeState* state) {
    const PreparedSet& leaf = n->leaf;
    if (state->snapshot) {
      const MutableSetState& snap = *state->snapshot;
      if (snap.delta.empty()) {
        state->view = std::span<const Elem>(*snap.base);
        state->owner = snap.base;
      } else {
        auto merged = std::make_shared<const ElemList>(
            MergeEffective(*snap.base, snap.delta));
        state->view = std::span<const Elem>(*merged);
        state->owner = merged;
      }
      return;
    }
    const PreprocessedSet* raw = Access::set(leaf).get();
    if (std::optional<std::span<const Elem>> elems = StructureElems(raw)) {
      state->view = *elems;
      state->owner = Access::set(leaf);
      return;
    }
    // Opaque structure (e.g. a grouped or compressed form): materialize
    // the sorted elements through the algorithm's own k = 1 path.
    ElemList elems;
    const PreprocessedSet* one[1] = {raw};
    ctx_.algorithm->Intersect(std::span<const PreprocessedSet* const>(one, 1),
                              &elems);
    auto owned = std::make_shared<const ElemList>(std::move(elems));
    state->view = std::span<const Elem>(*owned);
    state->owner = owned;
  }

  void EvalAnd(const ExprNode* n, bool ordered, const QueryPlan* plan,
               ElemList* out) {
    LeafConjunction c;
    if (tree_.ResolveConjunction(n, &c)) {
      RunConjunction(c, ordered, plan, out);
      return;
    }
    // Smallest-first pairwise chain over the materialized children,
    // choosing merge vs gallop per step from the calibrated constants —
    // the planner's mixed-chain logic applied to arbitrary subresults.
    std::vector<std::span<const Elem>> lists = ChildViews(n);
    std::sort(lists.begin(), lists.end(),
              [](std::span<const Elem> a, std::span<const Elem> b) {
                return a.size() < b.size();
              });
    if (lists.front().empty()) return;
    out->assign(lists[0].begin(), lists[0].end());
    ElemList next;
    for (std::size_t i = 1; i < lists.size() && !out->empty(); ++i) {
      const double small = static_cast<double>(out->size());
      const double large = static_cast<double>(lists[i].size());
      const double merge_cost = constants_.merge_ns * (small + large);
      const double gallop_cost =
          constants_.gallop_ns * small *
          std::log2(2.0 + large / std::max(1.0, small));
      next.clear();
      if (gallop_cost < merge_cost) {
        GallopEliminate(kernels_, *out, lists[i], &next);
      } else {
        kernels_.intersect_pair(out->data(), out->size(), lists[i].data(),
                                lists[i].size(), &next);
      }
      out->swap(next);
    }
  }

  /// The native k-way call over the leaves' structures, then the delta
  /// fixup.  `plan` (the build-time plan of a root conjunction) is only
  /// valid while no input can change underneath it.
  void RunConjunction(const LeafConjunction& c, bool ordered,
                      const QueryPlan* plan, ElemList* out) {
    if (c.views.empty()) return;  // the empty flat query
    if (ctx_.planner != nullptr) {
      QueryPlan fresh;
      if (plan == nullptr || c.any_mutable) {
        fresh = ctx_.planner->Plan(c.views);
        plan = &fresh;
      }
      ctx_.planner->ExecutePlan(c.views, *plan, ordered, out);
    } else if (ordered) {
      ctx_.algorithm->Intersect(c.views, out);
    } else {
      ctx_.algorithm->IntersectUnordered(c.views, out);
    }
    if (c.has_delta()) ApplyDelta(c, ordered, out);
  }

  /// Folds the mutable leaves' delta tiers into the intersection of their
  /// base structures (core/delta_set.h).
  void ApplyDelta(const LeafConjunction& c, bool ordered, ElemList* out) {
    const std::size_t k = c.views.size();
    // Step 1: drop tombstoned elements from the base intersection.
    for (std::size_t i = 0; i < k && !out->empty(); ++i) {
      if (c.snapshots[i] == nullptr) continue;
      std::span<const Elem> erases = c.snapshots[i]->delta.erase_span();
      if (erases.empty()) continue;
      if (ordered) {
        SubtractSortedInPlace(out, erases, kernels_);
      } else {
        SubtractUnorderedInPlace(out, erases, kernels_);
      }
    }
    // Step 2: admit insert-buffer elements present in *every* effective
    // set.  Candidates are disjoint from the base intersection (an insert
    // is never a base member of its own set), so the merge in step 3
    // cannot duplicate.
    std::vector<const DeltaSnapshot*> deltas;
    deltas.reserve(k);
    for (const MutableSetState* s : c.snapshots) {
      if (s != nullptr) deltas.push_back(&s->delta);
    }
    ElemList candidates = UnionInsertBuffers(deltas);
    for (std::size_t i = 0; i < k && !candidates.empty(); ++i) {
      if (const MutableSetState* s = c.snapshots[i]) {
        FilterByEffectiveMembership(&candidates, *s->base, s->delta,
                                    kernels_);
      } else if (std::optional<std::span<const Elem>> elems =
                     StructureElems(c.views[i])) {
        IntersectWithSortedSpan(&candidates, *elems, kernels_);
      } else {
        // Opaque immutable structure: intersect the (small) candidate
        // list against it with the engine's own algorithm.
        std::unique_ptr<PreprocessedSet> candidate_set(
            ctx_.algorithm->Preprocess(candidates));
        const PreprocessedSet* pair[2] = {candidate_set.get(), c.views[i]};
        ElemList kept;
        ctx_.algorithm->Intersect(pair, &kept);
        candidates.swap(kept);
      }
    }
    // Step 3: fold the admitted candidates into the result.
    if (!candidates.empty()) {
      if (ordered) {
        MergeSortedDisjointInPlace(out, candidates, kernels_);
      } else {
        out->insert(out->end(), candidates.begin(), candidates.end());
      }
    }
  }

  void EvalOr(const ExprNode* n, ElemList* out) {
    std::vector<std::span<const Elem>> lists = ChildViews(n);
    // Smallest-first folding keeps intermediate unions small.
    std::sort(lists.begin(), lists.end(),
              [](std::span<const Elem> a, std::span<const Elem> b) {
                return a.size() < b.size();
              });
    out->assign(lists[0].begin(), lists[0].end());
    ElemList next;
    for (std::size_t i = 1; i < lists.size(); ++i) {
      UnionPair(*out, lists[i], &next);
      out->swap(next);
    }
  }

  void EvalDiff(const ExprNode* n, ElemList* out) {
    const NodeState& include = Eval(n->children[0].node());
    const NodeState& exclude = Eval(n->children[1].node());
    out->assign(include.view.begin(), include.view.end());
    if (!out->empty() && !exclude.view.empty()) {
      SubtractSortedInPlace(out, exclude.view, kernels_);
    }
  }

  void EvalAtLeast(const ExprNode* n, ElemList* out) {
    if (n->threshold > n->children.size()) return;  // unoptimized trees
    if (EvalAtLeastGrouped(n, out)) return;
    AtLeastMerge(ChildViews(n), n->threshold, out);
  }

  /// The Section 6 t-threshold fast path: all children are immutable
  /// leaves whose grouped (ScanSet) structures share one permutation —
  /// planner sets that carry a scan form and explicit RanGroupScan
  /// engines.  Count-merges the g-ordered arrays with group-census
  /// pruning (core/threshold.h).  Scan-less and compressed planner leaves
  /// take the count-merge over their sorted arrays instead.
  bool EvalAtLeastGrouped(const ExprNode* n, ElemList* out) {
    const RanGroupScanIntersection* scan_algorithm = nullptr;
    if (ctx_.planner != nullptr) {
      scan_algorithm = &ctx_.planner->scan_algorithm();
    } else {
      scan_algorithm =
          dynamic_cast<const RanGroupScanIntersection*>(ctx_.algorithm);
    }
    if (scan_algorithm == nullptr) return false;
    std::vector<const PreprocessedSet*> scans;
    scans.reserve(n->children.size());
    for (const Expr& c : n->children) {
      if (c.kind() != ExprKind::kSet || c.leaf().is_mutable()) return false;
      const PreprocessedSet* raw = Access::set(c.leaf()).get();
      if (const auto* planned = dynamic_cast<const PlannedSet*>(raw)) {
        if (!planned->has_scan()) return false;  // no ScanSet to count-merge
        scans.push_back(planned->scan());
      } else if (dynamic_cast<const ScanSet*>(raw) != nullptr) {
        scans.push_back(raw);
      } else {
        return false;
      }
    }
    ThresholdIntersection threshold(scan_algorithm);
    *out = threshold.AtLeast(scans, n->threshold);
    return true;
  }

  std::vector<std::span<const Elem>> ChildViews(const ExprNode* n) {
    std::vector<std::span<const Elem>> lists;
    lists.reserve(n->children.size());
    for (const Expr& c : n->children) lists.push_back(Eval(c.node()).view);
    return lists;
  }

  PreparedTree& tree_;
  const EvalContext& ctx_;
  const CostConstants constants_;
  const simd::Kernels& kernels_;
};

}  // namespace

void Evaluate(const ExprNode& root, const EvalContext& ctx, bool ordered,
              const QueryPlan* root_plan, ElemList* out, QueryStats* stats) {
  PreparedTree tree(ctx, &root, /*collect_pins=*/ctx.cache != nullptr);
  stats->num_sets = 0;
  stats->elements_scanned = 0;
  stats->groups_probed = 0;
  tree.AddStructure(&root, stats);
  Evaluator(tree).Run(&root, ordered, root_plan, out);
}

// ---------------------------------------------------------------------------
// Explain: per-node cardinality estimates + algorithm annotations, no
// execution.  Estimates use the planner's uniform-density model extended
// to the algebra: with U the observed universe and p_i = n_i / U,
//   And  -> U * prod p_i          Or  -> U * (1 - prod (1 - p_i))
//   Diff -> n_l * (1 - p_r)       AtLeast -> U * P(Binom-sum >= t)
// where the threshold tail is the exact Poisson-binomial DP over the
// children's densities.
// ---------------------------------------------------------------------------

namespace {

/// Largest element bound observed across the leaves (exclusive); the
/// density denominator.  Falls back to set sizes for opaque structures
/// and 2^32 when nothing is known.
void MaxLeafBound(const PreparedTree& tree, const ExprNode* n,
                  double* bound) {
  if (n->kind == ExprKind::kSet) {
    const PreparedSet& leaf = n->leaf;
    if (const std::optional<MutableSetState>& snap =
            tree.state(n).snapshot) {
      if (!snap->base->empty()) {
        *bound = std::max(*bound, static_cast<double>(snap->base->back()) + 1);
      }
      std::span<const Elem> inserts = snap->delta.insert_span();
      if (!inserts.empty()) {
        *bound = std::max(*bound, static_cast<double>(inserts.back()) + 1);
      }
    } else if (std::optional<std::span<const Elem>> elems =
                   StructureElems(Access::set(leaf).get());
               elems && !elems->empty()) {
      *bound = std::max(*bound, static_cast<double>(elems->back()) + 1);
    } else {
      *bound = std::max(*bound,
                        static_cast<double>(Access::set(leaf).get()->size()));
    }
  }
  for (const Expr& c : n->children) MaxLeafBound(tree, c.node(), bound);
}

class ExprPlanner {
 public:
  ExprPlanner(const PreparedTree& tree, double universe)
      : tree_(tree),
        ctx_(tree.ctx()),
        constants_(ctx_.planner != nullptr ? ctx_.planner->constants()
                                           : CostConstants{}),
        universe_(universe) {}

  double predicted() const { return predicted_; }

  double Render(const ExprNode* n, int depth, std::string* out) {
    std::string children_text;
    std::vector<double> ests;
    ests.reserve(n->children.size());
    for (const Expr& c : n->children) {
      ests.push_back(Render(c.node(), depth + 1, &children_text));
    }
    std::string line(static_cast<std::size_t>(depth) * 2, ' ');
    double est = 0.0;
    char buf[96];
    switch (n->kind) {
      case ExprKind::kSet: {
        est = static_cast<double>(n->leaf.size());
        std::snprintf(buf, sizeof(buf), "set  n=%zu", n->leaf.size());
        line += buf;
        if (n->leaf.is_mutable()) {
          std::snprintf(buf, sizeof(buf), "  (mutable v%llu)",
                        static_cast<unsigned long long>(n->leaf.version()));
          line += buf;
        }
        break;
      }
      case ExprKind::kNone:
        line += "none  est~0";
        break;
      case ExprKind::kAnd: {
        std::string annotation;
        est = EstimateAnd(n, ests, &annotation);
        std::snprintf(buf, sizeof(buf), "and [%s]  est~%.0f",
                      annotation.c_str(), est);
        line += buf;
        break;
      }
      case ExprKind::kOr: {
        est = EstimateOr(ests);
        std::snprintf(buf, sizeof(buf), "or  est~%.0f", est);
        line += buf;
        break;
      }
      case ExprKind::kDiff: {
        est = ests[0] * (1.0 - Density(ests[1]));
        predicted_ += constants_.merge_ns * (ests[0] + ests[1]) * 1e-3;
        std::snprintf(buf, sizeof(buf), "diff  est~%.0f", est);
        line += buf;
        break;
      }
      case ExprKind::kAtLeast: {
        std::string annotation;
        est = EstimateAtLeast(n, ests, &annotation);
        std::snprintf(buf, sizeof(buf), "at-least %zu/%zu [%s]  est~%.0f",
                      n->threshold, n->children.size(), annotation.c_str(),
                      est);
        line += buf;
        break;
      }
    }
    *out += line;
    *out += '\n';
    *out += children_text;
    return est;
  }

 private:
  double Density(double est) const {
    return std::min(1.0, est / universe_);
  }

  bool AllImmutableLeaves(const ExprNode* n) const {
    for (const Expr& c : n->children) {
      if (c.kind() != ExprKind::kSet || c.leaf().is_mutable()) return false;
    }
    return true;
  }

  double EstimateAnd(const ExprNode* n, const std::vector<double>& ests,
                     std::string* annotation) {
    LeafConjunction c;
    if (tree_.ResolveConjunction(n, &c)) {
      // Exact plan: the same plan the evaluator will execute.
      QueryPlan plan = tree_.PlanConjunction(c);
      predicted_ += plan.predicted_micros;
      if (!plan.planned) {
        *annotation = std::string(ctx_.algorithm->name());
      } else {
        *annotation = plan.steps.empty()
                          ? "native"
                          : (plan.uniform ? plan.steps[0].algorithm : "mixed");
      }
      return plan.est_result;
    }
    *annotation = "chain";
    return ChainEstimate(ests);
  }

  /// Smallest-first merge/gallop chain estimate (the evaluator's
  /// non-native path), density-corrected per step.
  double ChainEstimate(std::vector<double> ests) {
    std::sort(ests.begin(), ests.end());
    double running = ests[0];
    for (std::size_t i = 1; i < ests.size(); ++i) {
      const double merge_cost = constants_.merge_ns * (running + ests[i]);
      const double gallop_cost =
          constants_.gallop_ns * running *
          std::log2(2.0 + ests[i] / std::max(1.0, running));
      predicted_ += std::min(merge_cost, gallop_cost) * 1e-3;
      running *= Density(ests[i]);
    }
    return running;
  }

  double EstimateOr(std::vector<double> ests) {
    std::sort(ests.begin(), ests.end());
    double miss = 1.0;  // P(element in none of the children)
    double running = 0.0;
    for (std::size_t i = 0; i < ests.size(); ++i) {
      if (i > 0) {
        predicted_ += constants_.merge_ns * (running + ests[i]) * 1e-3;
      }
      miss *= 1.0 - Density(ests[i]);
      running = universe_ * (1.0 - miss);
    }
    return running;
  }

  double EstimateAtLeast(const ExprNode* n, const std::vector<double>& ests,
                         std::string* annotation) {
    const std::size_t k = n->children.size();
    const std::size_t t = n->threshold;
    double total = 0.0;
    for (double e : ests) total += e;
    if (t > k) {
      *annotation = "empty";
      return 0.0;
    }
    // Exact Poisson-binomial tail over the children's densities.
    std::vector<double> dp(k + 1, 0.0);
    dp[0] = 1.0;
    for (double e : ests) {
      const double p = Density(e);
      for (std::size_t j = k; j >= 1; --j) {
        dp[j] = dp[j] * (1.0 - p) + dp[j - 1] * p;
      }
      dp[0] *= 1.0 - p;
    }
    double tail = 0.0;
    for (std::size_t j = t; j <= k; ++j) tail += dp[j];
    const double est = universe_ * tail;
    const bool grouped =
        (ctx_.planner != nullptr ||
         dynamic_cast<const RanGroupScanIntersection*>(ctx_.algorithm) !=
             nullptr) &&
        AllImmutableLeaves(n);
    if (grouped) {
      *annotation = "threshold";
      predicted_ +=
          (constants_.scan_ns * total + constants_.scan_result_ns * est) *
          1e-3;
    } else {
      *annotation = "count-merge";
      predicted_ += constants_.merge_ns * total *
                    std::log2(static_cast<double>(k) + 1.0) * 1e-3;
    }
    return est;
  }

  const PreparedTree& tree_;
  const EvalContext& ctx_;
  const CostConstants constants_;
  const double universe_;
  double predicted_ = 0.0;
};

}  // namespace

QueryPlan PlanExpr(const ExprNode& root, const EvalContext& ctx,
                   QueryStats* structure) {
  PreparedTree tree(ctx, &root, /*collect_pins=*/false);
  if (structure != nullptr) tree.AddStructure(&root, structure);
  LeafConjunction c;
  if (tree.ResolveConjunction(&root, &c)) return tree.PlanConjunction(c);
  double universe = 0.0;
  MaxLeafBound(tree, &root, &universe);
  if (universe < 1.0) universe = 4294967296.0;  // no sized leaf: full domain
  ExprPlanner planner(tree, universe);
  QueryPlan plan;
  plan.est_result = planner.Render(&root, 0, &plan.tree);
  plan.predicted_micros = planner.predicted();
  plan.planned = ctx.planner != nullptr;
  return plan;
}

}  // namespace expr_internal

// ---------------------------------------------------------------------------
// Engine / Query glue.
// ---------------------------------------------------------------------------

namespace {

/// Foreign-leaf validation runs on the *unoptimized* tree: constant
/// folding must not hide a cross-engine handle.
void CheckExprLeaves(const ExprNode* n,
                     const IntersectionAlgorithm* algorithm) {
  if (n->kind == ExprKind::kSet &&
      Access::algorithm(n->leaf).get() != algorithm) {
    throw std::invalid_argument(
        "Engine(" + std::string(algorithm->name()) +
        "): Expr leaf was built by a different engine (algorithm '" +
        std::string(n->leaf.algorithm_name()) +
        "'); structures are not interchangeable across engines");
  }
  for (const Expr& c : n->children) CheckExprLeaves(c.node(), algorithm);
}

}  // namespace

fsi::Query Engine::Query(const Expr& expr) const {
  if (expr.empty_handle()) {
    throw std::invalid_argument(std::string(algorithm_->name()) +
                                ": query over an empty Expr handle");
  }
  CheckExprLeaves(expr.node(), algorithm_.get());
  return BuildQuery(OptimizeExpr(expr).shared_node(), expr_cache_);
}

}  // namespace fsi
