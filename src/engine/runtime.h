#ifndef MOTTO_ENGINE_RUNTIME_H_
#define MOTTO_ENGINE_RUNTIME_H_

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/time.h"
#include "engine/graph.h"
#include "event/event.h"

namespace motto {

namespace obs {
class MetricsRegistry;
}  // namespace obs

/// How a pattern node consumes its operands within one run (DESIGN.md §13).
enum class EvalOrderMode {
  /// Eager: arriving events extend partial matches immediately, in arrival
  /// order. The reference semantics every other mode is differentially
  /// checked against.
  kArrival,
  /// Lazy: operands are evaluated in the plan-chosen selectivity order
  /// (PatternSpec::eval_order, rarest first); frequent non-anchor events
  /// are buffered and joined only when a rarer operand arrives. Match
  /// multisets are identical to kArrival — only the evaluation strategy
  /// (and therefore the partial-match population) changes.
  kSelectivity,
};

/// Per-node counters collected by a run. Arena fields are filled by pattern
/// matchers (zero for stateless filters): they expose the hot-path memory
/// behaviour — chunks carved from fresh slab space vs. recycled from the
/// arena free lists, and the high-water mark of live partial-match chunks —
/// so "the steady state allocates nothing" is checkable per run.
struct NodeStats {
  uint64_t events_in = 0;
  uint64_t events_out = 0;
  /// Wall time spent inside this node; only filled when
  /// ExecutorOptions::collect_node_timing is set.
  double busy_seconds = 0.0;
  /// Partial-match chunks allocated from fresh arena slab space.
  uint64_t arena_chunk_allocs = 0;
  /// Partial-match chunks recycled from the arena free lists.
  uint64_t arena_chunk_reuses = 0;
  /// Peak simultaneously-live partial-match chunks.
  uint64_t arena_live_high_water = 0;
  /// Peak constituent slab cells in use.
  uint64_t arena_slab_high_water = 0;

  /// Folds `other` in: counters and busy time add, high-water marks take
  /// the max. Merges shard replicas' and pipelined workers' counters.
  void Merge(const NodeStats& other) {
    events_in += other.events_in;
    events_out += other.events_out;
    busy_seconds += other.busy_seconds;
    arena_chunk_allocs += other.arena_chunk_allocs;
    arena_chunk_reuses += other.arena_chunk_reuses;
    arena_live_high_water =
        std::max(arena_live_high_water, other.arena_live_high_water);
    arena_slab_high_water =
        std::max(arena_slab_high_water, other.arena_slab_high_water);
  }
};

/// One partial match (or deferred pending match) lifted out of a matcher,
/// with its constituent history materialized out of the arena. `state` is
/// the NFA state (eager partials) or the matched-prefix length (lazy runs);
/// the op_* arrays are only filled for lazy runs.
struct NodePartialState {
  int32_t state = 0;
  Timestamp min_begin = 0;
  Timestamp max_end = 0;
  Timestamp last_end = 0;
  std::vector<Constituent> constituents;
  std::vector<Timestamp> op_begin;
  std::vector<Timestamp> op_end;
  std::vector<uint64_t> op_arrival;
};

/// One event parked in a lazy-mode operand buffer.
struct NodeBufferedEvent {
  int32_t operand = 0;
  Timestamp begin = 0;
  Timestamp end = 0;
  uint64_t arrival = 0;
  Event event;
};

/// Complete serialized runtime state of one JQP node, used by live plan
/// migration (DESIGN.md §14): a surviving node's state is exported from the
/// old executor and imported into its successor in the new plan, so no
/// in-flight partial match is lost across a hot swap. Stateless nodes
/// (filters, DISJ pass-through with no negation) export `stateless = true`.
struct NodeState {
  bool stateless = true;
  EvalOrderMode eval_mode = EvalOrderMode::kArrival;
  Timestamp watermark = 0;
  uint64_t sweep_tick = 0;
  uint64_t arrival_seq = 0;
  std::vector<NodePartialState> partials;       // Eager NFA runs.
  std::vector<NodePartialState> lazy_partials;  // Lazy-mode runs.
  std::vector<NodePartialState> pending;        // NEG-deferred matches.
  std::vector<Timestamp> negated_history;       // Sorted negated-event ts.
  std::vector<NodeBufferedEvent> buffered;      // Lazy operand buffers.
};

/// Runtime state of one JQP node. The executor drives each node with a
/// watermark call followed by this round's input events; the node appends
/// emissions to `out`.
///
/// Delivery invariant maintained by the executors: every delivered event has
/// end() equal to the current watermark (primitive events complete at their
/// timestamp; upstream composites complete at the raw event that closed
/// them). Deferred-negation emissions are exempt and therefore only allowed
/// on terminal nodes (enforced by Jqp::Validate).
class NodeRuntime {
 public:
  virtual ~NodeRuntime() = default;

  /// Advances event time to `watermark`; may flush deferred emissions.
  virtual void OnWatermark(Timestamp watermark, std::vector<Event>* out) = 0;

  /// Delivers one input event on `channel` (kRawChannel or 1-based upstream
  /// index). Must be called with nondecreasing event end() per node.
  virtual void OnEvent(Channel channel, const Event& event,
                       std::vector<Event>* out) = 0;

  /// Resets all state so the node can replay another stream.
  virtual void Reset() = 0;

  /// Adds this node's memory/allocation counters to `stats`; the executors
  /// call it once at the end of a run. Default: nothing to report.
  virtual void CollectStats(NodeStats* stats) const { (void)stats; }

  /// Hands the node its per-run metric instruments, named under `prefix`
  /// (e.g. "node.3"). The executors call this at the start of every run —
  /// with the run's registry when metrics are requested, with nullptr
  /// otherwise, so a runtime never keeps instruments of a dead registry.
  /// Stateless nodes ignore it; stateful ones (the matcher) hoist raw
  /// instrument pointers and pay one null test per instrumented site when
  /// metrics are off.
  virtual void AttachProbe(obs::MetricsRegistry* registry,
                           const std::string& prefix) {
    (void)registry;
    (void)prefix;
  }

  /// Selects the operand evaluation strategy for the next run. The
  /// executors call this right after Reset() at the start of every run
  /// (ExecutorOptions::eval_order), so a runtime never carries a stale mode
  /// across runs; it must not be switched while the node holds state.
  /// Stateless nodes ignore it.
  virtual void SetEvalMode(EvalOrderMode mode) { (void)mode; }

  /// Serializes this node's live state into `out` for migration to a
  /// successor node in a hot-swapped plan. Default: stateless.
  virtual void ExportState(NodeState* out) { *out = NodeState{}; }

  /// Restores state previously produced by ExportState on a node with a
  /// compatible spec (same operator shape and evaluation mode). Resets
  /// first, so a failed import leaves the node empty, not half-migrated.
  /// Returns false when `in` is incompatible (the migration layer then
  /// counts the state as dropped and the node starts fresh).
  virtual bool ImportState(const NodeState& in) { return in.stateless; }
};

/// Instantiates the runtime for `spec`.
std::unique_ptr<NodeRuntime> MakeNodeRuntime(const NodeSpec& spec);

}  // namespace motto

#endif  // MOTTO_ENGINE_RUNTIME_H_
