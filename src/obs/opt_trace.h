#ifndef MOTTO_OBS_OPT_TRACE_H_
#define MOTTO_OBS_OPT_TRACE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace motto::obs {

/// Optimizer observability (DESIGN.md §11). An OptimizerProbe is attached
/// through RewriterOptions / PlannerOptions / OptimizerOptions and filled by
/// the rewriter, the two DSMT solvers, and the plan builder. Everything is
/// null-gated: a null probe costs the optimizer one pointer test per
/// instrumentation site, so benchmarks with the probe disabled stay at
/// pre-instrumentation parity.
///
/// This header is deliberately self-contained (no motto/planner includes):
/// callers hand in family/recipe names as strings, which keeps the obs
/// instrument layer free of dependencies on the optimizer it observes.

/// Outcome of one candidate sharing edge the rewriter identified. Candidates
/// are recorded at the point where a structural rewrite relation was found —
/// coarse per-pair early-outs (negated source, incompatible windows) are
/// aggregated into RewriterTelemetry counters instead, so the candidate list
/// stays proportional to real sharing opportunities, not to |nodes|^2.
enum class EdgeDecision : uint8_t {
  kAccepted = 0,
  /// Modeled cost not clearly below the beneficiary's scratch cost
  /// (RewriterOptions::prune_unprofitable margin).
  kRejectedUnprofitable,
  /// The beneficiary has duplicate (or non-primitive) operand types, so the
  /// composite-operand / merge / order-filter rewrite could let one physical
  /// event fill two slots — the AllPrimitiveDistinct soundness guard.
  kRejectedDuplicateTypes,
  /// The beneficiary carries NEG, which the rewrite cannot re-apply.
  kRejectedNegatedTarget,
  /// A further occurrence of the source inside the target beyond
  /// RewriterOptions::max_occurrence_edges.
  kRejectedOccurrenceCap,
};

std::string_view EdgeDecisionName(EdgeDecision decision);

struct EdgeCandidate {
  int32_t source = -1;  // Sharing-graph node ids.
  int32_t target = -1;
  std::string source_key;
  std::string target_key;
  std::string family;  // "MST" | "DST" | "OTT" | "WIN" (sharing_graph.h).
  std::string recipe;  // RecipeKindName of the attempted rewrite.
  EdgeDecision decision = EdgeDecision::kAccepted;
  /// Modeled cost of computing the target via this rewrite; 0 when the
  /// candidate was rejected structurally before costing.
  double cost = 0.0;
  /// The target's from-scratch cost (cost delta = scratch_cost - cost).
  double scratch_cost = 0.0;
};

struct RewriterTelemetry {
  std::vector<EdgeCandidate> candidates;
  /// Ordered (source, target) pairs TryEdges examined.
  uint64_t pairs_considered = 0;
  /// Pairs skipped because the source carries NEG (not shareable).
  uint64_t negated_source_skips = 0;
  /// Pairs skipped because the source window cannot cover the target's.
  uint64_t window_mismatch_skips = 0;
  size_t graph_nodes = 0;
  size_t graph_edges = 0;
  bool recorded = false;

  size_t CountDecision(EdgeDecision decision) const;
  size_t CountFamily(std::string_view family) const;
  std::string ToJson() const;
};

/// One improvement of the branch-and-bound incumbent. The first entry is the
/// naive (no sharing) seed at expansions=0; later entries are search-found.
struct BnbIncumbent {
  double cost = 0.0;
  uint64_t expansions = 0;  // Search nodes expanded when it was found.
  double seconds = 0.0;     // Wall time since solve start.
};

struct BnbTelemetry {
  /// Search nodes expanded; each runs one dual ascent.
  uint64_t expansions = 0;
  /// Search nodes closed because their bound reached the incumbent.
  uint64_t pruned_by_bound = 0;
  /// Steiner nodes excluded by reduced-cost fixing, over all search nodes.
  uint64_t fixed_by_reduced_cost = 0;
  bool deadline_hit = false;
  /// Wall seconds to the first search-found incumbent (-1: none found, the
  /// naive seed was never improved).
  double first_incumbent_seconds = -1.0;
  double solve_seconds = 0.0;
  /// The root's dual-ascent lower bound on the optimal cost (0 when the
  /// budget ran out before the root was expanded).
  double lower_bound = 0.0;
  /// (cost - proven bound) / cost of the returned plan, where the proven
  /// bound is the least bound of the subproblems left open: 0 when exact.
  double gap = 0.0;
  std::vector<BnbIncumbent> incumbents;
  bool recorded = false;

  std::string ToJson() const;
};

/// One epoch of the simulated-annealing schedule (iterations are bucketed
/// into ~kSaEpochTarget epochs). Deterministic given (graph, seed): no wall
/// clock — ToJson of two same-seed runs is byte-identical.
struct SaEpoch {
  double temperature = 0.0;  // At epoch start.
  uint32_t proposed = 0;
  uint32_t accepted = 0;       // Moves taken (downhill or Metropolis).
  uint32_t improved_best = 0;  // Moves that improved the best-so-far.
  double current_cost = 0.0;   // At epoch end.
  double best_cost = 0.0;

  friend bool operator==(const SaEpoch&, const SaEpoch&) = default;
};

inline constexpr int kSaEpochTarget = 50;

struct SaTelemetry {
  uint64_t seed = 0;
  int iterations = 0;
  int epoch_size = 0;
  double t0 = 0.0;
  double t_end = 0.0;
  double cooling = 1.0;
  uint64_t proposed = 0;
  uint64_t accepted = 0;
  std::vector<SaEpoch> epochs;
  bool recorded = false;

  std::string ToJson() const;
};

/// Everything one optimization run tells us about itself. Plain struct, like
/// RunReport: attach a fresh probe per Optimize call; the rewriter fills
/// `rewriter`, SelectPlan fills `bnb`/`sa`/`selected_solver`.
struct OptimizerProbe {
  RewriterTelemetry rewriter;
  BnbTelemetry bnb;
  SaTelemetry sa;
  /// "naive" | "bnb" | "bnb-incumbent" | "sa" — which decision SelectPlan
  /// returned (solvers that merely ran still leave their telemetry).
  std::string selected_solver;

  /// {"rewriter":{...},"solver":{"selected":...,"bnb":...,"sa":...}}.
  std::string ToJson() const;
  /// Fixed-width terminal summary: candidate counts per family x decision
  /// plus one line per solver that ran.
  std::string Summary() const;
};

}  // namespace motto::obs

#endif  // MOTTO_OBS_OPT_TRACE_H_
