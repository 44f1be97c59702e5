#ifndef MOTTO_PLANNER_SOLVER_H_
#define MOTTO_PLANNER_SOLVER_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "motto/sharing_graph.h"

namespace motto::obs {
struct OptimizerProbe;
}  // namespace motto::obs

namespace motto {

/// Per-node decision in a plan: not executed, computed from the raw stream
/// (edge from the virtual ground q0), or computed from another node via the
/// sharing edge with the given index.
inline constexpr int32_t kNodeNotSelected = -2;
inline constexpr int32_t kNodeFromGround = -1;

/// A solution of the DSMT instance induced by a sharing graph: a tree rooted
/// at the virtual ground spanning all terminals (paper §V-B).
struct PlanDecision {
  /// choice[v]: kNodeNotSelected, kNodeFromGround, or an edge index whose
  /// target is v.
  std::vector<int32_t> choice;
  double cost = 0.0;
  bool exact = false;
  double solve_seconds = 0.0;
};

/// Cost of the default (no sharing) plan: every terminal from ground.
double DefaultPlanCost(const SharingGraph& graph);

/// The default plan itself.
PlanDecision NaivePlan(const SharingGraph& graph);

/// Recomputes the cost of `decision` and verifies consistency (every
/// selected node has a valid choice, every edge source is selected, all
/// terminals selected). Returns an error for inconsistent decisions.
Result<double> ValidateDecision(const SharingGraph& graph,
                                const PlanDecision& decision);

/// Exact branch-and-bound DSMT solver. Branches on including or excluding
/// Steiner nodes; each search node is bounded by Wong's dual ascent, whose
/// reduced costs also give a primal plan and exclude useless nodes (DESIGN.md
/// §6 step 4). Returns the optimal decision, or — when `budget_seconds`
/// elapses first — the best incumbent with exact=false. The graph must be
/// acyclic with finite, non-negative costs (checked). A non-null `probe`
/// receives search telemetry (expansions, bound prunes, fixed nodes, root
/// bound, gap, incumbent timeline) into probe->bnb.
PlanDecision SolveBranchAndBound(const SharingGraph& graph,
                                 double budget_seconds,
                                 obs::OptimizerProbe* probe = nullptr);

/// Simulated-annealing approximation (paper §V-B for large workloads):
/// states are per-node source choices; activation closure and cost are
/// recomputed per move; geometric cooling. A non-null `probe` receives the
/// temperature schedule and per-epoch acceptance trace into probe->sa;
/// the trace carries no wall-clock data, so it is byte-identical for the
/// same (graph, seed, iterations).
PlanDecision SolveSimulatedAnnealing(const SharingGraph& graph, uint64_t seed,
                                     int iterations,
                                     obs::OptimizerProbe* probe = nullptr);

struct PlannerOptions {
  double exact_budget_seconds = 5.0;
  int sa_iterations = 20000;
  uint64_t seed = 1;
  /// Skip the exact solver entirely (paper: large workloads).
  bool force_approximate = false;
  /// Optional observability sink (obs/opt_trace.h) filled by whichever
  /// solvers SelectPlan runs; also records which decision won.
  obs::OptimizerProbe* probe = nullptr;
};

/// The paper's policy: exact within the budget, otherwise the approximate
/// solution (whichever of incumbent/SA is better).
PlanDecision SelectPlan(const SharingGraph& graph,
                        const PlannerOptions& options);

}  // namespace motto

#endif  // MOTTO_PLANNER_SOLVER_H_
