#include "planner/solver.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <queue>
#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "obs/opt_trace.h"

namespace motto {

namespace {

using Clock = std::chrono::steady_clock;

double ChoiceCost(const SharingGraph& graph, int32_t node, int32_t choice) {
  if (choice == kNodeFromGround) {
    return graph.nodes[static_cast<size_t>(node)].scratch_cost;
  }
  MOTTO_CHECK_GE(choice, 0);
  return graph.edges[static_cast<size_t>(choice)].cost;
}

std::vector<std::vector<int32_t>> InEdgesByTarget(const SharingGraph& graph) {
  std::vector<std::vector<int32_t>> in_edges(graph.nodes.size());
  for (size_t e = 0; e < graph.edges.size(); ++e) {
    in_edges[static_cast<size_t>(graph.edges[e].target)].push_back(
        static_cast<int32_t>(e));
  }
  return in_edges;
}

/// Computes the active closure of `choice` (terminals plus transitively
/// referenced sources) and its cost; normalizes unused nodes to
/// kNodeNotSelected. Returns the cost.
double Normalize(const SharingGraph& graph, std::vector<int32_t>* choice) {
  size_t n = graph.nodes.size();
  std::vector<bool> active(n, false);
  std::vector<int32_t> stack;
  for (size_t v = 0; v < n; ++v) {
    if (graph.nodes[v].terminal) {
      active[v] = true;
      stack.push_back(static_cast<int32_t>(v));
    }
  }
  while (!stack.empty()) {
    int32_t v = stack.back();
    stack.pop_back();
    int32_t c = (*choice)[static_cast<size_t>(v)];
    if (c >= 0) {
      int32_t src = graph.edges[static_cast<size_t>(c)].source;
      if (!active[static_cast<size_t>(src)]) {
        active[static_cast<size_t>(src)] = true;
        stack.push_back(src);
      }
    }
  }
  double cost = 0.0;
  for (size_t v = 0; v < n; ++v) {
    if (!active[v]) {
      (*choice)[v] = kNodeNotSelected;
      continue;
    }
    if ((*choice)[v] == kNodeNotSelected) (*choice)[v] = kNodeFromGround;
    cost += ChoiceCost(graph, static_cast<int32_t>(v), (*choice)[v]);
  }
  return cost;
}

/// Topological order of the nodes over the sharing edges (Kahn). Aborts
/// unless the graph is what the dual-ascent search assumes: finite,
/// non-negative costs and no cycle.
std::vector<int32_t> CheckedTopologicalOrder(
    const SharingGraph& graph,
    const std::vector<std::vector<int32_t>>& out_edges) {
  const size_t n = graph.nodes.size();
  std::vector<int32_t> in_degree(n, 0);
  for (size_t v = 0; v < n; ++v) {
    double cost = graph.nodes[v].scratch_cost;
    MOTTO_CHECK(std::isfinite(cost) && cost >= 0.0)
        << "node " << v << " has scratch cost " << cost;
  }
  for (const SharingEdge& edge : graph.edges) {
    MOTTO_CHECK(std::isfinite(edge.cost) && edge.cost >= 0.0)
        << "edge " << edge.source << "->" << edge.target << " has cost "
        << edge.cost;
    ++in_degree[static_cast<size_t>(edge.target)];
  }
  std::vector<int32_t> order;
  order.reserve(n);
  for (size_t v = 0; v < n; ++v) {
    if (in_degree[v] == 0) order.push_back(static_cast<int32_t>(v));
  }
  for (size_t i = 0; i < order.size(); ++i) {
    for (int32_t e : out_edges[static_cast<size_t>(order[i])]) {
      int32_t target = graph.edges[static_cast<size_t>(e)].target;
      if (--in_degree[static_cast<size_t>(target)] == 0) {
        order.push_back(target);
      }
    }
  }
  MOTTO_CHECK_EQ(order.size(), n) << "the sharing graph has a cycle";
  return order;
}

/// Exact DSMT search around Wong's (1984) dual-ascent lower bound
/// (DESIGN.md §6 step 4). The graph is acyclic, so a fixed set of selected
/// nodes has one best plan: each takes its cheapest in-arc from ground or a
/// selected source. The search therefore branches only on including or
/// excluding Steiner nodes. Each search node (a subproblem: required,
/// excluded and free nodes) runs a dual ascent for its bound and reduced
/// costs, builds a primal plan from the zero-reduced-cost arcs, excludes
/// the free nodes whose reduced costs prove them useless, and branches on a
/// free node of a zero-reduced-cost path, include first.
class DualAscentSearch {
 public:
  DualAscentSearch(const SharingGraph& graph, obs::OptimizerProbe* probe)
      : graph_(graph),
        n_(graph.nodes.size()),
        probe_(probe),
        in_edges_(InEdgesByTarget(graph)),
        out_edges_(n_) {
    for (size_t e = 0; e < graph.edges.size(); ++e) {
      out_edges_[static_cast<size_t>(graph.edges[e].source)].push_back(
          static_cast<int32_t>(e));
    }
    topo_ = CheckedTopologicalOrder(graph, out_edges_);
    reduced_.resize(n_ + graph.edges.size());
    mark_.assign(n_, 0);
    choice_.assign(n_, kNodeNotSelected);
    arc_cost_.assign(n_, 0.0);
    d_ground_.assign(n_, 0.0);
    d_required_.assign(n_, 0.0);
  }

  PlanDecision Solve(double budget_seconds) {
    const Clock::time_point start = Clock::now();
    best_ = NaivePlan(graph_);
    if (probe_ != nullptr) {
      // The naive plan is the incumbent before any search happens.
      probe_->bnb.incumbents.push_back(obs::BnbIncumbent{best_.cost, 0, 0.0});
    }

    Subproblem root{std::vector<uint8_t>(n_, kFree), 0.0};
    for (size_t v = 0; v < n_; ++v) {
      if (graph_.nodes[v].terminal) root.status[v] = kRequired;
    }
    std::vector<Subproblem> open;  // Depth-first: the back is searched next.
    open.push_back(std::move(root));
    bool deadline_hit = false;
    double root_bound = 0.0;
    while (!open.empty()) {
      if (SecondsSince(start) >= budget_seconds) {
        deadline_hit = true;
        break;
      }
      Subproblem node = std::move(open.back());
      open.pop_back();
      ++expansions_;
      // A child's optimum is at least its parent's, whatever its own dual
      // ascent finds.
      const double dual = DualAscent(node.status);
      const double bound = std::max(node.bound, dual);
      if (expansions_ == 1) root_bound = bound;
      if (!Closes(bound)) Offer(Primal(node.status), start);
      if (Closes(bound)) {
        ++pruned_by_bound_;
        continue;
      }
      FixByReducedCost(dual, &node.status);
      int32_t branch = BranchNode(node.status);
      if (branch < 0) {
        // Every free node is fixed: the required set is the only plan left.
        Offer(Primal(node.status), start);
        continue;
      }
      Subproblem exclude{node.status, bound};
      exclude.status[static_cast<size_t>(branch)] = kExcluded;
      node.status[static_cast<size_t>(branch)] = kRequired;
      node.bound = bound;
      open.push_back(std::move(exclude));
      open.push_back(std::move(node));
    }

    // Every plan cheaper than the incumbent lies in a subproblem still open.
    double proven = best_.cost;
    for (const Subproblem& node : open) proven = std::min(proven, node.bound);
    best_.exact = !deadline_hit;
    best_.cost = Normalize(graph_, &best_.choice);
    best_.solve_seconds = SecondsSince(start);
    if (probe_ != nullptr) {
      obs::BnbTelemetry& t = probe_->bnb;
      t.expansions = expansions_;
      t.pruned_by_bound = pruned_by_bound_;
      t.fixed_by_reduced_cost = fixed_by_reduced_cost_;
      t.deadline_hit = deadline_hit;
      t.solve_seconds = best_.solve_seconds;
      t.lower_bound = root_bound;
      t.gap = best_.cost > 0.0 ? (best_.cost - proven) / best_.cost : 0.0;
      t.recorded = true;
    }
    return std::move(best_);
  }

 private:
  enum Status : uint8_t { kFree = 0, kRequired = 1, kExcluded = 2 };

  struct Subproblem {
    std::vector<uint8_t> status;  // Per node.
    double bound = 0.0;           // Lower bound inherited from the parent.
  };

  static double SecondsSince(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
  }

  /// True when no plan under `bound` can be meaningfully cheaper than the
  /// incumbent. The slack is far below any cost difference the model
  /// resolves and far above the rounding of a few hundred additions.
  bool Closes(double bound) const {
    return bound >= best_.cost * (1.0 - kRelativeSlack);
  }

  // Arcs: arc v < n_ is ground -> v at the node's scratch cost; arc n_ + e
  // is sharing edge e.
  size_t EdgeArc(int32_t e) const { return n_ + static_cast<size_t>(e); }
  size_t Source(int32_t e) const {
    return static_cast<size_t>(graph_.edges[static_cast<size_t>(e)].source);
  }
  size_t Target(int32_t e) const {
    return static_cast<size_t>(graph_.edges[static_cast<size_t>(e)].target);
  }

  /// Wong's dual ascent: while some required node's zero-reduced-cost
  /// component (the nodes that reach it over zero-reduced-cost arcs) does
  /// not contain ground, raise the cut entering that component by its
  /// smallest reduced cost. The node whose cut has the fewest arcs goes
  /// first; the raises sum to a lower bound on the subproblem's optimum,
  /// and reduced_ is left holding the reduced costs.
  double DualAscent(const std::vector<uint8_t>& status) {
    for (size_t v = 0; v < n_; ++v) {
      reduced_[v] = graph_.nodes[v].scratch_cost;
    }
    for (size_t e = 0; e < graph_.edges.size(); ++e) {
      reduced_[n_ + e] = graph_.edges[e].cost;
    }
    // Keyed by the cut size last seen; a stale key is refreshed when popped.
    using Entry = std::pair<size_t, int32_t>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap;
    for (size_t v = 0; v < n_; ++v) {
      if (status[v] == kRequired) heap.emplace(0, static_cast<int32_t>(v));
    }
    double bound = 0.0;
    while (!heap.empty()) {
      int32_t t = heap.top().second;
      heap.pop();
      if (!CollectCut(t, status)) continue;  // Reaches ground: connected.
      if (!heap.empty() && cut_.size() > heap.top().first) {
        heap.emplace(cut_.size(), t);
        continue;
      }
      double delta = std::numeric_limits<double>::infinity();
      for (size_t a : cut_) delta = std::min(delta, reduced_[a]);
      for (size_t a : cut_) reduced_[a] = std::max(0.0, reduced_[a] - delta);
      bound += delta;
      heap.emplace(cut_.size(), t);
    }
    return bound;
  }

  /// Collects into cut_ the arcs entering the zero-reduced-cost component
  /// of required node `t`. Returns false when the component holds ground.
  bool CollectCut(int32_t t, const std::vector<uint8_t>& status) {
    ++stamp_;
    component_.assign(1, t);
    mark_[static_cast<size_t>(t)] = stamp_;
    for (size_t i = 0; i < component_.size(); ++i) {
      size_t u = static_cast<size_t>(component_[i]);
      if (reduced_[u] == 0.0) return false;
      for (int32_t e : in_edges_[u]) {
        size_t source = Source(e);
        if (status[source] == kExcluded || mark_[source] == stamp_) continue;
        if (reduced_[EdgeArc(e)] == 0.0) {
          mark_[source] = stamp_;
          component_.push_back(static_cast<int32_t>(source));
        }
      }
    }
    cut_.clear();
    for (int32_t u : component_) {
      cut_.push_back(static_cast<size_t>(u));  // Its arc from ground.
      for (int32_t e : in_edges_[static_cast<size_t>(u)]) {
        size_t source = Source(e);
        if (status[source] != kExcluded && mark_[source] != stamp_) {
          cut_.push_back(EdgeArc(e));
        }
      }
    }
    return true;
  }

  /// Gives every selected node its cheapest in-arc from ground or a selected
  /// source (choice_, arc_cost_), then deselects the free nodes no required
  /// node depends on. Returns the plan's cost.
  double Assign(const std::vector<uint8_t>& status,
                std::vector<char>* selected) {
    std::vector<char>& in = *selected;
    for (size_t v = 0; v < n_; ++v) {
      choice_[v] = kNodeNotSelected;
      if (!in[v]) continue;
      choice_[v] = kNodeFromGround;
      arc_cost_[v] = graph_.nodes[v].scratch_cost;
      for (int32_t e : in_edges_[v]) {
        const SharingEdge& edge = graph_.edges[static_cast<size_t>(e)];
        if (in[static_cast<size_t>(edge.source)] && edge.cost < arc_cost_[v]) {
          choice_[v] = e;
          arc_cost_[v] = edge.cost;
        }
      }
    }
    // Reverse topological order settles a node's dependants before it.
    std::vector<char> used(n_, 0);
    double cost = 0.0;
    for (auto it = topo_.rbegin(); it != topo_.rend(); ++it) {
      size_t v = static_cast<size_t>(*it);
      if (!in[v]) continue;
      if (!used[v] && status[v] != kRequired) {
        in[v] = 0;
        choice_[v] = kNodeNotSelected;
        continue;
      }
      cost += arc_cost_[v];
      if (choice_[v] >= 0) used[Source(choice_[v])] = 1;
    }
    return cost;
  }

  /// Cheapest arc into `v` from ground or a selected source other than
  /// `skip`.
  double BestInCost(size_t v, const std::vector<char>& selected,
                    int32_t skip) const {
    double best = graph_.nodes[v].scratch_cost;
    for (int32_t e : in_edges_[v]) {
      const SharingEdge& edge = graph_.edges[static_cast<size_t>(e)];
      if (edge.source != skip && selected[static_cast<size_t>(edge.source)]) {
        best = std::min(best, edge.cost);
      }
    }
    return best;
  }

  /// Cost change of deselecting (selected) or selecting free node `v`, with
  /// every other node keeping or taking its cheapest in-arc.
  double MoveDelta(size_t v, const std::vector<char>& selected) const {
    const int32_t node = static_cast<int32_t>(v);
    if (selected[v]) {
      double delta = -arc_cost_[v];
      for (int32_t e : out_edges_[v]) {
        size_t w = Target(e);
        if (selected[w] && choice_[w] == e) {
          delta += BestInCost(w, selected, node) - arc_cost_[w];
        }
      }
      return delta;
    }
    double delta = BestInCost(v, selected, -1);
    for (int32_t e : out_edges_[v]) {
      const SharingEdge& edge = graph_.edges[static_cast<size_t>(e)];
      size_t w = static_cast<size_t>(edge.target);
      if (selected[w]) delta -= std::max(0.0, arc_cost_[w] - edge.cost);
    }
    return delta;
  }

  /// The primal plan of a subproblem: its required nodes plus every free
  /// node reachable from ground over zero-reduced-cost arcs, then a local
  /// search that drops or adds one free node at a time while the plan gets
  /// cheaper. With no free node left it is the subproblem's one best plan.
  /// Returns the plan's choices.
  std::vector<int32_t> Primal(const std::vector<uint8_t>& status) {
    std::vector<char> selected(n_, 0);
    std::vector<char> reached(n_, 0);
    for (int32_t node : topo_) {
      size_t v = static_cast<size_t>(node);
      if (status[v] == kExcluded) continue;
      bool reach = reduced_[v] == 0.0;
      for (int32_t e : in_edges_[v]) {
        if (reach) break;
        size_t source = Source(e);
        reach = reached[source] && reduced_[EdgeArc(e)] == 0.0;
      }
      reached[v] = reach;
      selected[v] = reach || status[v] == kRequired;
    }
    double cost = Assign(status, &selected);
    for (bool improved = true; improved;) {
      improved = false;
      for (size_t v = 0; v < n_; ++v) {
        if (status[v] != kFree) continue;
        if (MoveDelta(v, selected) < -kRelativeSlack * cost) {
          selected[v] = !selected[v];
          cost = Assign(status, &selected);
          improved = true;
        }
      }
    }
    return choice_;
  }

  /// Makes `choice` the incumbent when it is cheaper.
  void Offer(std::vector<int32_t> choice, Clock::time_point start) {
    double cost = Normalize(graph_, &choice);
    if (!(cost < best_.cost)) return;
    best_.choice = std::move(choice);
    best_.cost = cost;
    if (probe_ != nullptr) {
      double elapsed = SecondsSince(start);
      if (probe_->bnb.first_incumbent_seconds < 0) {
        probe_->bnb.first_incumbent_seconds = elapsed;
      }
      probe_->bnb.incumbents.push_back(
          obs::BnbIncumbent{cost, expansions_, elapsed});
    }
  }

  /// Reduced-cost fixing. Any plan X of the subproblem costs at least
  /// `dual` plus the reduced cost of its arcs, and a plan that uses free
  /// node v holds a path ground -> v and a disjoint path v -> required node.
  /// So v is excluded when dual + d_ground_[v] + d_required_[v] (the
  /// cheapest such paths in reduced cost) reaches the incumbent.
  void FixByReducedCost(double dual, std::vector<uint8_t>* status) {
    const double inf = std::numeric_limits<double>::infinity();
    std::vector<uint8_t>& s = *status;
    for (int32_t node : topo_) {
      size_t v = static_cast<size_t>(node);
      d_ground_[v] = inf;
      if (s[v] == kExcluded) continue;
      d_ground_[v] = reduced_[v];
      for (int32_t e : in_edges_[v]) {
        size_t source = Source(e);
        d_ground_[v] =
            std::min(d_ground_[v], d_ground_[source] + reduced_[EdgeArc(e)]);
      }
    }
    for (auto it = topo_.rbegin(); it != topo_.rend(); ++it) {
      size_t v = static_cast<size_t>(*it);
      d_required_[v] = s[v] == kRequired ? 0.0 : inf;
      if (s[v] != kFree) continue;
      for (int32_t e : out_edges_[v]) {
        size_t target = Target(e);
        d_required_[v] = std::min(d_required_[v],
                                  reduced_[EdgeArc(e)] + d_required_[target]);
      }
    }
    for (size_t v = 0; v < n_; ++v) {
      if (s[v] == kFree && Closes(dual + d_ground_[v] + d_required_[v])) {
        s[v] = kExcluded;
        ++fixed_by_reduced_cost_;
      }
    }
  }

  /// The free node to branch on: the first, in topological order, on a
  /// zero-reduced-cost path from ground to a required node, else the one
  /// whose cheapest such path costs least. -1 when no node is free.
  int32_t BranchNode(const std::vector<uint8_t>& status) const {
    int32_t pick = -1;
    double pick_cost = std::numeric_limits<double>::infinity();
    for (int32_t node : topo_) {
      size_t v = static_cast<size_t>(node);
      if (status[v] != kFree) continue;
      double d = d_ground_[v] + d_required_[v];
      if (d == 0.0) return node;
      if (pick < 0 || d < pick_cost) {
        pick = node;
        pick_cost = d;
      }
    }
    return pick;
  }

  static constexpr double kRelativeSlack = 1e-9;

  const SharingGraph& graph_;
  const size_t n_;
  obs::OptimizerProbe* const probe_;
  const std::vector<std::vector<int32_t>> in_edges_;
  std::vector<std::vector<int32_t>> out_edges_;
  std::vector<int32_t> topo_;

  PlanDecision best_;
  uint64_t expansions_ = 0;
  uint64_t pruned_by_bound_ = 0;
  uint64_t fixed_by_reduced_cost_ = 0;

  // Scratch reused across search nodes.
  std::vector<double> reduced_;  // Per arc, after the last dual ascent.
  std::vector<uint32_t> mark_;   // Component membership, by stamp_.
  uint32_t stamp_ = 0;
  std::vector<int32_t> component_;
  std::vector<size_t> cut_;
  std::vector<int32_t> choice_;   // Per node, from the last Assign.
  std::vector<double> arc_cost_;  // Cost of choice_, per selected node.
  // Reduced-cost shortest paths ground -> v and v -> a required node.
  std::vector<double> d_ground_;
  std::vector<double> d_required_;
};

}  // namespace

double DefaultPlanCost(const SharingGraph& graph) {
  double cost = 0.0;
  for (const SharingNode& node : graph.nodes) {
    if (node.terminal) cost += node.scratch_cost;
  }
  return cost;
}

PlanDecision NaivePlan(const SharingGraph& graph) {
  PlanDecision decision;
  decision.choice.assign(graph.nodes.size(), kNodeNotSelected);
  for (size_t v = 0; v < graph.nodes.size(); ++v) {
    if (graph.nodes[v].terminal) decision.choice[v] = kNodeFromGround;
  }
  decision.cost = DefaultPlanCost(graph);
  decision.exact = graph.edges.empty();
  return decision;
}

Result<double> ValidateDecision(const SharingGraph& graph,
                                const PlanDecision& decision) {
  if (decision.choice.size() != graph.nodes.size()) {
    return InvalidArgumentError("decision size mismatch");
  }
  double cost = 0.0;
  for (size_t v = 0; v < graph.nodes.size(); ++v) {
    int32_t c = decision.choice[v];
    if (c == kNodeNotSelected) {
      if (graph.nodes[v].terminal) {
        return InvalidArgumentError("terminal node not selected");
      }
      continue;
    }
    if (c != kNodeFromGround) {
      if (c < 0 || c >= static_cast<int32_t>(graph.edges.size())) {
        return InvalidArgumentError("choice out of range");
      }
      const SharingEdge& edge = graph.edges[static_cast<size_t>(c)];
      if (edge.target != static_cast<int32_t>(v)) {
        return InvalidArgumentError("edge target mismatch");
      }
      if (decision.choice[static_cast<size_t>(edge.source)] ==
          kNodeNotSelected) {
        return InvalidArgumentError("edge source not selected");
      }
    }
    cost += ChoiceCost(graph, static_cast<int32_t>(v), c);
  }
  return cost;
}

PlanDecision SolveBranchAndBound(const SharingGraph& graph,
                                 double budget_seconds,
                                 obs::OptimizerProbe* probe) {
  return DualAscentSearch(graph, probe).Solve(budget_seconds);
}

PlanDecision SolveSimulatedAnnealing(const SharingGraph& graph, uint64_t seed,
                                     int iterations,
                                     obs::OptimizerProbe* probe) {
  Clock::time_point start = Clock::now();
  Rng rng(seed);
  size_t n = graph.nodes.size();
  std::vector<std::vector<int32_t>> in_edges = InEdgesByTarget(graph);

  std::vector<int32_t> current(n, kNodeNotSelected);
  double current_cost = Normalize(graph, &current);
  std::vector<int32_t> best_choice = current;
  double best_cost = current_cost;

  if (probe != nullptr) {
    probe->sa.seed = seed;
    probe->sa.iterations = iterations;
  }

  // Nodes worth mutating: those with at least one in-edge.
  std::vector<int32_t> mutable_nodes;
  for (size_t v = 0; v < n; ++v) {
    if (!in_edges[v].empty()) mutable_nodes.push_back(static_cast<int32_t>(v));
  }
  if (mutable_nodes.empty() || iterations <= 0) {
    PlanDecision decision;
    decision.choice = std::move(current);
    decision.cost = current_cost;
    decision.exact = graph.edges.empty();
    decision.solve_seconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    if (probe != nullptr) probe->sa.recorded = true;  // Nothing to anneal.
    return decision;
  }

  double t0 = std::max(1e-9, 0.1 * DefaultPlanCost(graph));
  double t_end = t0 * 1e-4;
  double cooling = std::pow(t_end / t0, 1.0 / iterations);
  double temperature = t0;

  // Acceptance telemetry is bucketed into ~kSaEpochTarget epochs.
  const int epoch_size =
      std::max(1, iterations / obs::kSaEpochTarget);
  obs::SaEpoch epoch;
  if (probe != nullptr) {
    obs::SaTelemetry& t = probe->sa;
    t.epoch_size = epoch_size;
    t.t0 = t0;
    t.t_end = t_end;
    t.cooling = cooling;
    epoch.temperature = temperature;
  }

  for (int it = 0; it < iterations; ++it, temperature *= cooling) {
    int32_t v = mutable_nodes[static_cast<size_t>(
        rng.Uniform(0, static_cast<int64_t>(mutable_nodes.size()) - 1))];
    const std::vector<int32_t>& candidates = in_edges[static_cast<size_t>(v)];
    int64_t pick = rng.Uniform(-1, static_cast<int64_t>(candidates.size()) - 1);
    int32_t proposal =
        pick < 0 ? kNodeFromGround : candidates[static_cast<size_t>(pick)];
    std::vector<int32_t> next = current;
    next[static_cast<size_t>(v)] = proposal;
    double next_cost = Normalize(graph, &next);
    double delta = next_cost - current_cost;
    bool take = delta <= 0 || rng.NextDouble() < std::exp(-delta / temperature);
    if (take) {
      current = std::move(next);
      current_cost = next_cost;
      if (current_cost < best_cost) {
        best_cost = current_cost;
        best_choice = current;
        if (probe != nullptr) ++epoch.improved_best;
      }
    }
    if (probe != nullptr) {
      ++epoch.proposed;
      if (take) ++epoch.accepted;
      if ((it + 1) % epoch_size == 0 || it + 1 == iterations) {
        epoch.current_cost = current_cost;
        epoch.best_cost = best_cost;
        probe->sa.proposed += epoch.proposed;
        probe->sa.accepted += epoch.accepted;
        probe->sa.epochs.push_back(epoch);
        epoch = obs::SaEpoch{};
        epoch.temperature = temperature * cooling;  // Next iteration's.
      }
    }
  }

  PlanDecision decision;
  decision.choice = std::move(best_choice);
  decision.cost = best_cost;
  decision.exact = false;
  decision.solve_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  if (probe != nullptr) probe->sa.recorded = true;
  return decision;
}

PlanDecision SelectPlan(const SharingGraph& graph,
                        const PlannerOptions& options) {
  obs::OptimizerProbe* probe = options.probe;
  if (graph.edges.empty()) {
    if (probe != nullptr) probe->selected_solver = "naive";
    return NaivePlan(graph);
  }
  if (options.force_approximate) {
    if (probe != nullptr) probe->selected_solver = "sa";
    return SolveSimulatedAnnealing(graph, options.seed, options.sa_iterations,
                                   probe);
  }
  PlanDecision exact =
      SolveBranchAndBound(graph, options.exact_budget_seconds, probe);
  if (exact.exact) {
    if (probe != nullptr) probe->selected_solver = "bnb";
    return exact;
  }
  PlanDecision approx = SolveSimulatedAnnealing(graph, options.seed,
                                                options.sa_iterations, probe);
  approx.solve_seconds += exact.solve_seconds;
  const bool sa_wins = approx.cost < exact.cost;
  if (probe != nullptr) {
    probe->selected_solver = sa_wins ? "sa" : "bnb-incumbent";
  }
  return sa_wins ? approx : exact;
}

}  // namespace motto
