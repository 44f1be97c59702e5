#include "planner/solver.h"

#include <functional>
#include <limits>
#include <map>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "engine/executor.h"
#include "motto/optimizer.h"
#include "obs/opt_trace.h"
#include "verify/fuzzer.h"
#include "verify/oracle.h"
#include "workload/data_gen.h"
#include "workload/query_gen.h"

namespace motto {
namespace {

/// Builds a synthetic sharing graph: node patterns are irrelevant for the
/// solver, only costs/edges/terminal flags matter.
SharingGraph MakeGraph(std::vector<double> scratch,
                       std::vector<bool> terminal,
                       std::vector<std::tuple<int, int, double>> edges) {
  SharingGraph graph;
  for (size_t i = 0; i < scratch.size(); ++i) {
    SharingNode node;
    node.scratch_cost = scratch[i];
    node.terminal = terminal[i];
    node.key = "n" + std::to_string(i);
    graph.nodes.push_back(node);
    graph.index.emplace(graph.nodes.back().key, static_cast<int32_t>(i));
  }
  for (const auto& [from, to, cost] : edges) {
    graph.edges.push_back(SharingEdge{from, to, RewriteRecipe{}, cost});
  }
  return graph;
}

/// Exhaustive optimum by enumerating all per-node choices.
double BruteForceOptimum(const SharingGraph& graph) {
  size_t n = graph.nodes.size();
  std::vector<std::vector<int32_t>> options(n);
  for (size_t v = 0; v < n; ++v) {
    options[v] = {kNodeNotSelected, kNodeFromGround};
    for (size_t e = 0; e < graph.edges.size(); ++e) {
      if (graph.edges[e].target == static_cast<int32_t>(v)) {
        options[v].push_back(static_cast<int32_t>(e));
      }
    }
  }
  double best = std::numeric_limits<double>::infinity();
  std::vector<int32_t> choice(n, kNodeNotSelected);
  std::function<void(size_t)> recurse = [&](size_t v) {
    if (v == n) {
      PlanDecision decision;
      decision.choice = choice;
      auto cost = ValidateDecision(graph, decision);
      if (cost.ok()) best = std::min(best, *cost);
      return;
    }
    for (int32_t opt : options[v]) {
      choice[v] = opt;
      recurse(v + 1);
    }
  };
  recurse(0);
  return best;
}

TEST(SolverTest, NaivePlanSelectsTerminalsFromGround) {
  SharingGraph graph = MakeGraph({10, 20, 5}, {true, true, false}, {});
  PlanDecision naive = NaivePlan(graph);
  EXPECT_DOUBLE_EQ(naive.cost, 30.0);
  EXPECT_EQ(naive.choice[0], kNodeFromGround);
  EXPECT_EQ(naive.choice[2], kNodeNotSelected);
  EXPECT_TRUE(ValidateDecision(graph, naive).ok());
}

TEST(SolverTest, BnbPicksDirectSharingEdge) {
  // Terminal 1 can be computed from terminal 0 for 2 instead of 20.
  SharingGraph graph =
      MakeGraph({10, 20}, {true, true}, {{0, 1, 2.0}});
  PlanDecision decision = SolveBranchAndBound(graph, 5.0);
  EXPECT_TRUE(decision.exact);
  EXPECT_DOUBLE_EQ(decision.cost, 12.0);
  EXPECT_EQ(decision.choice[1], 0);
}

TEST(SolverTest, BnbActivatesSteinerNodeWhenWorthIt) {
  // Steiner node 2 costs 5 and feeds both terminals for 1 each:
  // 5 + 1 + 1 = 7 < 10 + 10.
  SharingGraph graph = MakeGraph({10, 10, 5}, {true, true, false},
                                 {{2, 0, 1.0}, {2, 1, 1.0}});
  PlanDecision decision = SolveBranchAndBound(graph, 5.0);
  EXPECT_TRUE(decision.exact);
  EXPECT_DOUBLE_EQ(decision.cost, 7.0);
  EXPECT_EQ(decision.choice[2], kNodeFromGround);
}

TEST(SolverTest, BnbSkipsSteinerNodeWhenNotWorthIt) {
  // Activating the Steiner node costs more than it saves.
  SharingGraph graph = MakeGraph({10, 10, 50}, {true, true, false},
                                 {{2, 0, 1.0}, {2, 1, 1.0}});
  PlanDecision decision = SolveBranchAndBound(graph, 5.0);
  EXPECT_TRUE(decision.exact);
  EXPECT_DOUBLE_EQ(decision.cost, 20.0);
  EXPECT_EQ(decision.choice[2], kNodeNotSelected);
}

TEST(SolverTest, BnbHandlesChainedSteinerNodes) {
  // Chain: steiner 3 -> steiner 2 -> terminals.
  SharingGraph graph =
      MakeGraph({100, 100, 60, 10}, {true, true, false, false},
                {{2, 0, 1.0}, {2, 1, 1.0}, {3, 2, 5.0}});
  PlanDecision decision = SolveBranchAndBound(graph, 5.0);
  EXPECT_TRUE(decision.exact);
  // 10 (n3) + 5 (n2 from n3) + 1 + 1 = 17.
  EXPECT_DOUBLE_EQ(decision.cost, 17.0);
  EXPECT_TRUE(ValidateDecision(graph, decision).ok());
}

TEST(SolverTest, BnbMatchesBruteForceOnRandomGraphs) {
  Rng rng(31337);
  for (int round = 0; round < 30; ++round) {
    int n = static_cast<int>(rng.Uniform(2, 7));
    std::vector<double> scratch;
    std::vector<bool> terminal;
    for (int v = 0; v < n; ++v) {
      scratch.push_back(static_cast<double>(rng.Uniform(1, 100)));
      terminal.push_back(rng.Bernoulli(0.6));
    }
    terminal[0] = true;  // At least one terminal.
    std::vector<std::tuple<int, int, double>> edges;
    // DAG edges u < v only, mirroring the rewriter's acyclic structure.
    for (int u = 0; u < n; ++u) {
      for (int v = u + 1; v < n; ++v) {
        if (rng.Bernoulli(0.5)) {
          edges.emplace_back(u, v, static_cast<double>(rng.Uniform(1, 60)));
        }
      }
    }
    SharingGraph graph = MakeGraph(scratch, terminal, edges);
    PlanDecision decision = SolveBranchAndBound(graph, 5.0);
    ASSERT_TRUE(decision.exact) << "round " << round;
    double expected = BruteForceOptimum(graph);
    EXPECT_NEAR(decision.cost, expected, 1e-9) << "round " << round;
    auto check = ValidateDecision(graph, decision);
    ASSERT_TRUE(check.ok()) << check.status();
    EXPECT_NEAR(*check, decision.cost, 1e-9);
  }
}

/// Exhaustive optimum over the subsets of Steiner nodes: with the selected
/// set fixed, the best plan gives each node its cheapest in-arc from ground
/// or a selected source.
double SteinerSubsetOptimum(const SharingGraph& graph) {
  const size_t n = graph.nodes.size();
  std::vector<size_t> steiner;
  for (size_t v = 0; v < n; ++v) {
    if (!graph.nodes[v].terminal) steiner.push_back(v);
  }
  double best = std::numeric_limits<double>::infinity();
  for (uint32_t subset = 0; subset < (1u << steiner.size()); ++subset) {
    std::vector<bool> selected(n);
    for (size_t v = 0; v < n; ++v) selected[v] = graph.nodes[v].terminal;
    for (size_t i = 0; i < steiner.size(); ++i) {
      if ((subset >> i) & 1u) selected[steiner[i]] = true;
    }
    double cost = 0.0;
    for (size_t v = 0; v < n; ++v) {
      if (!selected[v]) continue;
      double in = graph.nodes[v].scratch_cost;
      for (const SharingEdge& edge : graph.edges) {
        if (edge.target == static_cast<int32_t>(v) &&
            selected[static_cast<size_t>(edge.source)]) {
          in = std::min(in, edge.cost);
        }
      }
      cost += in;
    }
    best = std::min(best, cost);
  }
  return best;
}

TEST(SolverTest, BnbMatchesSteinerSubsetSearchWhenItBranches) {
  // Graphs of 8-16 nodes, at least 5 of them Steiner nodes. The root bound
  // closes most of them; the seed is chosen so that some need a branch.
  Rng rng(1);
  int branched = 0;
  for (int round = 0; round < 400; ++round) {
    int n = static_cast<int>(rng.Uniform(8, 16));
    int steiner = static_cast<int>(rng.Uniform(5, n - 1));
    std::vector<double> scratch;
    for (int v = 0; v < n; ++v) {
      scratch.push_back(static_cast<double>(rng.Uniform(1, 100)));
    }
    std::vector<bool> terminal(static_cast<size_t>(n), false);
    for (int left = n - steiner; left > 0;) {
      size_t v = static_cast<size_t>(rng.Uniform(0, n - 1));
      if (!terminal[v]) {
        terminal[v] = true;
        --left;
      }
    }
    std::vector<std::tuple<int, int, double>> edges;
    for (int u = 0; u < n; ++u) {
      for (int v = u + 1; v < n; ++v) {
        if (rng.Bernoulli(0.6)) {
          edges.emplace_back(u, v, static_cast<double>(rng.Uniform(1, 60)));
        }
      }
    }
    SharingGraph graph = MakeGraph(scratch, terminal, edges);
    obs::OptimizerProbe probe;
    PlanDecision decision = SolveBranchAndBound(graph, 60.0, &probe);
    ASSERT_TRUE(decision.exact) << "round " << round;
    EXPECT_NEAR(decision.cost, SteinerSubsetOptimum(graph), 1e-9)
        << "round " << round;
    auto check = ValidateDecision(graph, decision);
    ASSERT_TRUE(check.ok()) << check.status();
    EXPECT_NEAR(*check, decision.cost, 1e-9);
    EXPECT_LE(probe.bnb.lower_bound, decision.cost + 1e-9);
    EXPECT_EQ(probe.bnb.gap, 0.0);
    if (probe.bnb.expansions > 1) ++branched;
  }
  EXPECT_GT(branched, 0) << "no round reached a branch";
}

TEST(SolverTest, SimulatedAnnealingFindsFeasibleGoodPlans) {
  Rng rng(99);
  for (int round = 0; round < 10; ++round) {
    int n = static_cast<int>(rng.Uniform(3, 10));
    std::vector<double> scratch;
    std::vector<bool> terminal;
    for (int v = 0; v < n; ++v) {
      scratch.push_back(static_cast<double>(rng.Uniform(1, 100)));
      terminal.push_back(rng.Bernoulli(0.7));
    }
    terminal[0] = true;
    std::vector<std::tuple<int, int, double>> edges;
    for (int u = 0; u < n; ++u) {
      for (int v = u + 1; v < n; ++v) {
        if (rng.Bernoulli(0.6)) {
          edges.emplace_back(u, v, static_cast<double>(rng.Uniform(1, 40)));
        }
      }
    }
    SharingGraph graph = MakeGraph(scratch, terminal, edges);
    PlanDecision sa = SolveSimulatedAnnealing(graph, 7, 5000);
    auto check = ValidateDecision(graph, sa);
    ASSERT_TRUE(check.ok()) << check.status();
    EXPECT_NEAR(*check, sa.cost, 1e-9);
    // Never worse than no sharing; never better than the optimum.
    EXPECT_LE(sa.cost, DefaultPlanCost(graph) + 1e-9);
    PlanDecision exact = SolveBranchAndBound(graph, 5.0);
    ASSERT_TRUE(exact.exact);
    EXPECT_GE(sa.cost, exact.cost - 1e-9);
  }
}

TEST(SolverTest, SelectPlanUsesExactWithinBudget) {
  SharingGraph graph =
      MakeGraph({10, 20}, {true, true}, {{0, 1, 2.0}});
  PlannerOptions options;
  PlanDecision decision = SelectPlan(graph, options);
  EXPECT_TRUE(decision.exact);
  EXPECT_DOUBLE_EQ(decision.cost, 12.0);
}

TEST(SolverTest, SelectPlanForceApproximate) {
  SharingGraph graph =
      MakeGraph({10, 20}, {true, true}, {{0, 1, 2.0}});
  PlannerOptions options;
  options.force_approximate = true;
  options.sa_iterations = 4000;
  PlanDecision decision = SelectPlan(graph, options);
  EXPECT_FALSE(decision.exact);
  EXPECT_LE(decision.cost, 30.0);
  EXPECT_TRUE(ValidateDecision(graph, decision).ok());
}

TEST(SolverTest, Fig13aWorkloadSolvesExactlyWithinTheDefaultBudget) {
  // The paper's Fig 13a point: 100 stock queries at r = 100%.
  EventTypeRegistry registry;
  StreamOptions stream_options;
  stream_options.num_events = 20000;
  stream_options.seed = 3;
  EventStream stream = GenerateStream(stream_options, &registry);
  WorkloadOptions workload_options;
  workload_options.num_queries = 100;
  workload_options.basic_ratio = 1.0;
  workload_options.seed = 7;
  auto workload = GenerateWorkload(workload_options, &registry);
  ASSERT_TRUE(workload.ok()) << workload.status();

  // Optimize runs SelectPlan under the default PlannerOptions.
  OptimizerOptions optimizer_options;
  optimizer_options.mode = OptimizerMode::kMotto;
  obs::OptimizerProbe probe;
  optimizer_options.probe = &probe;
  Optimizer optimizer(&registry, ComputeStats(stream), optimizer_options);
  auto outcome = optimizer.Optimize(workload->queries);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  const SharingGraph& graph = outcome->sharing_graph;
  const PlanDecision& decision = outcome->decision;
  ASSERT_FALSE(graph.edges.empty());
  EXPECT_TRUE(decision.exact);
  EXPECT_EQ(probe.selected_solver, "bnb");
  EXPECT_EQ(probe.bnb.gap, 0.0);
  EXPECT_LE(probe.bnb.lower_bound, decision.cost + 1e-9);
  auto check = ValidateDecision(graph, decision);
  ASSERT_TRUE(check.ok()) << check.status();
  EXPECT_NEAR(*check, decision.cost, 1e-9);

  const PlannerOptions defaults;
  PlanDecision sa =
      SolveSimulatedAnnealing(graph, defaults.seed, defaults.sa_iterations);
  EXPECT_GE(sa.cost, decision.cost - 1e-9);
}

/// Per-user-query fingerprint multisets from one JQP run.
std::map<std::string, verify::MatchSet> PlanMatches(
    const Jqp& jqp, const std::vector<Query>& queries,
    const EventStream& stream) {
  std::map<std::string, verify::MatchSet> out;
  auto executor = Executor::Create(jqp);
  EXPECT_TRUE(executor.ok()) << executor.status();
  auto run = executor->Run(stream);
  EXPECT_TRUE(run.ok()) << run.status();
  for (const Query& query : queries) {
    verify::MatchSet& set = out[query.name];
    auto it = run->sink_events.find(query.name);
    if (it == run->sink_events.end()) continue;
    for (const Event& e : it->second) set.insert(e.Fingerprint());
  }
  return out;
}

TEST(SolverTest, SaNeverBeatsExactOnFuzzedWorkloadsAndPlansAgree) {
  // End-to-end cross-check on real (fuzzed) workloads small enough for the
  // exact solver: SA's plan cost must be >= B&B's optimum, both decisions
  // must validate against their sharing graph, and — cost aside — both
  // JQPs must produce identical per-query match multisets.
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    EventTypeRegistry registry;
    verify::FuzzOptions fuzz;
    fuzz.num_queries = 4;
    fuzz.num_events = 30;
    verify::QueryFuzzer fuzzer(&registry, fuzz, seed);
    verify::FuzzCase fuzz_case = fuzzer.Next();
    StreamStats stats = ComputeStats(fuzz_case.stream);

    OptimizerOptions exact_options;
    exact_options.mode = OptimizerMode::kMotto;
    exact_options.planner.exact_budget_seconds = 5.0;
    Optimizer exact_optimizer(&registry, stats, exact_options);
    auto exact = exact_optimizer.Optimize(fuzz_case.queries);
    ASSERT_TRUE(exact.ok()) << exact.status();

    OptimizerOptions sa_options = exact_options;
    sa_options.planner.force_approximate = true;
    sa_options.planner.sa_iterations = 2000;
    sa_options.planner.seed = seed;
    Optimizer sa_optimizer(&registry, stats, sa_options);
    auto sa = sa_optimizer.Optimize(fuzz_case.queries);
    ASSERT_TRUE(sa.ok()) << sa.status();

    auto exact_check = ValidateDecision(exact->sharing_graph,
                                        exact->decision);
    ASSERT_TRUE(exact_check.ok()) << exact_check.status();
    EXPECT_NEAR(*exact_check, exact->decision.cost, 1e-9);
    auto sa_check = ValidateDecision(sa->sharing_graph, sa->decision);
    ASSERT_TRUE(sa_check.ok()) << sa_check.status();
    EXPECT_NEAR(*sa_check, sa->decision.cost, 1e-9);

    if (exact->exact) {
      EXPECT_GE(sa->decision.cost, exact->decision.cost - 1e-9);
      EXPECT_LE(exact->decision.cost,
                DefaultPlanCost(exact->sharing_graph) + 1e-9);
    }

    EXPECT_EQ(PlanMatches(exact->jqp, fuzz_case.queries, fuzz_case.stream),
              PlanMatches(sa->jqp, fuzz_case.queries, fuzz_case.stream))
        << "exact and SA plans disagree on results";
  }
}

// --- Solver telemetry (DESIGN.md §11) ---

SharingGraph TelemetryGraph() {
  // Rich enough for real search: two Steiner nodes feeding four terminals.
  return MakeGraph({40, 50, 60, 35, 12, 18},
                   {true, true, true, true, false, false},
                   {{4, 0, 3.0}, {4, 1, 4.0}, {5, 2, 6.0}, {5, 3, 2.0},
                    {0, 1, 20.0}, {4, 5, 9.0}});
}

TEST(SolverTest, BnbTelemetryCountsAndIncumbents) {
  SharingGraph graph = TelemetryGraph();
  obs::OptimizerProbe probe;
  PlanDecision decision = SolveBranchAndBound(graph, 5.0, &probe);
  ASSERT_TRUE(probe.bnb.recorded);
  EXPECT_GT(probe.bnb.expansions, 0u);
  EXPECT_FALSE(probe.bnb.deadline_hit);
  // The root bound never exceeds the plan's cost; an exact plan has no gap.
  EXPECT_LE(probe.bnb.lower_bound, decision.cost + 1e-9);
  if (decision.exact) EXPECT_EQ(probe.bnb.gap, 0.0);
  // The naive seed is always incumbent #0, at zero expansions.
  ASSERT_FALSE(probe.bnb.incumbents.empty());
  EXPECT_EQ(probe.bnb.incumbents.front().expansions, 0u);
  EXPECT_DOUBLE_EQ(probe.bnb.incumbents.front().cost,
                   NaivePlan(graph).cost);
  // Incumbent costs are strictly decreasing and end at the optimum.
  for (size_t i = 1; i < probe.bnb.incumbents.size(); ++i) {
    EXPECT_LT(probe.bnb.incumbents[i].cost,
              probe.bnb.incumbents[i - 1].cost);
    EXPECT_GE(probe.bnb.incumbents[i].expansions,
              probe.bnb.incumbents[i - 1].expansions);
  }
  EXPECT_DOUBLE_EQ(probe.bnb.incumbents.back().cost, decision.cost);
  // An improvement beyond the seed stamps time-to-first-incumbent.
  if (probe.bnb.incumbents.size() > 1) {
    EXPECT_GE(probe.bnb.first_incumbent_seconds, 0.0);
  }
}

TEST(SolverTest, BnbTelemetryDeterministicCounts) {
  SharingGraph graph = TelemetryGraph();
  obs::OptimizerProbe a;
  obs::OptimizerProbe b;
  PlanDecision da = SolveBranchAndBound(graph, 5.0, &a);
  PlanDecision db = SolveBranchAndBound(graph, 5.0, &b);
  EXPECT_EQ(da.choice, db.choice);
  // Search counters are wall-clock-free and must agree exactly.
  EXPECT_EQ(a.bnb.expansions, b.bnb.expansions);
  EXPECT_EQ(a.bnb.pruned_by_bound, b.bnb.pruned_by_bound);
  EXPECT_EQ(a.bnb.fixed_by_reduced_cost, b.bnb.fixed_by_reduced_cost);
  EXPECT_EQ(a.bnb.incumbents.size(), b.bnb.incumbents.size());
}

TEST(SolverTest, SaTelemetryIsByteIdenticalForSameSeed) {
  SharingGraph graph = TelemetryGraph();
  obs::OptimizerProbe a;
  obs::OptimizerProbe b;
  PlanDecision da = SolveSimulatedAnnealing(graph, 1234, 5000, &a);
  PlanDecision db = SolveSimulatedAnnealing(graph, 1234, 5000, &b);
  EXPECT_EQ(da.choice, db.choice);
  ASSERT_TRUE(a.sa.recorded);
  EXPECT_EQ(a.sa.epochs.size(), b.sa.epochs.size());
  EXPECT_EQ(a.sa.epochs, b.sa.epochs);
  // The acceptance trace serializes byte-identically (no wall clock in it).
  EXPECT_EQ(a.sa.ToJson(), b.sa.ToJson());
  // Sanity on the schedule itself.
  EXPECT_EQ(a.sa.seed, 1234u);
  EXPECT_EQ(a.sa.iterations, 5000);
  uint64_t proposed = 0;
  for (const obs::SaEpoch& epoch : a.sa.epochs) {
    proposed += epoch.proposed;
    EXPECT_LE(epoch.accepted, epoch.proposed);
    EXPECT_LE(epoch.best_cost, epoch.current_cost + 1e-9);
  }
  EXPECT_EQ(proposed, a.sa.proposed);
  EXPECT_EQ(static_cast<int>(a.sa.proposed), a.sa.iterations);
  // Temperatures follow the geometric cooling schedule downward.
  for (size_t i = 1; i < a.sa.epochs.size(); ++i) {
    EXPECT_LT(a.sa.epochs[i].temperature, a.sa.epochs[i - 1].temperature);
  }
}

TEST(SolverTest, SaDifferentSeedsDiverge) {
  SharingGraph graph = TelemetryGraph();
  obs::OptimizerProbe a;
  obs::OptimizerProbe b;
  SolveSimulatedAnnealing(graph, 1, 5000, &a);
  SolveSimulatedAnnealing(graph, 2, 5000, &b);
  // Same schedule shape, different acceptance history.
  EXPECT_EQ(a.sa.epochs.size(), b.sa.epochs.size());
  EXPECT_NE(a.sa.ToJson(), b.sa.ToJson());
}

TEST(SolverTest, ProbeDoesNotChangeSolverDecisions) {
  SharingGraph graph = TelemetryGraph();
  obs::OptimizerProbe probe;
  PlanDecision plain_bnb = SolveBranchAndBound(graph, 5.0);
  PlanDecision probed_bnb = SolveBranchAndBound(graph, 5.0, &probe);
  EXPECT_EQ(plain_bnb.choice, probed_bnb.choice);
  EXPECT_DOUBLE_EQ(plain_bnb.cost, probed_bnb.cost);
  PlanDecision plain_sa = SolveSimulatedAnnealing(graph, 77, 4000);
  PlanDecision probed_sa = SolveSimulatedAnnealing(graph, 77, 4000, &probe);
  EXPECT_EQ(plain_sa.choice, probed_sa.choice);
  EXPECT_DOUBLE_EQ(plain_sa.cost, probed_sa.cost);
}

TEST(SolverTest, SelectPlanRecordsSelectedSolver) {
  SharingGraph graph = TelemetryGraph();
  PlannerOptions options;
  obs::OptimizerProbe probe;
  options.probe = &probe;
  PlanDecision decision = SelectPlan(graph, options);
  EXPECT_TRUE(decision.exact);
  EXPECT_EQ(probe.selected_solver, "bnb");
  EXPECT_TRUE(probe.bnb.recorded);

  obs::OptimizerProbe sa_probe;
  PlannerOptions sa_options;
  sa_options.force_approximate = true;
  sa_options.sa_iterations = 2000;
  sa_options.probe = &sa_probe;
  SelectPlan(graph, sa_options);
  EXPECT_EQ(sa_probe.selected_solver, "sa");
  EXPECT_TRUE(sa_probe.sa.recorded);
  EXPECT_FALSE(sa_probe.bnb.recorded);

  obs::OptimizerProbe naive_probe;
  PlannerOptions naive_options;
  naive_options.probe = &naive_probe;
  SharingGraph edgeless = MakeGraph({10, 20}, {true, true}, {});
  SelectPlan(edgeless, naive_options);
  EXPECT_EQ(naive_probe.selected_solver, "naive");
}

TEST(SolverTest, ZeroBudgetReturnsTheIncumbentAndSelectPlanTheCheaper) {
  SharingGraph graph = TelemetryGraph();
  PlanDecision incumbent = SolveBranchAndBound(graph, 0.0);
  EXPECT_FALSE(incumbent.exact);
  auto check = ValidateDecision(graph, incumbent);
  ASSERT_TRUE(check.ok()) << check.status();
  EXPECT_DOUBLE_EQ(*check, incumbent.cost);

  PlannerOptions options;
  options.exact_budget_seconds = 0.0;
  options.sa_iterations = 2000;
  PlanDecision sa =
      SolveSimulatedAnnealing(graph, options.seed, options.sa_iterations);
  PlanDecision selected = SelectPlan(graph, options);
  EXPECT_FALSE(selected.exact);
  EXPECT_DOUBLE_EQ(selected.cost, std::min(incumbent.cost, sa.cost));
  EXPECT_EQ(selected.choice,
            sa.cost < incumbent.cost ? sa.choice : incumbent.choice);
}

TEST(SolverTest, ValidateDecisionCatchesInconsistencies) {
  SharingGraph graph =
      MakeGraph({10, 20, 5}, {true, true, false}, {{2, 1, 2.0}});
  PlanDecision decision;
  decision.choice = {kNodeFromGround, 0, kNodeNotSelected};
  // Edge 0's source (node 2) is not selected.
  EXPECT_FALSE(ValidateDecision(graph, decision).ok());
  decision.choice = {kNodeNotSelected, kNodeFromGround, kNodeNotSelected};
  // Terminal 0 unselected.
  EXPECT_FALSE(ValidateDecision(graph, decision).ok());
  decision.choice = {kNodeFromGround, kNodeFromGround};
  EXPECT_FALSE(ValidateDecision(graph, decision).ok());  // Size mismatch.
}

}  // namespace
}  // namespace motto
