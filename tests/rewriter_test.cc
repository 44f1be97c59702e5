#include "motto/rewriter.h"

#include <gtest/gtest.h>

#include <cmath>

#include "motto/optimizer.h"
#include "obs/opt_trace.h"
#include "verify/fuzzer.h"
#include "workload/data_gen.h"
#include "workload/query_gen.h"

namespace motto {
namespace {

/// What the exact DSMT solver assumes of a sharing graph: no cycle (Kahn's
/// order over the edges consumes every node), and finite, non-negative
/// scratch and edge costs.
void ExpectSolvable(const SharingGraph& graph) {
  size_t n = graph.nodes.size();
  std::vector<int> in_degree(n, 0);
  for (const SharingEdge& e : graph.edges) {
    ++in_degree[static_cast<size_t>(e.target)];
    EXPECT_TRUE(std::isfinite(e.cost) && e.cost >= 0.0)
        << "edge " << e.source << "->" << e.target << " costs " << e.cost;
  }
  std::vector<int32_t> ready;
  for (size_t v = 0; v < n; ++v) {
    if (in_degree[v] == 0) ready.push_back(static_cast<int32_t>(v));
    double cost = graph.nodes[v].scratch_cost;
    EXPECT_TRUE(std::isfinite(cost) && cost >= 0.0)
        << "node " << graph.nodes[v].key << " costs " << cost;
  }
  size_t seen = 0;
  while (!ready.empty()) {
    int32_t v = ready.back();
    ready.pop_back();
    ++seen;
    for (const SharingEdge& e : graph.edges) {
      if (e.source == v && --in_degree[static_cast<size_t>(e.target)] == 0) {
        ready.push_back(e.target);
      }
    }
  }
  EXPECT_EQ(seen, n) << "the sharing graph has a cycle";
}

class RewriterTest : public ::testing::Test {
 protected:
  RewriterTest() : cost_(MakeStats()) {}

  StreamStats MakeStats() {
    StreamStats stats;
    // Selective types: ~0.6 expected events per 2-second window, the regime
    // CEP patterns target (rare per-type events, paper §VII data sets).
    for (EventTypeId t = 0; t < 12; ++t) stats.rate_per_second[t] = 0.3;
    stats.total_rate = 3.6;
    stats.duration = Seconds(100);
    return stats;
  }

  FlatQuery Query(const std::string& name, PatternOp op,
                  std::vector<std::string> operands,
                  Duration window = Seconds(2),
                  std::vector<std::string> negated = {}) {
    FlatQuery q;
    q.name = name;
    q.window = window;
    q.pattern.op = op;
    for (const std::string& n : operands) {
      q.pattern.operands.push_back(registry_.RegisterPrimitive(n));
    }
    for (const std::string& n : negated) {
      q.pattern.negated.push_back(registry_.RegisterPrimitive(n));
    }
    return q;
  }

  SharingGraph Build(const std::vector<FlatQuery>& queries,
                     RewriterOptions options = RewriterOptions::Motto()) {
    return BuildSharingGraph(queries, options, &registry_, &catalog_, &cost_);
  }

  int32_t NodeOf(const SharingGraph& graph, const FlatPattern& pattern,
                 Duration window) {
    auto it = graph.index.find(SharingNodeKey(pattern.Canonical(), window));
    return it == graph.index.end() ? -1 : it->second;
  }

  bool HasEdge(const SharingGraph& graph, int32_t from, int32_t to,
               RewriteRecipe::Kind kind) {
    for (const SharingEdge& e : graph.edges) {
      if (e.source == from && e.target == to && e.recipe.kind == kind) {
        return true;
      }
    }
    return false;
  }

  EventTypeRegistry registry_;
  CompositeCatalog catalog_;
  CostModel cost_;
};

TEST_F(RewriterTest, IdenticalQueriesShareOneNode) {
  FlatQuery a = Query("a", PatternOp::kSeq, {"E1", "E2"});
  FlatQuery b = Query("b", PatternOp::kSeq, {"E1", "E2"});
  SharingGraph graph = Build({a, b});
  ASSERT_EQ(graph.nodes.size(), 1u);
  EXPECT_EQ(graph.nodes[0].query_names.size(), 2u);
  EXPECT_TRUE(graph.nodes[0].terminal);
}

TEST_F(RewriterTest, CommutativeEquivalenceSharesOneNode) {
  FlatQuery a = Query("a", PatternOp::kConj, {"E1", "E2"});
  FlatQuery b = Query("b", PatternOp::kConj, {"E2", "E1"});
  SharingGraph graph = Build({a, b});
  EXPECT_EQ(graph.nodes.size(), 1u);
}

TEST_F(RewriterTest, MstSubstringEdge) {
  // Paper MST substring case: SEQ(E1,E2) is a prefix of SEQ(E1,E2,E3).
  FlatQuery small = Query("small", PatternOp::kSeq, {"E1", "E2"});
  FlatQuery big = Query("big", PatternOp::kSeq, {"E1", "E2", "E3"});
  SharingGraph graph = Build({small, big}, RewriterOptions::MstOnly());
  int32_t s = NodeOf(graph, small.pattern, small.window);
  int32_t b = NodeOf(graph, big.pattern, big.window);
  ASSERT_GE(s, 0);
  ASSERT_GE(b, 0);
  EXPECT_TRUE(HasEdge(graph, s, b, RewriteRecipe::Kind::kCompositeOperand));
}

TEST_F(RewriterTest, MstSubsequenceEdgeUsesMergeOrdered) {
  // Paper Example 1: q2=SEQ(E1,E3) shared into q1=SEQ(E1,E2,E3).
  FlatQuery q2 = Query("q2", PatternOp::kSeq, {"E1", "E3"});
  FlatQuery q1 = Query("q1", PatternOp::kSeq, {"E1", "E2", "E3"});
  SharingGraph graph = Build({q1, q2}, RewriterOptions::MstOnly());
  int32_t s = NodeOf(graph, q2.pattern, q2.window);
  int32_t b = NodeOf(graph, q1.pattern, q1.window);
  EXPECT_TRUE(HasEdge(graph, s, b, RewriteRecipe::Kind::kMergeOrdered));
}

TEST_F(RewriterTest, DstCreatesCommonSubQuery) {
  // Paper Example 2: q3=SEQ(E1,E2,E4), q4=SEQ(E2,E4,E3) share SEQ(E2,E4).
  FlatQuery q3 = Query("q3", PatternOp::kSeq, {"E1", "E2", "E4"});
  FlatQuery q4 = Query("q4", PatternOp::kSeq, {"E2", "E4", "E3"});
  SharingGraph graph = Build({q3, q4});
  FlatPattern sub{PatternOp::kSeq,
                  {registry_.Find("E2"), registry_.Find("E4")},
                  {}};
  int32_t sub_node = NodeOf(graph, sub, Seconds(2));
  ASSERT_GE(sub_node, 0) << graph.ToString(registry_);
  EXPECT_FALSE(graph.nodes[static_cast<size_t>(sub_node)].terminal);
  EXPECT_TRUE(HasEdge(graph, sub_node, NodeOf(graph, q3.pattern, q3.window),
                      RewriteRecipe::Kind::kCompositeOperand));
  EXPECT_TRUE(HasEdge(graph, sub_node, NodeOf(graph, q4.pattern, q4.window),
                      RewriteRecipe::Kind::kCompositeOperand));
}

TEST_F(RewriterTest, PaperExample4RequiresDstPlusMst) {
  // q8=SEQ(E1,E2,E3,E5), q9=SEQ(E1,E3,E4): sub-query SEQ(E1,E3) is a
  // subsequence of both; sharing needs decomposition + merge.
  FlatQuery q8 = Query("q8", PatternOp::kSeq, {"E1", "E2", "E3", "E5"});
  FlatQuery q9 = Query("q9", PatternOp::kSeq, {"E1", "E3", "E4"});
  SharingGraph graph = Build({q8, q9});
  FlatPattern sub{PatternOp::kSeq,
                  {registry_.Find("E1"), registry_.Find("E3")},
                  {}};
  int32_t sub_node = NodeOf(graph, sub, Seconds(2));
  ASSERT_GE(sub_node, 0) << graph.ToString(registry_);
  // SEQ(E1,E3) is a non-contiguous subsequence of q8 (merge + order filter)
  // but a contiguous prefix of q9 (direct composite operand).
  EXPECT_TRUE(HasEdge(graph, sub_node, NodeOf(graph, q8.pattern, q8.window),
                      RewriteRecipe::Kind::kMergeOrdered));
  EXPECT_TRUE(HasEdge(graph, sub_node, NodeOf(graph, q9.pattern, q9.window),
                      RewriteRecipe::Kind::kCompositeOperand));
  // MST alone must find nothing here (no substring/subsequence relation
  // between the whole queries).
  EventTypeRegistry fresh_registry = registry_;
  SharingGraph mst = Build({q8, q9}, RewriterOptions::MstOnly());
  EXPECT_TRUE(mst.edges.empty());
}

TEST_F(RewriterTest, OttConjToSeqEdge) {
  // Paper Example 5: q2=SEQ(E1,E3) from q5=CONJ(E1&E3) via Filter_sc.
  FlatQuery seq = Query("seq", PatternOp::kSeq, {"E1", "E3"});
  FlatQuery conj = Query("conj", PatternOp::kConj, {"E1", "E3"});
  SharingGraph graph = Build({seq, conj});
  int32_t s = NodeOf(graph, conj.pattern, conj.window);
  int32_t b = NodeOf(graph, seq.pattern, seq.window);
  EXPECT_TRUE(HasEdge(graph, s, b, RewriteRecipe::Kind::kOrderFilter));
  // The reverse direction is impossible.
  EXPECT_FALSE(HasEdge(graph, b, s, RewriteRecipe::Kind::kOrderFilter));
}

TEST_F(RewriterTest, WindowDifferenceCreatesSpanFilterEdge) {
  FlatQuery wide = Query("wide", PatternOp::kSeq, {"E1", "E2"}, Seconds(8));
  FlatQuery narrow = Query("narrow", PatternOp::kSeq, {"E1", "E2"}, Seconds(2));
  SharingGraph graph = Build({wide, narrow});
  int32_t w = NodeOf(graph, wide.pattern, Seconds(8));
  int32_t n = NodeOf(graph, narrow.pattern, Seconds(2));
  ASSERT_GE(w, 0);
  ASSERT_GE(n, 0);
  EXPECT_TRUE(HasEdge(graph, w, n, RewriteRecipe::Kind::kSpanFilter));
  EXPECT_FALSE(HasEdge(graph, n, w, RewriteRecipe::Kind::kSpanFilter));
  // MST-only mode treats different windows as unshareable.
  EventTypeRegistry fresh = registry_;
  SharingGraph strict = Build({wide, narrow}, RewriterOptions::MstOnly());
  EXPECT_TRUE(strict.edges.empty());
}

TEST_F(RewriterTest, WindowExtensionSubQueryForSmallerSourceWindow) {
  // Source window < beneficiary window: the sub-query node is created at
  // the max window so both can consume it (paper §IV-D case 2).
  FlatQuery small = Query("small", PatternOp::kSeq, {"E1", "E2", "E3"},
                          Seconds(2));
  FlatQuery big = Query("big", PatternOp::kSeq, {"E2", "E3", "E4"},
                        Seconds(8));
  SharingGraph graph = Build({small, big});
  FlatPattern sub{PatternOp::kSeq,
                  {registry_.Find("E2"), registry_.Find("E3")},
                  {}};
  // Extended sub-query at the max of both windows.
  EXPECT_GE(NodeOf(graph, sub, Seconds(8)), 0) << graph.ToString(registry_);
}

TEST_F(RewriterTest, NegatedQueriesShareTheirPositivePart) {
  // Paper's data-center queries: q_a = SEQ(Es,Et,Ed,NEG(Ea)),
  // q_b = SEQ(Es,Et,Ea): common positive prefix SEQ(Es,Et).
  FlatQuery qa = Query("qa", PatternOp::kSeq, {"Es", "Et", "Ed"}, Seconds(2),
                       {"Ea"});
  FlatQuery qb = Query("qb", PatternOp::kSeq, {"Es", "Et", "Ea"});
  SharingGraph graph = Build({qa, qb});
  FlatPattern sub{PatternOp::kSeq,
                  {registry_.Find("Es"), registry_.Find("Et")},
                  {}};
  int32_t sub_node = NodeOf(graph, sub, Seconds(2));
  ASSERT_GE(sub_node, 0) << graph.ToString(registry_);
  int32_t a = NodeOf(graph, qa.pattern, qa.window);
  EXPECT_TRUE(HasEdge(graph, sub_node, a,
                      RewriteRecipe::Kind::kCompositeOperand));
  // A NEG query never serves as a source.
  for (const SharingEdge& e : graph.edges) {
    EXPECT_NE(e.source, a);
  }
}

TEST_F(RewriterTest, ConjSubMultisetSharing) {
  FlatQuery small = Query("small", PatternOp::kConj, {"E1", "E2"});
  FlatQuery big = Query("big", PatternOp::kConj, {"E3", "E1", "E2"});
  SharingGraph graph = Build({small, big});
  int32_t s = NodeOf(graph, small.pattern, small.window);
  int32_t b = NodeOf(graph, big.pattern, big.window);
  EXPECT_TRUE(HasEdge(graph, s, b, RewriteRecipe::Kind::kCompositeOperand));
}

TEST_F(RewriterTest, LcseOnlySharesLongestCommonSubstring) {
  FlatQuery q6 = Query("q6", PatternOp::kSeq,
                       {"E1", "E2", "E3", "E5", "E6", "E7", "E8"});
  FlatQuery q7 = Query("q7", PatternOp::kSeq,
                       {"E1", "E3", "E6", "E5", "E7", "E8"});
  SharingGraph graph = Build({q6, q7}, RewriterOptions::Lcse());
  // LCS is "E7,E8" (paper Example 3's S5).
  FlatPattern lcs{PatternOp::kSeq,
                  {registry_.Find("E7"), registry_.Find("E8")},
                  {}};
  EXPECT_GE(NodeOf(graph, lcs, Seconds(2)), 0) << graph.ToString(registry_);
  // The subsequence chains (MS1="E1,E3,E5") exist only under full MOTTO.
  FlatPattern ms1{PatternOp::kSeq,
                  {registry_.Find("E1"), registry_.Find("E3"),
                   registry_.Find("E5")},
                  {}};
  EXPECT_EQ(NodeOf(graph, ms1, Seconds(2)), -1);
  EventTypeRegistry fresh = registry_;
  SharingGraph full = Build({q6, q7});
  EXPECT_GE(NodeOf(full, ms1, Seconds(2)), 0) << full.ToString(registry_);
}

TEST_F(RewriterTest, NaModeProducesNoEdges) {
  FlatQuery a = Query("a", PatternOp::kSeq, {"E1", "E2"});
  FlatQuery b = Query("b", PatternOp::kSeq, {"E1", "E2", "E3"});
  SharingGraph graph = Build({a, b}, RewriterOptions::None());
  EXPECT_TRUE(graph.edges.empty());
  EXPECT_EQ(graph.nodes.size(), 2u);
}

TEST_F(RewriterTest, EdgesAlwaysCheaperThanScratch) {
  FlatQuery a = Query("a", PatternOp::kSeq, {"E1", "E2", "E3", "E4"});
  FlatQuery b = Query("b", PatternOp::kSeq, {"E2", "E3", "E4", "E5"});
  FlatQuery c = Query("c", PatternOp::kConj, {"E1", "E2", "E3"});
  SharingGraph graph = Build({a, b, c});
  for (const SharingEdge& e : graph.edges) {
    EXPECT_LT(e.cost,
              graph.nodes[static_cast<size_t>(e.target)].scratch_cost);
  }
}

TEST_F(RewriterTest, GraphIsAcyclicDag) {
  std::vector<FlatQuery> queries = {
      Query("a", PatternOp::kSeq, {"E1", "E2", "E3"}),
      Query("b", PatternOp::kSeq, {"E1", "E3"}),
      Query("c", PatternOp::kConj, {"E1", "E3"}),
      Query("d", PatternOp::kSeq, {"E2", "E3", "E4"}, Seconds(6)),
  };
  ExpectSolvable(Build(queries));
}

/// Sharing graph of `queries`, nested ones divided, as the MOTTO optimizer
/// builds it over `stream`'s statistics. The exact search is skipped (SA
/// with no iterations returns the naive plan), so a graph it would refuse
/// reaches ExpectSolvable instead of the search's own checks.
SharingGraph OptimizerGraph(const std::vector<Query>& queries,
                            const EventStream& stream,
                            EventTypeRegistry* registry) {
  OptimizerOptions options;
  options.mode = OptimizerMode::kMotto;
  options.planner.force_approximate = true;
  options.planner.sa_iterations = 0;
  Optimizer optimizer(registry, ComputeStats(stream), options);
  auto outcome = optimizer.Optimize(queries);
  EXPECT_TRUE(outcome.ok()) << outcome.status();
  return outcome.ok() ? std::move(outcome->sharing_graph) : SharingGraph{};
}

TEST(RewriterSolvableTest, FuzzedWorkloadsGiveSolvableGraphs) {
  int nested = 0, disj = 0, conj = 0, negated = 0;
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    EventTypeRegistry registry;
    verify::FuzzOptions fuzz;
    fuzz.num_queries = 4;
    verify::QueryFuzzer fuzzer(&registry, fuzz, seed);
    verify::FuzzCase fuzz_case = fuzzer.Next();
    SharingGraph graph =
        OptimizerGraph(fuzz_case.queries, fuzz_case.stream, &registry);
    ExpectSolvable(graph);
    for (const Query& query : fuzz_case.queries) {
      if (query.pattern.NestedLevel() > 1) ++nested;
    }
    for (const SharingNode& node : graph.nodes) {
      if (node.pattern.op == PatternOp::kDisj) ++disj;
      if (node.pattern.op == PatternOp::kConj) ++conj;
      if (!node.pattern.negated.empty()) ++negated;
    }
  }
  EXPECT_GT(nested, 0);
  EXPECT_GT(disj, 0);
  EXPECT_GT(conj, 0);
  EXPECT_GT(negated, 0);
}

TEST(RewriterSolvableTest, GeneratedWorkloadsGiveSolvableGraphs) {
  for (Scenario scenario : {Scenario::kStockMarket, Scenario::kDataCenter}) {
    for (double ratio : {0.0, 0.5, 1.0}) {
      SCOPED_TRACE(std::string(ScenarioName(scenario)) + " r=" +
                   std::to_string(ratio));
      EventTypeRegistry registry;
      StreamOptions stream_options;
      stream_options.scenario = scenario;
      stream_options.num_events = 20000;
      EventStream stream = GenerateStream(stream_options, &registry);
      WorkloadOptions workload_options;
      workload_options.scenario = scenario;
      workload_options.basic_ratio = ratio;
      auto workload = GenerateWorkload(workload_options, &registry);
      ASSERT_TRUE(workload.ok()) << workload.status();
      SharingGraph graph = OptimizerGraph(workload->queries, stream, &registry);
      EXPECT_FALSE(graph.edges.empty());
      ExpectSolvable(graph);
    }
  }
}

// --- Optimizer-probe candidate traces (DESIGN.md §11) ---

TEST_F(RewriterTest, ProbeAcceptedCandidatesMatchGraphEdges) {
  std::vector<FlatQuery> queries = {
      Query("a", PatternOp::kSeq, {"E1", "E2", "E3"}),
      Query("b", PatternOp::kSeq, {"E1", "E3"}),
      Query("c", PatternOp::kConj, {"E1", "E3"}),
      Query("d", PatternOp::kSeq, {"E2", "E3", "E4"}, Seconds(6)),
  };
  obs::OptimizerProbe probe;
  RewriterOptions options = RewriterOptions::Motto();
  options.probe = &probe;
  SharingGraph graph = Build(queries, options);
  ASSERT_TRUE(probe.rewriter.recorded);
  // Every edge in the graph is an accepted candidate and vice versa:
  // AddEdge is the sole edge-push site and always records.
  EXPECT_EQ(probe.rewriter.CountDecision(obs::EdgeDecision::kAccepted),
            graph.edges.size());
  EXPECT_EQ(probe.rewriter.graph_nodes, graph.nodes.size());
  EXPECT_EQ(probe.rewriter.graph_edges, graph.edges.size());
  EXPECT_GT(probe.rewriter.pairs_considered, 0u);
  for (const obs::EdgeCandidate& c : probe.rewriter.candidates) {
    EXPECT_FALSE(c.family.empty());
    EXPECT_FALSE(c.recipe.empty());
    if (c.decision == obs::EdgeDecision::kAccepted) {
      EXPECT_LT(c.cost, c.scratch_cost);
    }
  }
}

TEST_F(RewriterTest, ProbeRecordsDuplicateTypeConjContainmentRejection) {
  // CONJ(E1,E2) is a sub-multiset of CONJ(E1,E2,E2), but the beneficiary's
  // duplicate E2 slots break the composite-operand soundness guard (one
  // physical event could fill two slots). The trace must carry that reason.
  FlatQuery small = Query("small", PatternOp::kConj, {"E1", "E2"});
  FlatQuery big = Query("big", PatternOp::kConj, {"E1", "E2", "E2"});
  obs::OptimizerProbe probe;
  RewriterOptions options = RewriterOptions::Motto();
  options.probe = &probe;
  SharingGraph graph = Build({small, big}, options);
  int32_t s = NodeOf(graph, small.pattern, small.window);
  int32_t b = NodeOf(graph, big.pattern, big.window);
  ASSERT_GE(s, 0);
  ASSERT_GE(b, 0);
  EXPECT_FALSE(HasEdge(graph, s, b, RewriteRecipe::Kind::kCompositeOperand));
  bool found = false;
  for (const obs::EdgeCandidate& c : probe.rewriter.candidates) {
    if (c.source == s && c.target == b &&
        c.decision == obs::EdgeDecision::kRejectedDuplicateTypes) {
      found = true;
      EXPECT_EQ(c.recipe, "composite-operand");
      EXPECT_EQ(c.family, "MST");  // Terminal-to-terminal containment.
      EXPECT_EQ(c.cost, 0.0);  // Rejected structurally, before costing.
    }
  }
  EXPECT_TRUE(found) << probe.rewriter.ToJson();
}

TEST_F(RewriterTest, ProbeRecordsNegatedTargetSubsequenceRejection) {
  // SEQ(E1,E3) is a subsequence of SEQ(E1,E2,E3) but the target carries
  // NEG(E4), which merge-ordered cannot re-apply.
  FlatQuery src = Query("src", PatternOp::kSeq, {"E1", "E3"});
  FlatQuery tgt = Query("tgt", PatternOp::kSeq, {"E1", "E2", "E3"},
                        Seconds(2), {"E4"});
  obs::OptimizerProbe probe;
  RewriterOptions options = RewriterOptions::MstOnly();
  options.probe = &probe;
  SharingGraph graph = Build({src, tgt}, options);
  int32_t s = NodeOf(graph, src.pattern, src.window);
  int32_t t = NodeOf(graph, tgt.pattern, tgt.window);
  EXPECT_FALSE(HasEdge(graph, s, t, RewriteRecipe::Kind::kMergeOrdered));
  bool found = false;
  for (const obs::EdgeCandidate& c : probe.rewriter.candidates) {
    if (c.source == s && c.target == t &&
        c.decision == obs::EdgeDecision::kRejectedNegatedTarget) {
      found = true;
      EXPECT_EQ(c.recipe, "merge-ordered");
    }
  }
  EXPECT_TRUE(found) << probe.rewriter.ToJson();
}

TEST_F(RewriterTest, ProbeCountsCoarsePairSkips) {
  // A NEG query as potential source is skipped before any candidate is
  // identified — it lands in the aggregate counter, not the candidate list.
  FlatQuery qa = Query("qa", PatternOp::kSeq, {"Es", "Et", "Ed"}, Seconds(2),
                       {"Ea"});
  FlatQuery qb = Query("qb", PatternOp::kSeq, {"Es", "Et", "Ea"});
  obs::OptimizerProbe probe;
  RewriterOptions options = RewriterOptions::Motto();
  options.probe = &probe;
  Build({qa, qb}, options);
  EXPECT_GT(probe.rewriter.negated_source_skips, 0u);

  // MST-only mode requires equal windows; a mismatched pair is counted.
  FlatQuery wide = Query("wide", PatternOp::kSeq, {"E1", "E2"}, Seconds(8));
  FlatQuery narrow = Query("narrow", PatternOp::kSeq, {"E1", "E2"},
                           Seconds(2));
  obs::OptimizerProbe strict_probe;
  RewriterOptions strict = RewriterOptions::MstOnly();
  strict.probe = &strict_probe;
  Build({wide, narrow}, strict);
  EXPECT_GT(strict_probe.rewriter.window_mismatch_skips, 0u);
  EXPECT_TRUE(strict_probe.rewriter.candidates.empty());
}

TEST_F(RewriterTest, ProbeRecordsUnprofitableCandidates) {
  // With pruning enabled the unprofitable candidates are rejected but still
  // traced; with pruning disabled the same candidates become edges. Either
  // way the candidate set covers them.
  std::vector<FlatQuery> queries = {
      Query("a", PatternOp::kSeq, {"E1", "E2", "E3", "E4"}),
      Query("b", PatternOp::kSeq, {"E2", "E3", "E4", "E5"}),
      Query("c", PatternOp::kConj, {"E1", "E2", "E3"}),
  };
  obs::OptimizerProbe pruned_probe;
  RewriterOptions pruned = RewriterOptions::Motto();
  pruned.probe = &pruned_probe;
  SharingGraph pruned_graph = Build(queries, pruned);

  obs::OptimizerProbe full_probe;
  RewriterOptions full = RewriterOptions::Motto();
  full.prune_unprofitable = false;
  full.probe = &full_probe;
  SharingGraph full_graph = Build(queries, full);

  size_t pruned_accepted =
      pruned_probe.rewriter.CountDecision(obs::EdgeDecision::kAccepted);
  size_t pruned_unprofitable = pruned_probe.rewriter.CountDecision(
      obs::EdgeDecision::kRejectedUnprofitable);
  EXPECT_EQ(pruned_accepted, pruned_graph.edges.size());
  // Without pruning, every costed candidate is accepted.
  EXPECT_EQ(full_probe.rewriter.CountDecision(obs::EdgeDecision::kAccepted),
            full_graph.edges.size());
  EXPECT_EQ(full_probe.rewriter.CountDecision(
                obs::EdgeDecision::kRejectedUnprofitable),
            0u);
  EXPECT_EQ(pruned_accepted + pruned_unprofitable, full_graph.edges.size());
  for (const obs::EdgeCandidate& c : pruned_probe.rewriter.candidates) {
    if (c.decision == obs::EdgeDecision::kRejectedUnprofitable) {
      EXPECT_GT(c.cost, 0.0);
      EXPECT_GE(c.cost, 0.9 * c.scratch_cost);  // kProfitMargin.
    }
  }
}

TEST_F(RewriterTest, NullProbeLeavesGraphIdentical) {
  std::vector<FlatQuery> queries = {
      Query("a", PatternOp::kSeq, {"E1", "E2", "E3"}),
      Query("b", PatternOp::kSeq, {"E1", "E3"}),
      Query("c", PatternOp::kConj, {"E1", "E3"}),
      Query("d", PatternOp::kSeq, {"E2", "E3", "E4"}, Seconds(6)),
  };
  SharingGraph plain = Build(queries);
  obs::OptimizerProbe probe;
  RewriterOptions options = RewriterOptions::Motto();
  options.probe = &probe;
  SharingGraph probed = Build(queries, options);
  EXPECT_EQ(plain.ToString(registry_), probed.ToString(registry_));
}

}  // namespace
}  // namespace motto
