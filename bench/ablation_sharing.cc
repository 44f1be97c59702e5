// Ablation study (not in the paper, motivated by §IV): contribution of each
// sharing technique. Runs the mixed workload with individual techniques
// disabled and reports plan cost and measured throughput.
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/check.h"
#include "engine/executor.h"
#include "motto/rewriter.h"
#include "planner/plan_builder.h"
#include "planner/solver.h"
#include "motto/nested.h"
#include "workload/data_gen.h"
#include "workload/query_gen.h"

namespace motto::bench {
namespace {

struct Variant {
  const char* name;
  RewriterOptions options;
};

const std::vector<FlagSpec> kFlags = {
    {"events", kInt, "40000", kPositive, "stream length"},
    {"queries", kInt, "60", kPositive, "queries in the workload"},
    {"ratio", kDouble, "50", kZero, "basic workload ratio r, in percent"},
    {"seed", kInt, "1", kNone, "stream and workload seed"},
};

int Run(const FlagSet& flags) {
  int num_queries = static_cast<int>(flags.Int("queries"));
  double ratio = flags.Double("ratio") / 100.0;
  uint64_t seed = static_cast<uint64_t>(flags.Int("seed"));

  EventTypeRegistry registry;
  EventStream stream = BenchStream(flags, &registry);
  StreamStats stats = ComputeStats(stream);

  WorkloadOptions workload_options;
  workload_options.num_queries = num_queries;
  workload_options.basic_ratio = ratio;
  workload_options.seed = seed;
  auto workload = GenerateWorkload(workload_options, &registry);
  MOTTO_CHECK(workload.ok()) << workload.status();

  std::vector<Variant> variants;
  variants.push_back({"none (NA)", RewriterOptions::None()});
  variants.push_back({"full MOTTO", RewriterOptions::Motto()});
  {
    RewriterOptions no_dst = RewriterOptions::Motto();
    no_dst.enable_dst = false;
    variants.push_back({"- DST", no_dst});
  }
  {
    RewriterOptions no_ott = RewriterOptions::Motto();
    no_ott.enable_ott = false;
    variants.push_back({"- OTT", no_ott});
  }
  {
    RewriterOptions no_mst = RewriterOptions::Motto();
    no_mst.enable_mst = false;
    variants.push_back({"- MST merges", no_mst});
  }
  {
    RewriterOptions no_windows = RewriterOptions::Motto();
    no_windows.enable_windows = false;
    variants.push_back({"- window handling", no_windows});
  }

  std::printf(" variant            | plan cost | nodes | edges | eps\n");
  std::printf("--------------------+-----------+-------+-------+---------\n");
  double na_cost = 0.0;
  for (const Variant& variant : variants) {
    CompositeCatalog catalog;
    auto flat = DivideWorkload(workload->queries, &registry, &catalog);
    MOTTO_CHECK(flat.ok()) << flat.status();
    CostModel cost_model(stats);
    SharingGraph graph = BuildSharingGraph(*flat, variant.options, &registry,
                                           &catalog, &cost_model);
    PlannerOptions planner;
    planner.exact_budget_seconds = 3.0;
    PlanDecision decision = SelectPlan(graph, planner);
    auto jqp = BuildJqp(graph, decision, catalog, &registry);
    MOTTO_CHECK(jqp.ok()) << jqp.status();
    auto executor = Executor::Create(std::move(*jqp));
    MOTTO_CHECK(executor.ok()) << executor.status();
    auto run = executor->Run(stream);
    MOTTO_CHECK(run.ok()) << run.status();
    if (na_cost == 0.0) na_cost = decision.cost;
    std::printf(" %-18s | %9.0f | %5zu | %5zu | %8.0f\n", variant.name,
                decision.cost, graph.nodes.size(), graph.edges.size(),
                run->ThroughputEps());
    std::fflush(stdout);
  }
  std::printf(
      "\nEach disabled technique removes sharing edges, so plan cost rises\n"
      "toward the NA level; DST typically contributes the most on mixed\n"
      "workloads, OTT and window handling matter for the complex group.\n");
  return 0;
}

}  // namespace
}  // namespace motto::bench

int main(int argc, char** argv) {
  return motto::bench::Run(motto::bench::ParseFlags(
      argc, argv, motto::bench::kFlags,
      "Ablation — sharing technique contributions",
      "MOTTO with individual techniques disabled."));
}
