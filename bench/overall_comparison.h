#ifndef MOTTO_BENCH_OVERALL_COMPARISON_H_
#define MOTTO_BENCH_OVERALL_COMPARISON_H_

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/check.h"
#include "workload/data_gen.h"
#include "workload/harness.h"
#include "workload/query_gen.h"

namespace motto::bench {

/// Flags of the Fig 13a/13b benches.
inline std::vector<FlagSpec> OverallComparisonFlags(Scenario scenario) {
  const bool stock = scenario == Scenario::kStockMarket;
  return {
      {"events", kInt, stock ? "60000" : "80000", kPositive, "stream length"},
      {"full", kSwitch, "", kNone,
       stock ? "paper-scale stream of 2M events"
             : "paper-scale stream of 4M events"},
      {"queries", kInt, "100", kPositive, "queries per workload"},
      {"seed", kInt, "1", kNone, "stream and workload seed"},
      {"runs", kInt, "3", kPositive, "measured replays per mode"},
      {"exact_budget", kDouble, "3", kZero, "B&B budget in seconds"},
  };
}

/// Shared driver for Fig 13a/13b: normalized throughput of NA/MST/LCSE/MOTTO
/// while the basic workload ratio r sweeps 0%..100% (paper §VII-B).
inline int RunOverallComparison(Scenario scenario, const FlagSet& flags) {
  int64_t num_events = flags.Int("events");
  if (flags.Switch("full")) {
    num_events = scenario == Scenario::kStockMarket ? 2'000'000 : 4'000'000;
  }
  int num_queries = static_cast<int>(flags.Int("queries"));
  uint64_t seed = static_cast<uint64_t>(flags.Int("seed"));

  EventTypeRegistry registry;
  StreamOptions stream_options;
  stream_options.scenario = scenario;
  stream_options.num_events = num_events;
  stream_options.seed = seed;
  EventStream stream = GenerateStream(stream_options, &registry);

  std::printf(
      "  r%%  | NA eps    | MST xNA | LCSE xNA | MOTTO xNA | matches | "
      "MOTTO nodes\n");
  std::printf(
      "-------+-----------+---------+----------+-----------+---------+------"
      "------\n");
  for (int r : {100, 75, 50, 25, 0}) {
    WorkloadOptions workload_options;
    workload_options.scenario = scenario;
    workload_options.num_queries = num_queries;
    workload_options.basic_ratio = static_cast<double>(r) / 100.0;
    workload_options.seed = seed + static_cast<uint64_t>(r);
    auto workload = GenerateWorkload(workload_options, &registry);
    MOTTO_CHECK(workload.ok()) << workload.status();

    ComparisonOptions options;
    options.warmup = true;
    options.measure_runs = static_cast<int>(flags.Int("runs"));
    options.planner.exact_budget_seconds = flags.Double("exact_budget");
    auto runs = CompareModes(workload->queries, stream, &registry, options);
    MOTTO_CHECK(runs.ok()) << runs.status();
    const ModeRun& na = (*runs)[0];
    const ModeRun& mst = (*runs)[1];
    const ModeRun& lcse = (*runs)[2];
    const ModeRun& motto = (*runs)[3];
    std::printf("  %3d  | %9.0f | %7.2f | %8.2f | %9.2f | %7llu | %6zu\n", r,
                na.throughput_eps, mst.normalized, lcse.normalized,
                motto.normalized,
                static_cast<unsigned long long>(na.total_matches),
                motto.jqp_nodes);
    std::fflush(stdout);
  }
  std::printf(
      "\nPaper shape (Fig 13%s): MOTTO >= LCSE >= MST >= NA at every r; the\n"
      "advantage of MOTTO grows as r decreases (complex sharing types that\n"
      "MST/LCSE cannot exploit), and overall gains are larger in the stock\n"
      "scenario (longer operand lists => more sharing opportunities).\n",
      scenario == Scenario::kStockMarket ? "a" : "b");
  return 0;
}

}  // namespace motto::bench

#endif  // MOTTO_BENCH_OVERALL_COMPARISON_H_
