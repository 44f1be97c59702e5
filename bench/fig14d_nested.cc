// Reproduces Fig 14d: sharing benefits for nested pattern queries as the
// nested level grows from 2 to 8 (common sub-query in the innermost layer).
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/check.h"
#include "workload/data_gen.h"
#include "workload/harness.h"
#include "workload/query_gen.h"

namespace motto::bench {
namespace {

const std::vector<FlagSpec> kFlags = {
    {"events", kInt, "50000", kPositive, "stream length"},
    {"queries", kInt, "40", kPositive, "queries per workload"},
    {"seed", kInt, "1", kNone, "stream and workload seed"},
    {"runs", kInt, "3", kPositive, "measured replays per mode"},
};

int Run(const FlagSet& flags) {
  int num_queries = static_cast<int>(flags.Int("queries"));
  uint64_t seed = static_cast<uint64_t>(flags.Int("seed"));

  EventTypeRegistry registry;
  EventStream stream = BenchStream(flags, &registry);

  std::printf(" level | NA eps    | MOTTO xNA | flat sub-queries | matches\n");
  std::printf("-------+-----------+-----------+------------------+--------\n");
  for (int level = 2; level <= 8; level += 2) {
    WorkloadOptions workload_options;
    workload_options.num_queries = num_queries;
    workload_options.only_type = 7;  // Paper: r=0%, nested study.
    workload_options.nested_level = level;
    workload_options.seed = seed + static_cast<uint64_t>(level);
    auto workload = GenerateWorkload(workload_options, &registry);
    MOTTO_CHECK(workload.ok()) << workload.status();

    ComparisonOptions options;
    options.modes = {OptimizerMode::kNa, OptimizerMode::kMotto};
    options.warmup = true;
    options.measure_runs = static_cast<int>(flags.Int("runs"));
    auto runs = CompareModes(workload->queries, stream, &registry, options);
    MOTTO_CHECK(runs.ok()) << runs.status();
    std::printf("   %d   | %9.0f | %9.2f | %16zu | %llu\n", level,
                (*runs)[0].throughput_eps, (*runs)[1].normalized,
                (*runs)[1].jqp_nodes,
                static_cast<unsigned long long>((*runs)[0].total_matches));
    std::fflush(stdout);
  }
  std::printf(
      "\nPaper shape (Fig 14d): MOTTO still reduces execution cost at every\n"
      "nested level, but the relative gain shrinks as nesting deepens (the\n"
      "shared innermost sub-query is a smaller fraction of total work).\n");
  return 0;
}

}  // namespace
}  // namespace motto::bench

int main(int argc, char** argv) {
  return motto::bench::Run(motto::bench::ParseFlags(
      argc, argv, motto::bench::kFlags,
      "Fig 14d — varying the nested level",
      "Sharing among nested pattern queries."));
}
