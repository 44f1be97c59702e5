// Reproduces Fig 14c: sharing effectiveness while the source:beneficiary
// window ratio s_w : b_w varies from 4:1 to 1:4 (paper §VII-C).
//
// Workload: type-5 pairs (prefix sharing across window constraints).
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
    {"queries", kInt, "60", kPositive, "queries per workload"},
    {"seed", kInt, "1", kNone, "stream and workload seed"},
    {"runs", kInt, "3", kPositive, "measured replays per mode"},
};

int Run(const FlagSet& flags) {
  int num_queries = static_cast<int>(flags.Int("queries"));
  uint64_t seed = static_cast<uint64_t>(flags.Int("seed"));

  EventTypeRegistry registry;
  EventStream stream = BenchStream(flags, &registry);

  struct Ratio {
    const char* label;
    double value;
  };
  const Ratio ratios[] = {
      {"4:1", 4.0}, {"2:1", 2.0}, {"1:1", 1.0}, {"1:2", 0.5}, {"1:4", 0.25}};

  std::printf(" sw:bw | NA eps    | MOTTO xNA | matches\n");
  std::printf("-------+-----------+-----------+--------\n");
  for (const Ratio& ratio : ratios) {
    WorkloadOptions workload_options;
    workload_options.num_queries = num_queries;
    workload_options.base_window = Seconds(5);
    workload_options.only_type = 5;
    workload_options.window_ratio = ratio.value;
    workload_options.seed = seed;
    auto workload = GenerateWorkload(workload_options, &registry);
    MOTTO_CHECK(workload.ok()) << workload.status();

    ComparisonOptions options;
    options.modes = {OptimizerMode::kNa, OptimizerMode::kMotto};
    options.warmup = true;
    options.measure_runs = static_cast<int>(flags.Int("runs"));
    auto runs = CompareModes(workload->queries, stream, &registry, options);
    MOTTO_CHECK(runs.ok()) << runs.status();
    std::printf("  %s  | %9.0f | %9.2f | %llu\n", ratio.label,
                (*runs)[0].throughput_eps, (*runs)[1].normalized,
                static_cast<unsigned long long>((*runs)[0].total_matches));
    std::fflush(stdout);
  }
  std::printf(
      "\nPaper shape (Fig 14c): MOTTO improves throughput at every ratio;\n"
      "the gain peaks at 1:1 (no window handling overhead), shrinks\n"
      "slightly for s_w > b_w (extra span filtering), and is smallest for\n"
      "s_w < b_w (the source window must be extended, raising source cost).\n");
  return 0;
}

}  // namespace
}  // namespace motto::bench

int main(int argc, char** argv) {
  return motto::bench::Run(motto::bench::ParseFlags(
      argc, argv, motto::bench::kFlags,
      "Fig 14c — varying the window constraints",
      "Sharing across source/beneficiary window ratios."));
}
