// Reproduces Fig 14b: throughput while varying the number of CPU cores
// from 1 to 6 over the MOTTO-optimized plan.
//
// The paper ran on a VM with up to 6 physical cores. This container has one
// vCPU, so wall-clock runs cannot exhibit real speedup; the bench therefore
// (a) measures true per-node busy times single-threaded and models the
// k-worker makespan under LPT partitioning (DESIGN.md §4), and (b) can also
// run the real multi-threaded executor for wall-clock numbers
// (--wallclock=1), which are meaningful on multi-core hosts.
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
    {"events", kInt, "40000", kPositive, "stream length"},
    {"queries", kInt, "100", kPositive, "queries in the workload"},
    {"seed", kInt, "1", kNone, "stream and workload seed"},
    {"max_cores", kInt, "6", kPositive, "largest worker count"},
    {"wallclock", kSwitch, "", kNone,
     "also time the pipelined executor at each worker count"},
};

int Run(const FlagSet& flags) {
  int num_queries = static_cast<int>(flags.Int("queries"));
  uint64_t seed = static_cast<uint64_t>(flags.Int("seed"));
  int max_cores = static_cast<int>(flags.Int("max_cores"));
  bool wallclock = flags.Switch("wallclock");

  EventTypeRegistry registry;
  EventStream stream = BenchStream(flags, &registry);
  StreamStats stats = ComputeStats(stream);

  WorkloadOptions workload_options;
  workload_options.num_queries = num_queries;
  workload_options.basic_ratio = 1.0;
  workload_options.seed = seed;
  auto workload = GenerateWorkload(workload_options, &registry);
  MOTTO_CHECK(workload.ok()) << workload.status();

  OptimizerOptions options;
  options.mode = OptimizerMode::kMotto;
  Optimizer optimizer(&registry, stats, options);
  auto outcome = optimizer.Optimize(workload->queries);
  MOTTO_CHECK(outcome.ok()) << outcome.status();
  std::printf("MOTTO plan: %zu operator nodes (sharing keeps enough\n"
              "independent sub-queries for parallelism, §VII-C).\n\n",
              outcome->jqp.nodes.size());

  auto points =
      MeasureCoreScaling(outcome->jqp, stream, max_cores, wallclock);
  MOTTO_CHECK(points.ok()) << points.status();

  std::printf(" cores | modeled speedup | modeled eps ");
  if (wallclock) std::printf("| wallclock eps");
  std::printf("\n-------+-----------------+-------------");
  if (wallclock) std::printf("+--------------");
  std::printf("\n");
  for (const ScalingPoint& point : *points) {
    std::printf("   %d   | %15.2f | %11.0f ", point.threads,
                point.modeled_speedup, point.modeled_throughput_eps);
    if (wallclock) std::printf("| %12.0f", point.wallclock_throughput_eps);
    std::printf("\n");
  }
  std::printf(
      "\nPaper shape (Fig 14b): near-linear throughput scaling from 1 to 6\n"
      "cores; sharing does not reduce parallelism because the jumbo plan\n"
      "retains many independent operator nodes.\n");
  return 0;
}

}  // namespace
}  // namespace motto::bench

int main(int argc, char** argv) {
  return motto::bench::Run(motto::bench::ParseFlags(
      argc, argv, motto::bench::kFlags,
      "Fig 14b — varying the number of CPU cores",
      "Scaling of the MOTTO plan across workers."));
}
