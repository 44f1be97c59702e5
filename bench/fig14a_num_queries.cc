// Reproduces Fig 14a: throughput improvement and optimization overhead as
// the number of queries grows, exact (branch & bound) vs approximate
// (simulated annealing) planning.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/check.h"
#include "engine/executor.h"
#include "workload/data_gen.h"
#include "workload/harness.h"
#include "workload/query_gen.h"

namespace motto::bench {
namespace {

const std::vector<FlagSpec> kFlags = {
    {"events", kInt, "40000", kPositive, "stream length"},
    {"seed", kInt, "1", kNone, "stream and workload seed"},
    {"max_queries", kInt, "140", kPositive,
     "largest workload; sizes step by 20 from 20"},
    {"exact_budget", kDouble, "10", kZero, "B&B budget in seconds"},
    {"sa_iterations", kInt, "20000", kPositive,
     "simulated-annealing iterations"},
};

int Run(const FlagSet& flags) {
  uint64_t seed = static_cast<uint64_t>(flags.Int("seed"));
  int max_queries = static_cast<int>(flags.Int("max_queries"));
  double exact_budget = flags.Double("exact_budget");
  int sa_iterations = static_cast<int>(flags.Int("sa_iterations"));

  EventTypeRegistry registry;
  EventStream stream = BenchStream(flags, &registry);
  StreamStats stats = ComputeStats(stream);

  std::printf(
      " #q  | NA eps    | exact xNA | exact opt s | exact? | SA xNA | "
      "SA opt s\n");
  std::printf(
      "-----+-----------+-----------+-------------+--------+--------+------"
      "---\n");
  for (int n = 20; n <= max_queries; n += 20) {
    WorkloadOptions workload_options;
    workload_options.num_queries = n;
    workload_options.basic_ratio = 1.0;  // Paper: r=100% for this study.
    workload_options.seed = seed;  // Same seed: workloads grow by extension.
    auto workload = GenerateWorkload(workload_options, &registry);
    MOTTO_CHECK(workload.ok()) << workload.status();

    struct Measured {
      double eps = 0.0;
      double opt_s = 0.0;
      bool exact = false;
    };
    auto measure = [&](OptimizerMode mode, bool force_approximate) {
      OptimizerOptions options;
      options.mode = mode;
      options.planner.exact_budget_seconds = exact_budget;
      options.planner.force_approximate = force_approximate;
      options.planner.sa_iterations = sa_iterations;
      Optimizer optimizer(&registry, stats, options);
      auto outcome = optimizer.Optimize(workload->queries);
      MOTTO_CHECK(outcome.ok()) << outcome.status();
      Measured measured;
      measured.opt_s = outcome->rewrite_seconds + outcome->plan_seconds;
      measured.exact = outcome->exact;
      auto executor = Executor::Create(std::move(outcome->jqp));
      MOTTO_CHECK(executor.ok()) << executor.status();
      ExecutorOptions measure;
      measure.count_matches_only = true;
      executor->Run(stream, measure).status();  // Warmup.
      for (int rep = 0; rep < 3; ++rep) {
        auto run = executor->Run(stream, measure);
        MOTTO_CHECK(run.ok()) << run.status();
        measured.eps = std::max(measured.eps, run->ThroughputEps());
      }
      return measured;
    };

    Measured na = measure(OptimizerMode::kNa, false);
    Measured exact = measure(OptimizerMode::kMotto, false);
    Measured sa = measure(OptimizerMode::kMotto, true);

    std::printf(" %3d | %9.0f | %9.2f | %11.3f | %6s | %6.2f | %8.3f\n", n,
                na.eps, exact.eps / na.eps, exact.opt_s,
                exact.exact ? "yes" : "no", sa.eps / na.eps, sa.opt_s);
    std::fflush(stdout);
  }
  std::printf(
      "\nPaper shape (Fig 14a): improvement grows with #queries for both\n"
      "planners; exact >= approximate in plan quality; approximate planning\n"
      "time stays roughly constant while exact time climbs steeply (the\n"
      "policy switches to SA when the exact budget is exhausted).\n");
  return 0;
}

}  // namespace
}  // namespace motto::bench

int main(int argc, char** argv) {
  return motto::bench::Run(motto::bench::ParseFlags(
      argc, argv, motto::bench::kFlags,
      "Fig 14a — varying the number of queries",
      "Throughput improvement and optimization overhead, exact vs SA."));
}
