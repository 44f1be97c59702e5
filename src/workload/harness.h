#ifndef MOTTO_WORKLOAD_HARNESS_H_
#define MOTTO_WORKLOAD_HARNESS_H_

#include <variant>
#include <vector>

#include "common/result.h"
#include "engine/executor.h"
#include "engine/parallel_executor.h"
#include "engine/sharded_executor.h"
#include "motto/optimizer.h"
#include "obs/report.h"

namespace motto {

/// Whichever executor MakeExecutor selected, behind one Run/jqp surface so
/// callers stay engine-agnostic.
struct AnyExecutor {
  std::variant<Executor, ParallelExecutor, ShardedExecutor> impl;

  Result<RunResult> Run(const EventStream& stream,
                        const ExecutorOptions& options = ExecutorOptions{}) {
    return std::visit(
        [&](auto& executor) { return executor.Run(stream, options); }, impl);
  }

  const Jqp& jqp() const {
    return std::visit([](const auto& executor) -> const Jqp& {
      return executor.jqp();
    }, impl);
  }
};

/// Picks the executor for `jqp`: shards > 1 selects the sharded
/// data-parallel executor over `threads` workers (DESIGN.md §12); otherwise
/// threads > 1 selects the pipelined executor with its default batch size
/// and pipe depth; otherwise the single-threaded Executor.
Result<AnyExecutor> MakeExecutor(Jqp jqp, int shards, int threads);

/// Measurement of one optimizer mode over one workload + stream.
struct ModeRun {
  OptimizerMode mode = OptimizerMode::kNa;
  /// Raw input events per second of wall time.
  double throughput_eps = 0.0;
  /// Throughput relative to the NA baseline of the same comparison.
  double normalized = 1.0;
  uint64_t total_matches = 0;
  double optimize_seconds = 0.0;  // Rewriter + planner wall time.
  double planned_cost = 0.0;
  double default_cost = 0.0;
  bool exact = false;
  size_t jqp_nodes = 0;
  /// Per-node predicted-vs-measured report (DESIGN.md §9). Nodes are only
  /// filled when ComparisonOptions::collect_reports is set (it needs an
  /// extra timed replay per mode); warnings raised while measuring — e.g. a
  /// zero-throughput NA baseline — are appended regardless.
  obs::RunReport report;
};

struct ComparisonOptions {
  std::vector<OptimizerMode> modes = {OptimizerMode::kNa, OptimizerMode::kMst,
                                      OptimizerMode::kLcse,
                                      OptimizerMode::kMotto};
  PlannerOptions planner;
  /// Cross-check that every mode produces exactly the NA match multiset
  /// per query (slower; use on validation runs).
  bool verify_matches = false;
  /// Discard one warmup replay before measuring (cold caches/allocator
  /// otherwise penalize whichever mode runs first).
  bool warmup = false;
  /// Measured replays per mode; the best throughput is reported.
  int measure_runs = 1;
  /// Attach a full RunReport (predicted-vs-measured per node) to every
  /// ModeRun. Costs one extra timed replay per mode, so keep it off on
  /// pure-throughput comparisons.
  bool collect_reports = false;
  /// Execution engine for the measured replays (see MakeExecutor).
  int shards = 1;
  int threads = 1;
  /// Operand evaluation mode for every measured replay (and the optional
  /// verification replays): kSelectivity runs each pattern node in its
  /// planner-chosen rarest-first order (DESIGN.md §13).
  EvalOrderMode eval_order = EvalOrderMode::kArrival;
  /// Per-family cost calibration forwarded to every mode's optimizer
  /// (OptimizerOptions::calibration).
  std::vector<std::pair<std::string, double>> calibration;
};

/// Optimizes and replays `queries` over `stream` once per mode, reporting
/// throughput normalized to NA (the paper's Fig 13 measurement).
/// The NA mode is always run (prepended if absent) to anchor normalization.
Result<std::vector<ModeRun>> CompareModes(const std::vector<Query>& queries,
                                          const EventStream& stream,
                                          EventTypeRegistry* registry,
                                          const ComparisonOptions& options);

/// One point of the multi-core scaling study (Fig 14b).
struct ScalingPoint {
  int threads = 1;
  /// Speedup predicted by LPT-partitioning measured per-node busy times
  /// onto `threads` workers (this container has one vCPU; see DESIGN.md §4).
  double modeled_speedup = 1.0;
  double modeled_throughput_eps = 0.0;
  /// Wall-clock throughput of the real multi-threaded executor (meaningful
  /// only on multi-core hosts; reported for completeness).
  double wallclock_throughput_eps = 0.0;
};

/// Runs `jqp` single-threaded with per-node timing, then models the
/// makespan of the measured node work under 1..max_threads workers;
/// optionally also runs the real ParallelExecutor per thread count.
Result<std::vector<ScalingPoint>> MeasureCoreScaling(const Jqp& jqp,
                                                     const EventStream& stream,
                                                     int max_threads,
                                                     bool run_wallclock);

}  // namespace motto

#endif  // MOTTO_WORKLOAD_HARNESS_H_
