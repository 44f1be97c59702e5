#include "workload/harness.h"

#include <algorithm>
#include <limits>
#include <map>
#include <set>
#include <string>

namespace motto {

namespace {

using MatchSet = std::multiset<std::string>;

std::map<std::string, MatchSet> SinkFingerprints(const RunResult& run) {
  std::map<std::string, MatchSet> out;
  for (const auto& [name, events] : run.sink_events) {
    MatchSet& set = out[name];
    for (const Event& e : events) set.insert(e.Fingerprint());
  }
  return out;
}

}  // namespace

Result<AnyExecutor> MakeExecutor(Jqp jqp, int shards, int threads) {
  if (shards > 1) {
    MOTTO_ASSIGN_OR_RETURN(
        ShardedExecutor sharded,
        ShardedExecutor::Create(std::move(jqp), shards, threads));
    return AnyExecutor{std::move(sharded)};
  }
  if (threads > 1) {
    MOTTO_ASSIGN_OR_RETURN(ParallelExecutor parallel,
                           ParallelExecutor::Create(std::move(jqp), threads));
    return AnyExecutor{std::move(parallel)};
  }
  MOTTO_ASSIGN_OR_RETURN(Executor executor, Executor::Create(std::move(jqp)));
  return AnyExecutor{std::move(executor)};
}

Result<std::vector<ModeRun>> CompareModes(const std::vector<Query>& queries,
                                          const EventStream& stream,
                                          EventTypeRegistry* registry,
                                          const ComparisonOptions& options) {
  StreamStats stats = ComputeStats(stream);
  std::vector<OptimizerMode> modes = options.modes;
  if (std::find(modes.begin(), modes.end(), OptimizerMode::kNa) ==
      modes.end()) {
    modes.insert(modes.begin(), OptimizerMode::kNa);
  }

  // Phase 1: optimize every mode and build its executor.
  std::vector<ModeRun> runs;
  std::vector<AnyExecutor> executors;
  for (OptimizerMode mode : modes) {
    OptimizerOptions optimizer_options;
    optimizer_options.mode = mode;
    optimizer_options.planner = options.planner;
    optimizer_options.calibration = options.calibration;
    Optimizer optimizer(registry, stats, optimizer_options);
    MOTTO_ASSIGN_OR_RETURN(OptimizeOutcome outcome,
                           optimizer.Optimize(queries));
    MOTTO_ASSIGN_OR_RETURN(
        AnyExecutor executor,
        MakeExecutor(std::move(outcome.jqp), options.shards, options.threads));
    ModeRun mode_run;
    mode_run.mode = mode;
    mode_run.optimize_seconds = outcome.rewrite_seconds + outcome.plan_seconds;
    mode_run.planned_cost = outcome.planned_cost;
    mode_run.default_cost = outcome.default_cost;
    mode_run.exact = outcome.exact;
    mode_run.jqp_nodes = executor.jqp().nodes.size();
    runs.push_back(std::move(mode_run));
    executors.push_back(std::move(executor));
  }

  // Phase 2: interleaved measurement rounds. Throughput uses count-only
  // sinks (retaining match events costs the same in every plan and only
  // dilutes the comparison); interleaving means background-load bursts on
  // the host hit every mode instead of one mode's whole measurement.
  ExecutorOptions measure_options;
  measure_options.count_matches_only = true;
  measure_options.eval_order = options.eval_order;
  std::vector<double> best_elapsed(modes.size(),
                                   std::numeric_limits<double>::infinity());
  int rounds = std::max(1, options.measure_runs);
  for (int round = options.warmup ? -1 : 0; round < rounds; ++round) {
    for (size_t m = 0; m < modes.size(); ++m) {
      MOTTO_ASSIGN_OR_RETURN(RunResult run,
                             executors[m].Run(stream, measure_options));
      if (round < 0) continue;  // Warmup round, discard.
      best_elapsed[m] = std::min(best_elapsed[m], run.elapsed_seconds);
      if (round == 0) {
        // Per-user-query match totals (ignore sub-query sinks).
        std::set<std::string> user_queries;
        for (const Query& q : queries) user_queries.insert(q.name);
        for (const auto& [name, count] : run.sink_counts) {
          if (user_queries.count(name) > 0) runs[m].total_matches += count;
        }
      }
    }
  }
  for (size_t m = 0; m < modes.size(); ++m) {
    runs[m].throughput_eps =
        best_elapsed[m] > 0 ? static_cast<double>(stream.size()) /
                                  best_elapsed[m]
                            : 0.0;
  }

  // Phase 3: consistency checks against NA.
  uint64_t na_matches = runs[0].total_matches;
  double na_throughput = runs[0].throughput_eps;
  std::map<std::string, MatchSet> na_fingerprints;
  for (size_t m = 0; m < modes.size(); ++m) {
    // A zero NA baseline (empty stream or sub-clock-resolution replay)
    // cannot anchor normalization; report 1.0 but flag it so nobody plots
    // the forced value as a real speedup.
    runs[m].normalized =
        na_throughput > 0 ? runs[m].throughput_eps / na_throughput : 1.0;
    if (na_throughput <= 0) {
      runs[m].report.warnings.push_back(
          "NA baseline throughput is zero; normalized throughput forced to "
          "1.0 and not meaningful");
    }
    if (m > 0 && runs[m].total_matches != na_matches) {
      return InternalError(
          std::string(OptimizerModeName(modes[m])) + " produced " +
          std::to_string(runs[m].total_matches) + " matches but NA " +
          std::to_string(na_matches));
    }
    if (options.verify_matches) {
      ExecutorOptions verify_options;
      verify_options.eval_order = options.eval_order;
      MOTTO_ASSIGN_OR_RETURN(RunResult verify_run,
                             executors[m].Run(stream, verify_options));
      std::map<std::string, MatchSet> fingerprints =
          SinkFingerprints(verify_run);
      if (m == 0) {
        na_fingerprints = std::move(fingerprints);
      } else {
        for (const Query& q : queries) {
          if (fingerprints[q.name] != na_fingerprints[q.name]) {
            return InternalError(std::string(OptimizerModeName(modes[m])) +
                                 " diverges from NA on query " + q.name);
          }
        }
      }
    }
  }

  // Phase 4: optional per-mode reports. Reports need per-node timing, which
  // the throughput rounds deliberately avoid, so this is an extra replay.
  if (options.collect_reports) {
    ExecutorOptions report_options;
    report_options.collect_node_timing = true;
    report_options.count_matches_only = true;
    report_options.eval_order = options.eval_order;
    for (size_t m = 0; m < modes.size(); ++m) {
      MOTTO_ASSIGN_OR_RETURN(RunResult run,
                             executors[m].Run(stream, report_options));
      obs::RunReport report =
          obs::BuildRunReport(executors[m].jqp(), stats, run);
      report.warnings.insert(report.warnings.begin(),
                             runs[m].report.warnings.begin(),
                             runs[m].report.warnings.end());
      runs[m].report = std::move(report);
    }
  }
  return runs;
}

Result<std::vector<ScalingPoint>> MeasureCoreScaling(const Jqp& jqp,
                                                     const EventStream& stream,
                                                     int max_threads,
                                                     bool run_wallclock) {
  if (max_threads < 1) {
    return InvalidArgumentError("max_threads must be >= 1");
  }
  MOTTO_ASSIGN_OR_RETURN(Executor executor, Executor::Create(jqp));
  ExecutorOptions timing;
  timing.collect_node_timing = true;
  MOTTO_ASSIGN_OR_RETURN(RunResult timed, executor.Run(stream, timing));

  std::vector<double> work;
  double total_work = 0.0;
  for (const NodeStats& stats : timed.node_stats) {
    work.push_back(stats.busy_seconds);
    total_work += stats.busy_seconds;
  }
  std::sort(work.begin(), work.end(), std::greater<double>());
  // The executor's per-event dispatch outside node bodies is inherently
  // sequential per worker but partitions with the nodes; treat measured
  // node busy time as the parallelizable work.
  double base_throughput = timed.ThroughputEps();

  std::vector<ScalingPoint> points;
  for (int threads = 1; threads <= max_threads; ++threads) {
    // LPT makespan of node work on `threads` workers.
    std::vector<double> bins(static_cast<size_t>(threads), 0.0);
    for (double w : work) {
      *std::min_element(bins.begin(), bins.end()) += w;
    }
    double makespan = *std::max_element(bins.begin(), bins.end());
    ScalingPoint point;
    point.threads = threads;
    point.modeled_speedup =
        makespan > 0 && total_work > 0 ? total_work / makespan : 1.0;
    point.modeled_throughput_eps = base_throughput * point.modeled_speedup;
    if (run_wallclock) {
      MOTTO_ASSIGN_OR_RETURN(
          ParallelExecutor parallel,
          ParallelExecutor::Create(jqp, threads, /*batch_size=*/2048));
      MOTTO_ASSIGN_OR_RETURN(RunResult run, parallel.Run(stream));
      point.wallclock_throughput_eps = run.ThroughputEps();
    }
    points.push_back(point);
  }
  return points;
}

}  // namespace motto
