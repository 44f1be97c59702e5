#ifndef MOTTO_PERFBENCH_PHASES_H_
#define MOTTO_PERFBENCH_PHASES_H_

#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "ccl/pattern.h"
#include "engine/graph.h"
#include "event/event_type.h"
#include "event/stream.h"
#include "motto/optimizer.h"

namespace perfbench {

/// What both user paths read before the engine exists: the workload text,
/// parsed, and the stream CSV with its statistics (the cost-model input).
struct Inputs {
  std::unique_ptr<motto::EventTypeRegistry> registry;
  std::vector<motto::Query> queries;
  motto::EventStream stream;
  motto::StreamStats stats;
};

/// Reads <dir>/workload.ccl and <dir>/stream.csv the way `motto run` does:
/// workload first, then the stream.
Inputs LoadInputs(const Config& config);

/// Identity of a chosen plan: if two set-ups disagree on it, the speed of
/// the engine is being compared across different plans.
struct PlanPrint {
  size_t nodes = 0;
  double planned_cost = 0.0;
  bool exact = false;
  std::string ToString() const;
  friend bool operator==(const PlanPrint&, const PlanPrint&) = default;
};
PlanPrint PrintPlan(const motto::OptimizeOutcome& outcome);

/// The `motto run` path: set-up repetitions, then timed replays through
/// Executor and ShardedExecutor on the optimized plan.
struct BatchResult {
  std::vector<double> setup_s;
  std::vector<PlanPrint> plans;
  std::vector<double> exec_eps;
  std::vector<double> sharded_eps;
  MatchPrint exec_print;
  MatchPrint sharded_print;
};
BatchResult RunBatch(const Config& config, Metrics* layer);

/// The `motto serve` path: per repetition, set-up, an open-loop phase at a
/// fixed rate, then a closed-loop phase to kEnd over loopback TCP.
struct ServeRep {
  double setup_s = 0.0;
  double eps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  uint64_t latency_samples = 0;
  double late_max_ms = 0.0;
  double late_p99_ms = 0.0;
  bool sustained = true;
  uint64_t offered = 0;
  uint64_t ingested = 0;
  uint64_t shed = 0;
  size_t max_queue_depth = 0;
  uint64_t checkpoints = 0;
  MatchPrint print;
};
struct ServeResult {
  std::vector<ServeRep> reps;
  /// Plan of the first repetition's ServeCore: the output check replays the
  /// stream through it in batch.
  motto::Jqp jqp;
};
ServeResult RunServe(const Config& config, Metrics* layer);

/// Traced run only: FrameDecoder alone, OnFrame alone, and explicit
/// Checkpoint() calls on a core fed directly, plus checkpoint serialize and
/// save on the state LoadLatestCheckpoint returns.
void ProbeServeLayers(const Config& config, Metrics* layer);

}  // namespace perfbench

#endif  // MOTTO_PERFBENCH_PHASES_H_
