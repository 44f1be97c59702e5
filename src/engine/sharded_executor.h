#ifndef MOTTO_ENGINE_SHARDED_EXECUTOR_H_
#define MOTTO_ENGINE_SHARDED_EXECUTOR_H_

#include <memory>
#include <utility>
#include <vector>

#include "common/result.h"
#include "engine/executor.h"
#include "engine/graph.h"
#include "engine/partition.h"
#include "engine/worker_pool.h"
#include "event/stream.h"

namespace motto {

/// Data-parallel JQP executor: partitions the plan into independent shards
/// (PartitionPlan), runs one single-threaded Executor replica per shard on a
/// persistent WorkerPool, and merges the per-shard results deterministically
/// (DESIGN.md §12).
///
/// Shards share nothing during a run — no locks, no cross-shard watermarks —
/// which is what lets throughput scale with cores where the pipelined
/// ParallelExecutor stalls on inter-node dependencies. Guarantees:
///   - per-sink match multisets equal the single-threaded Executor's for
///     every shard count;
///   - per-sink match order is byte-identical to the single-threaded
///     Executor when the partition is a pure component split
///     (plan().PureComponentPartition()), and byte-identical across repeated
///     runs at any fixed shard count.
class ShardedExecutor {
 public:
  /// Validates the plan, partitions it into `num_shards` shards and builds
  /// one replica per shard. `num_threads` <= 0 means one thread per shard;
  /// more threads than shards are clamped.
  static Result<ShardedExecutor> Create(Jqp jqp, int num_shards,
                                        int num_threads = 0);

  ShardedExecutor(ShardedExecutor&&) = default;
  ShardedExecutor& operator=(ShardedExecutor&&) = default;

  /// Replays `stream` through every shard and merges. Time-sliced replicas
  /// replay their slice plus a `horizon`-deep warm-up prefix; each sink's
  /// ownership rule (SinkOwnership) keeps exactly the matches whose
  /// attribution key falls in the shard's interval. RunResult::sharded
  /// carries per-shard counters; node_stats are re-mapped to global ids.
  Result<RunResult> Run(const EventStream& stream,
                        const ExecutorOptions& options = ExecutorOptions{});

  const Jqp& jqp() const { return jqp_; }
  const PartitionPlan& plan() const { return plan_; }
  int num_shards() const { return static_cast<int>(shards_.size()); }
  int num_threads() const { return num_threads_; }

 private:
  struct Shard {
    explicit Shard(Executor e) : executor(std::move(e)) {}

    Executor executor;
    int group = 0;
    int time_slices = 1;
    int slice_index = 0;
    Duration horizon = 0;
    /// Local node id -> global node id in the full plan.
    std::vector<int32_t> global_nodes;

    // Per-run scratch, written single-threaded before dispatch and by this
    // shard's worker during it.
    const Event* data = nullptr;
    size_t count = 0;
    uint64_t owned_events = 0;
    uint64_t context_events = 0;
    RunResult result;
    double busy_seconds = 0.0;
  };

  ShardedExecutor(Jqp jqp, PartitionPlan plan, int num_threads);

  void RunShard(Shard* shard, const ExecutorOptions& options);

  Jqp jqp_;
  PartitionPlan plan_;
  int num_threads_ = 1;
  std::vector<Shard> shards_;
  /// threads - 1 persistent workers; the calling thread takes the last
  /// share. Null when single-threaded.
  std::unique_ptr<WorkerPool> pool_;
};

}  // namespace motto

#endif  // MOTTO_ENGINE_SHARDED_EXECUTOR_H_
